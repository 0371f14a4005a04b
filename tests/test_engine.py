"""PBW normal forms, products, brackets, grading, and the relation suites."""

import hashlib
import json
import random

import pytest

from spinhecke import algebras as alg
from spinhecke import dunkl as dk
from spinhecke import engine
from spinhecke import morphisms as mo
from spinhecke import scalars as sc
from spinhecke import structure as st
from spinhecke.engine import (
    AlgebraError,
    Element,
    bracket,
    clear_caches,
    confluence_probe,
    element_from_terms,
    generator_element,
    monomial_element,
    random_monomial,
    super_bracket,
    verify_relations,
)
from spinhecke.exprparse import parse_expression
from spinhecke.render import element_json, element_str
from spinhecke.scalars import ONE, U, QOmega

ALL_FACTORIES = (
    alg.sym,
    alg.clifford_sym,
    alg.spin_sym,
    alg.affine_hc,
    alg.spin_affine,
    alg.dahca,
    alg.sdaha,
    alg.trig_dahca,
    alg.trig_sdaha,
)

VARIANTS = (alg.dahca_localized, alg.sdaha_localized, alg.dahca_yfirst, alg.sdaha_yfirst)


def _word(sig, *tokens):
    return element_from_terms(sig, [(ONE, tokens)])


def test_normal_form_spec_examples():
    sym3 = alg.sym(3)
    assert _word(sym3, ("s", 1), ("s", 1)) == Element.one(sym3)
    d2 = alg.dahca(2)
    assert element_str(_word(d2, ("y", 1), ("x", 1))) == "x1*y1 - u*s12 - u*s12*c1*c2"
    assert element_str(_word(d2, ("y", 2), ("x", 1))) == "x1*y2 + u*s12 + u*s12*c1*c2"


def test_mul_examples():
    d2 = alg.dahca(2)
    a = _word(d2, ("x", 1), ("c", 2), ("y", 1))
    assert Element.one(d2) * a == a
    assert _word(d2, ("c", 1)) * _word(d2, ("c", 1)) == Element.one(d2)
    assert element_str(_word(d2, ("x", 1)) * _word(d2, ("y", 1))) == "x1*y1"


def test_bracket_examples():
    d2 = alg.dahca(2)
    y1, y2 = (generator_element(d2, ("y", i)) for i in (1, 2))
    x1 = generator_element(d2, ("x", 1))
    assert bracket(y1, y2).is_zero
    assert element_str(bracket(y2, x1)) == "u*s12 + u*s12*c1*c2"
    s2 = alg.sdaha(2)
    xi1, xi2 = (generator_element(s2, ("xi", i)) for i in (1, 2))
    assert super_bracket(xi1, xi2, plus=True).is_zero
    # default contract: both arguments odd -> anticommutator
    assert super_bracket(xi1, xi2) == xi1 * xi2 + xi2 * xi1


def test_parity():
    d2 = alg.dahca(2)
    assert generator_element(d2, ("x", 1)).parity() == "even"
    assert generator_element(d2, ("c", 1)).parity() == "odd"
    s2 = alg.sdaha(2)
    mixed = generator_element(s2, ("xi", 1)) + generator_element(s2, ("y", 1))
    assert mixed.parity() == "mixed"
    assert generator_element(s2, ("t", 1)).parity() == "odd"
    assert generator_element(alg.trig_sdaha(2), ("zeta", 1)).parity() == "odd"


def test_parity_additivity_random():
    rng = random.Random(9)
    for make in (alg.dahca, alg.sdaha, alg.trig_sdaha):
        sig = make(3)
        for _ in range(50):
            a = monomial_element(sig, random_monomial(sig, rng, 2))
            b = monomial_element(sig, random_monomial(sig, rng, 2))
            pa, pb = a.parity(), b.parity()
            prod = a * b
            if prod.is_zero:
                continue
            expected = "even" if pa == pb else "odd"
            assert prod.parity() == expected


def test_relations_all_algebras_small():
    for make in ALL_FACTORIES + VARIANTS:
        for n in (2, 3):
            report = verify_relations(make(n))
            assert report.ok, str(report)


def test_relations_at_u_zero():
    for make in (alg.dahca, alg.sdaha, alg.trig_dahca, alg.trig_sdaha):
        report = verify_relations(make(3, QOmega(0)))
        assert report.ok, str(report)


def test_idempotence_random():
    rng = random.Random(17)
    for make in ALL_FACTORIES:
        sig = make(3)
        for _ in range(1000):
            m = random_monomial(sig, rng, 3)
            again = sig.normalize(sig.mono_atoms(m))
            assert again == {m: ONE}, (sig.name, m)


def test_degree_filtration_dahca():
    # every term of a product has xy-degree at most the sum, same parity
    rng = random.Random(23)
    sig = alg.dahca(3)

    def deg(m):
        left, _, _, right = m
        return sum(left) + sum(right)

    for _ in range(150):
        m1 = random_monomial(sig, rng, 3)
        m2 = random_monomial(sig, rng, 3)
        bound = deg(m1) + deg(m2)
        prod = monomial_element(sig, m1) * monomial_element(sig, m2)
        for m in prod.terms:
            assert deg(m) <= bound
            assert (deg(m) - bound) % 2 == 0


def test_filtration_top_matches_undeformed_product():
    # corrections always drop degree and carry u, so specializing a product
    # at u = 0 must agree with multiplying inside the undeformed algebra
    rng = random.Random(47)
    for make in (alg.dahca, alg.sdaha):
        sig = make(3)
        sig0 = make(3, QOmega(0))
        for _ in range(80):
            m1 = random_monomial(sig, rng, 3)
            m2 = random_monomial(sig, rng, 3)
            prod = monomial_element(sig, m1) * monomial_element(sig, m2)
            spec0 = alg.specialize_u(prod, QOmega(0))
            direct0 = monomial_element(sig0, m1) * monomial_element(sig0, m2)
            assert spec0 == direct0


def test_confluence_probe_small():
    for make in ALL_FACTORIES:
        report = confluence_probe(make(2), trials=40, degree_bound=3, seed=1)
        assert report.ok, str(report)


def test_associativity_n4_sample():
    for make in (alg.dahca, alg.sdaha, alg.trig_dahca, alg.trig_sdaha):
        report = confluence_probe(make(4), trials=15, degree_bound=2, seed=2)
        assert report.ok, str(report)


def test_algebra_mismatch_raises():
    a = generator_element(alg.dahca(2), ("x", 1))
    b = generator_element(alg.dahca(3), ("x", 1))
    with pytest.raises(AlgebraError):
        a * b
    with pytest.raises(AlgebraError):
        a + generator_element(alg.sdaha(2), ("y", 1))


def test_unknown_generator_raises():
    with pytest.raises(AlgebraError):
        generator_element(alg.dahca(2), ("xi", 1))
    with pytest.raises(AlgebraError):
        generator_element(alg.sdaha(2), ("s", 1))
    with pytest.raises(AlgebraError):
        generator_element(alg.dahca(2), ("x", 5))


def test_element_json_shape():
    d2 = alg.dahca(2)
    e = _word(d2, ("y", 1), ("x", 1))
    blob = element_json(e)
    assert blob["algebra"] == "DaHCa" and blob["n"] == 2
    assert {"coeff": "-u", "mono": "s12*c1*c2"} in blob["terms"]


def test_laurent_slot_merging():
    t2 = alg.trig_dahca(2)
    e = _word(t2, ("e", 1), ("einv", 1))
    assert e == Element.one(t2)
    e2 = generator_element(t2, ("e", 1)) ** -3
    assert element_str(e2) == "einv(1)^3"


def test_localized_negative_powers():
    loc = alg.dahca_localized(2)
    y1 = generator_element(loc, ("y", 1))
    yinv = y1 ** -1
    assert y1 * yinv == Element.one(loc)
    assert yinv * y1 == Element.one(loc)
    # the derived rule is the conjugated cross relation: y^{-1}x - xy^{-1}
    # must equal -y^{-1} [y, x] y^{-1}
    x1 = generator_element(loc, ("x", 1))
    lhs = yinv * x1 - x1 * yinv
    rhs = -(yinv * bracket(y1, x1) * yinv)
    assert lhs == rhs
    assert (yinv * (y1 * x1)) == x1


def test_specialize_u():
    d2 = alg.dahca(2)
    e = _word(d2, ("y", 1), ("x", 1))
    e0 = alg.specialize_u(e, QOmega(0))
    assert element_str(e0) == "x1*y1"
    e1 = alg.specialize_u(e, QOmega(1))
    assert "u" not in element_str(e1)


def _reorder(elem, target):
    out = Element.zero(target)
    for mono, coeff in elem.terms.items():
        out = out + element_from_terms(target, [(coeff, elem.sig.mono_tokens(mono))])
    return out


def test_pbw_order_round_trip():
    # re-expressing elements in the reversed polynomial-slot order and back
    # is the identity; the two normal forms are bases of the same algebra
    rng = random.Random(71)
    pairs = (
        (alg.dahca(3), alg.dahca_yfirst(3)),
        (alg.sdaha(3), alg.sdaha_yfirst(3)),
    )
    for main, flipped in pairs:
        for _ in range(60):
            elem = monomial_element(main, random_monomial(main, rng, 3))
            there = _reorder(elem, flipped)
            back = _reorder(there, main)
            assert back == elem


def test_specialized_algebras_stay_free_of_u():
    rng = random.Random(5150)
    checked = 0
    for name in alg.ALGEBRA_NAMES:
        for u0 in (0, 1, 2):
            sig = alg.by_name(name, 3, QOmega(u0))
            for _ in range(20):
                a = monomial_element(sig, random_monomial(sig, rng, 2))
                b = monomial_element(sig, random_monomial(sig, rng, 2))
                for coeff in (a * b).terms.values():
                    assert coeff.is_constant(), (name, u0, coeff)
                    checked += 1
    assert checked > 540


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize(
    "factory, right, left",
    [
        (alg.dahca, "y", "x"),
        (alg.sdaha, "y", "xi"),
        (alg.trig_dahca, "epsv", "e"),
        (alg.trig_sdaha, "zeta", "e"),
    ],
)
def test_high_degree_power_products(factory, right, left, n):
    # Y^k * X^l for 1 <= k, l <= 6 equals the right-nested y*(y*(...*X^l))
    # and the left-nested ((Y^k*x)*x)..., well above the degree 3 that the
    # confluence probe reaches; same index and different index
    sig = factory(n)
    y = generator_element(sig, (right, 1))
    ys = [y**k for k in range(7)]
    for j in (1, n):
        x = generator_element(sig, (left, j))
        xs = [x**l for l in range(7)]
        for l in range(1, 7):
            from_right = xs[l]
            for k in range(1, 7):
                from_right = y * from_right
                assert from_right == ys[k] * xs[l], (k, l)
        for k in range(1, 7):
            from_left = ys[k]
            for l in range(1, 7):
                from_left = from_left * x
                assert from_left == ys[k] * xs[l], (k, l)


# SHA-256 over the JSON normal forms of seeded random products, one digest per
# (family, n): 150 pairs at n = 2, 3 and 40 at n = 4, degree bound 3.  Pinned
# before the slot-arithmetic engine, so any change of a normal form shows here.
PINNED_PRODUCT_DIGESTS = {
    ("sym", 2): "901dd824678aa023a8dec1197d71ec725321a95ae3a36e62155af5d16ec7fb49",
    ("sym", 3): "dd11e06d99a6aaba8018b6d95d2a73a3e20da569b675d6039a22a20352949cf8",
    ("sym", 4): "88e33af110163520a7d52f63976991901fda8dbaa263d22aa99b6124c1ba3bb8",
    ("cliffordsym", 2): "8867a772e83fcab00d0f20bc69645daecfa601a1ca16c5ba5faa23cfcc82f904",
    ("cliffordsym", 3): "8eaef692fcd286882ec76d33883bc467141ba56d05c3a57db977d8762d5c85d5",
    ("cliffordsym", 4): "f7b370b08d689708ccb2f628794d9ef8e1b454f8c291e3b7ae26aa7c79076007",
    ("spinsym", 2): "4b39d2eab508021602b874634cbba666acb224b0df176a37c5ca35280867f2c1",
    ("spinsym", 3): "e6e7665b646833ae251b819908f98aa3fb7f36804b6732bb1bd126c0d1a7b6d7",
    ("spinsym", 4): "79468dbbaffecb0515d288c2715365d83e94d9dc9e6ebb914cfd4212ab9a8b19",
    ("affinehc", 2): "c2e9f34f18b7a4ba5b00290d5f5264c844483e3f04459f188f2879ce9f18022c",
    ("affinehc", 3): "0900f5dbf07464ee0d05a1525a1f53ee124eda9480c125c243bbd46aab029703",
    ("affinehc", 4): "26232b37afa6800adc1a45ffcb633e522cb2585d6c2361538822c4f459f704cb",
    ("spinaffine", 2): "c4ba4fd382214c842df466c896a0b41279cac23f652e8b2f042846d4e69a6bb7",
    ("spinaffine", 3): "71c6ea061d2df811b3775ade99903edf699927e8df6465d5375482ca6013b8bd",
    ("spinaffine", 4): "6fed118011b22391a651ac6b3b33d0b3f1e315ad8d4cbf900e26e151e97cdd46",
    ("dahca", 2): "19f4b3d8229cc7cfbc5508c08ee1e9bb4e860d4ea4873f6e4ce390fb4724924f",
    ("dahca", 3): "ec39a86b015b3ef7501c48949df64e8389dcda053c7a155b6c4a50032eab3fa1",
    ("dahca", 4): "83dae74d07dc0816bf984b19227b7a196581814e0b591abbcb22e1205d9b1551",
    ("dahca_loc", 2): "e8cae5b563bea901f21ed02a83b6dbf11165d74db847510f33d0100ced3f8b8f",
    ("dahca_loc", 3): "e47da83aa6ea721a17ba27aeb3d483ddd657d7f5ff104a8729c54794d55520f4",
    ("dahca_loc", 4): "1933204878adbd1ef330d471a5f47331e218fb2545d13cdbc0276413339bd962",
    ("dahca_yfirst", 2): "5d98b92c1a04ecb99768e3aa34f73ad3c82adfa08a985100c1a9a3460f73144f",
    ("dahca_yfirst", 3): "4ae6b2d481699cef9aeb223b4c1d703e5e05e3f8c530a0a15dd244143c07a9e7",
    ("dahca_yfirst", 4): "4c81be575e5081fd4d7646f48993e13d21e336dd493196a843710618f370cbdd",
    ("sdaha", 2): "91506e4b017c24308ee055c313b80b4fcf3cf7649ed39f91856a1dc632266397",
    ("sdaha", 3): "09d9fdd497beb734d891599e1df718b315f1f8dacf7c9275baa9842bdbc7f627",
    ("sdaha", 4): "7d0d0c545c3faed9cb7ab237cfee72a4f27e53ee7c257fe7372f2abc723d2664",
    ("sdaha_loc", 2): "4096888c7f6eb1a8470a88147f5394831c8f0b52c541351f70f473f593eb7905",
    ("sdaha_loc", 3): "0d392af342df44a499c79d14d496cdddd11bcc6437d0ad15f1e4fff721cc4e79",
    ("sdaha_loc", 4): "6bbd4087282c8fa3219adc31a28019de151e26df2051a934ff0faa0faf28c041",
    ("sdaha_yfirst", 2): "49bc4c42e54ce492b71cfb643dc58247d02204466433038111c5140337d6d8e4",
    ("sdaha_yfirst", 3): "8a2505d5182bf7e66129bf6942d45da2d65f8ce5ae6630a517d30df93894cac4",
    ("sdaha_yfirst", 4): "79f146e84ce294686c4bc4ea12bec7afe2890e23e0bdc35d129482af55ebe29e",
    ("trigdahca", 2): "95676731fb5d25752bac7de5f75a1d6546852d1e09933c80fb0c0154599e0b35",
    ("trigdahca", 3): "4244124d6a6e87bfe2384255f104c6e94fc57d2bdbc94d6bcb322c4e81fed7d5",
    ("trigdahca", 4): "eaf01f82586c1473d0ffc9ac4dc627667971d0ca28805bc0c2bf29e0bdda6c7d",
    ("trigsdaha", 2): "072e1ffdb2abed172af4bf0b848baea2f7930d0817793c92b646dfc015e5bdbb",
    ("trigsdaha", 3): "fd4a627ea0fdd9bc9ac39527bfbfb54b9b134976a06a50fdf31fdbe323ae369f",
    ("trigsdaha", 4): "ce0eb5258cf05a3333e679d692e54694a81da45c2cbf59e43b351ca0780dd9ff",
}


def _product_digest(sig):
    rng = random.Random(sig.n)
    h = hashlib.sha256()
    for _ in range(150 if sig.n < 4 else 40):
        a, b = (monomial_element(sig, random_monomial(sig, rng, 3)) for _ in range(2))
        h.update(json.dumps(element_json(a * b), sort_keys=True).encode())
    return h.hexdigest()


@pytest.mark.parametrize("family", sorted(alg._LAYOUTS))
def test_pinned_product_digests(family):
    for n in (2, 3, 4):
        sig = alg._make(family, n, None)
        assert _product_digest(sig) == PINNED_PRODUCT_DIGESTS[family, n], (family, n)


def _random_unit_monomial(sig, rng):
    n = sig.n
    _, grp, cliff, _ = random_monomial(sig, rng, 0)
    left = tuple(rng.randint(-2, 2) for _ in range(n)) if sig.left_laurent else sig.one_mono[0]
    right = tuple(rng.randint(-2, 2) for _ in range(n)) if sig.right_laurent else sig.one_mono[3]
    return (left, grp, cliff, right)


@pytest.mark.parametrize("family", sorted(alg._LAYOUTS))
def test_unit_monomials_invert(family):
    # group elements, Clifford words and Laurent weights are units, and so
    # is every product of them; m**-1 is a two-sided inverse
    sig = alg._make(family, 3, None)
    rng = random.Random(29)
    one = Element.one(sig)
    for _ in range(25):
        m = monomial_element(sig, _random_unit_monomial(sig, rng), U + ONE)
        inv = m**-1
        assert m * inv == one and inv * m == one, (family, m)


def _is_cross_rule(sig, atom, mono):
    left, grp, _, _ = mono
    if atom[0] == "R" and any(left):
        return True
    if atom[0] == "G" and any(left):
        return sig.family in ("affinehc", "spinaffine")
    if atom[0] == "R" and grp != sig.one_mono[1]:
        return sig.family in ("trigdahca", "trigsdaha")
    return False


@pytest.mark.parametrize("family", sorted(alg._LAYOUTS))
def test_memo_holds_only_cross_rules(family):
    # moves inside a slot or between adjacent slots are index arithmetic
    # with a sign; only the cross rules are rewritten and memoized
    sig = alg._make(family, 3, None)
    report = confluence_probe(sig, trials=30, degree_bound=3, seed=41)
    assert report.ok, str(report)
    stray = [key for key in sig._norm_cache if not _is_cross_rule(sig, *key)]
    assert not stray, stray[:5]
    has_cross = sig.right_var is not None or sig.left_var in ("a", "b")
    assert bool(sig._norm_cache) == has_cross


def _laurent_monomial(sig, rng):
    # random_monomial draws only nonnegative right exponents; this one also
    # draws y_i^-1 and y_i^-2, so the negative-power R.L rule is reached
    left, grp, cliff, _ = random_monomial(sig, rng, 2)
    return (left, grp, cliff, tuple(rng.randint(-2, 2) for _ in range(sig.n)))


# SHA-256 over the JSON normal forms of the products ab below, one digest per
# (family, n), pinned before the cross rules were rewritten.
LAURENT_PRODUCT_DIGESTS = {
    ("dahca_loc", 2): "2e39185bceda93c3faf11a4f338a7edcf1a240391e1081a235c02cd679345268",
    ("dahca_loc", 3): "e9a1c6054386f8283defc6c67efdcb6e191527546325b940bca7a19c3873f452",
    ("sdaha_loc", 2): "13670221efcba77b082c169d884b065cbaa723e820edd70ce5b6b84e43a4fbee",
    ("sdaha_loc", 3): "2d4de7431de1da4ec5ae74013d53dcd6681b9804edb092a62a18ebbdaf34d4e7",
}


@pytest.mark.parametrize("family", ("dahca_loc", "sdaha_loc"))
def test_laurent_products_associate(family):
    for n in (2, 3):
        sig = alg._make(family, n, None)
        rng = random.Random(70 + n)
        h = hashlib.sha256()
        for _ in range(40):
            a, b, c = (monomial_element(sig, _laurent_monomial(sig, rng)) for _ in range(3))
            ab = a * b
            assert ab * c == a * (b * c), (family, n, element_str(a), element_str(b), element_str(c))
            h.update(json.dumps(element_json(ab), sort_keys=True).encode())
        assert h.hexdigest() == LAURENT_PRODUCT_DIGESTS[family, n], (family, n)


@pytest.mark.parametrize(
    "factory, g, v",
    [
        (alg.affine_hc, "s", "a"),
        (alg.spin_affine, "t", "b"),
        (alg.trig_dahca, "s", "epsv"),
        (alg.trig_sdaha, "t", "zeta"),
    ],
)
def test_affine_closed_crossing_matches_unit_letters(factory, g, v):
    # s_m v_i^k (v = a, b) and v_i^k s_m (v = epsv, zeta) cross in one step
    # by the closed sum over the power; the nested ((s_m v_i) v_i)... and
    # v_i (v_i (... s_m)) meet only the unit rule, one letter at a time;
    # i = m, m + 1 and a far index
    right = v in ("epsv", "zeta")
    sig = factory(3)
    for m, far in ((1, 3), (2, 1)):
        s = generator_element(sig, (g, m))
        for i in (m, m + 1, far):
            x = generator_element(sig, (v, i))
            nested = s
            for k in range(1, 9):
                nested = x * nested if right else nested * x
                assert (x**k * s if right else s * x**k) == nested, (m, i, k)


# products whose cross rules recursed once per letter when each letter of a
# power crossed on its own; (family, n, expression, number of terms)
DEEP_PRODUCTS = (
    # v_2^600 s_1 and the 600 words of each correction sum (one sum for b)
    ("affinehc", 3, "s1*a1^600", 1201),
    ("spinaffine", 3, "t1*b1^600", 601),
    ("dahca", 2, "y1*x1^600", 1201),
    ("sdaha", 2, "y1*xi1^600", 601),
    ("trigdahca", 2, "epsv(1)^600*s1", 1201),
    ("trigsdaha", 2, "zeta(1)^600*t1", 601),
    ("sdaha", 2, "y1^1100*xi1", 1101),
)


def test_affine_crossing_needs_no_deep_recursion():
    import sys

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        for family, n, expr, terms in DEEP_PRODUCTS:
            sig = alg._make.__wrapped__(family, n, None)
            assert len(parse_expression(expr, sig).terms) == terms, expr
    finally:
        sys.setrecursionlimit(limit)


def test_import_keeps_the_recursion_limit():
    import os
    import subprocess
    import sys

    import spinhecke

    code = (
        "import sys; before = sys.getrecursionlimit(); "
        "import spinhecke.cli; assert sys.getrecursionlimit() == before"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(spinhecke.__file__)))
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


# _norm_cache key counts of single products in a fresh signature; the cross
# rules, and so these counts, are fixed by the rewriting order
NORM_CACHE_KEYS = (
    ("trigdahca", 2, "epsv(1)^8*e(1)^8", 519),
    ("dahca", 2, "y1^8*x1^8", 799),
    ("affinehc", 4, "s(1,4)*a1^6", 1783),
)


@pytest.mark.parametrize("family, n, expr, keys", NORM_CACHE_KEYS)
def test_norm_cache_key_counts(family, n, expr, keys):
    sig = alg._make.__wrapped__(family, n, None)
    parse_expression(expr, sig)
    assert len(sig._norm_cache) == keys
    # every cross rule read its words from the per-signature table
    assert sig._rule_cache
    assert all(type(rules) is tuple for rules in sig._rule_cache.values())


def test_memoized_helpers_raise_every_time():
    for _ in range(2):
        with pytest.raises(ValueError, match="invalid transposition"):
            st.transposition(1, 1, 3)


def test_rule_words_belong_to_their_signature():
    # [y1, x2] = u T_12 = u (1 + c1 c2) s12, each signature with its own u:
    # warming one must not hand its rule words to another
    two = QOmega(2)
    sigs = (alg.dahca(3), alg.dahca(3, two), alg._make.__wrapped__("dahca", 3, two))
    for sig in sigs:
        y1, x2 = (generator_element(sig, tok) for tok in (("y", 1), ("x", 2)))
        u = sig.u_scalar
        t12 = element_from_terms(sig, [(u, (("s", 1),)), (u, (("c", 1), ("c", 2), ("s", 1)))])
        assert bracket(y1, x2) == t12, sig
        assert sig._rule_cache
    assert sigs[0].u_scalar == U and sigs[1].u_scalar != U


def _memo_tables(owner):
    return [v for k, v in vars(owner).items() if k.endswith(("_cache", "_moves"))]


def _warm_every_table():
    """Products in a Clifford, a spin and a tensor algebra, their texts, and
    a Dunkl module check; returns a digest of the normal forms."""
    h = hashlib.sha256()
    for sig, expr in (
        (alg.dahca(3), "(y1*c2*y2 + s1)^2*x1*x3"),
        (alg.sdaha(3), "(y1*y2 + t1)^2*xi1*xi3*t2"),
        (mo.tensor_with_clifford(alg.sdaha(2)), "y1*c1*t1*xi1*c2"),
    ):
        h.update(element_str(parse_expression(expr, sig)).encode())
    assert dk.verify_module("sdaha", dk.regular_spin(2), degree_bound=2).ok
    return h.hexdigest()


def test_clear_caches_empties_every_table():
    sig = alg.dahca(3)
    digest = _warm_every_table()
    warmed = (sig, alg.sdaha(3), mo.tensor_with_clifford(alg.sdaha(2)), dk.regular_spin(2))
    assert all(any(_memo_tables(o)) for o in warmed)
    owners = list(engine._MEMO_OWNERS)
    lru = (st.inverse, st.perm_parity, st.transposition, st.lehmer_word, st.spin_group,
           engine._plain_group_str, engine._spin_group_str)
    scalar_tables = (sc._MUL_CACHE, sc._ADD_CACHE, sc._NEG_CACHE, sc._RENDER_CACHE)
    assert all(fn.cache_info().currsize for fn in lru) and all(scalar_tables)
    clear_caches()
    assert not any(t for o in owners for t in _memo_tables(o))
    assert not any(fn.cache_info().currsize for fn in lru) and not any(scalar_tables)
    sg = st.spin_group(3)
    assert not sg._beta_cache and not sg._moves_cache and len(sg._K) == 1
    # interned scalars, signatures and modules survive, so equality still holds
    assert sc._INTERN and alg.dahca(3) is sig
    assert _warm_every_table() == digest


def test_signature_keeps_five_memo_tables():
    # cross rules, pair products, rule words and slot moves; a new table
    # must also join clear_memo
    five = {"_norm_cache", "_mul_cache", "_rule_cache", "_group_moves", "_cliff_moves"}
    _warm_every_table()
    for sig in (alg.dahca(3), alg.sdaha(3), alg.sdaha(2)):
        assert {k for k, v in vars(sig).items() if isinstance(v, dict)} == five, sig
    assert all(getattr(alg.dahca(3), k) for k in five)


def test_power_stops_squaring_after_the_top_bit(monkeypatch):
    sig = alg.dahca(3)
    e = parse_expression("x1+y2+s1", sig)
    expected = Element.one(sig)
    for _ in range(6):
        expected = expected * e
    calls = []
    mul = Element.__mul__

    def counted(a, b):
        calls.append(1)
        return mul(a, b)

    monkeypatch.setattr(Element, "__mul__", counted)
    assert e ** 6 == expected
    assert len(calls) == 4  # e^2, 1*e^2, e^4, e^2*e^4
    assert e ** 0 == Element.one(sig) and e ** 1 == e
    s = U + ONE
    assert s ** 6 == s * s * s * s * s * s and s ** 0 == ONE and s ** -2 == ONE / (s * s)
