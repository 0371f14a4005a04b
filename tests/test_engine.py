"""PBW normal forms, products, brackets, grading, and the relation suites."""

import random

import pytest

from spinhecke import algebras as alg
from spinhecke.engine import (
    AlgebraError,
    Element,
    bracket,
    confluence_probe,
    element_from_terms,
    generator_element,
    monomial_element,
    random_monomial,
    super_bracket,
    verify_relations,
)
from spinhecke.render import element_json, element_str
from spinhecke.scalars import ONE, QOmega

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
