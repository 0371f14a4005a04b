"""The five isomorphism pairs, the rational <-> trigonometric maps, tensor
targets with Koszul signs, the distinguished image formulas, and the suffix
table of morphism application against a letter-by-letter oracle."""

import random
import sys

import pytest

from spinhecke import algebras as alg
from spinhecke import clifford_family as cf
from spinhecke import morphisms as mo
from spinhecke.engine import (
    AlgebraError,
    Element,
    element_from_terms,
    generator_element,
    monomial_element,
    random_monomial,
    verify_relations,
)
from spinhecke.exprparse import parse_expression
from spinhecke.scalars import ONE, Scalar, W
from spinhecke.structure import koszul_sign


def test_generator_images():
    phi = mo.named_morphism("Phi", 2)
    y1 = generator_element(phi.source, ("y", 1))
    assert mo.apply_morphism(phi, y1) == generator_element(phi.target, ("y", 1))
    x1 = generator_element(phi.source, ("x", 1))
    expected = (
        generator_element(phi.target, ("c", 1)) * generator_element(phi.target, ("xi", 1))
    ).scale(W)
    assert mo.apply_morphism(phi, x1) == expected
    psi = mo.named_morphism("Psi", 2)
    t1 = generator_element(psi.source, ("t", 1))
    img = mo.apply_morphism(psi, t1)
    expected = element_from_terms(
        psi.target,
        [(ONE / W, (("c", 2), ("s", 1))), (-(ONE / W), (("c", 1), ("s", 1)))],
    )
    assert img == expected


def test_koszul_multiplication_in_tensor_target():
    tsig = mo.tensor_with_clifford(alg.sdaha(2))
    c1 = generator_element(tsig, ("c", 1))
    xi1 = generator_element(tsig, ("xi", 1))
    y1 = generator_element(tsig, ("y", 1))
    assert c1 * xi1 == -(xi1 * c1)
    assert c1 * y1 == y1 * c1
    assert (c1 * c1) == Element.one(tsig)


def test_tensor_relations_hold():
    for inner in (alg.spin_sym(3), alg.spin_affine(3), alg.sdaha(2), alg.trig_sdaha(2)):
        report = verify_relations(mo.tensor_with_clifford(inner))
        assert report.ok, str(report)


def test_tensor_normal_form_matches_products():
    # normalize moves each c to the front with its Koszul sign and straightens
    # the inner word once; mul_mono multiplies generator by generator
    rng = random.Random(31)
    for inner in (alg.sdaha(3), alg.spin_affine(3)):
        tsig = mo.tensor_with_clifford(inner)
        tokens = tsig.generator_tokens()
        for _ in range(40):
            word = tuple(rng.choice(tokens) for _ in range(rng.randint(0, 6)))
            expected = Element.one(tsig)
            for tok in word:
                expected = expected * generator_element(tsig, tok)
            assert element_from_terms(tsig, [(ONE, word)]) == expected, (inner, word)


def test_homomorphisms_forward():
    for name in ("PhiFin", "PhiHat", "Phi", "PhiTr"):
        for n in (2, 3):
            report = mo.check_homomorphism(mo.named_morphism(name, n))
            assert report.ok, f"{name} n={n}\n{report}"


def test_homomorphisms_backward():
    for name in ("PsiFin", "PsiHat", "Psi", "PsiTr"):
        for n in (2, 3):
            report = mo.check_homomorphism(mo.named_morphism(name, n))
            assert report.ok, f"{name} n={n}\n{report}"


def test_rational_trig_homomorphisms():
    for name in ("Iota", "IotaLoc", "J", "IotaMinus", "IotaMinusLoc", "JMinus"):
        for n in (2, 3):
            report = mo.check_homomorphism(mo.named_morphism(name, n))
            assert report.ok, f"{name} n={n}\n{report}"


def test_homomorphisms_full_set_n4():
    for name in mo.MORPHISM_NAMES:
        report = mo.check_homomorphism(mo.named_morphism(name, 4))
        assert report.ok, f"{name} n=4\n{report}"


def test_inverse_pairs():
    for n in (2, 3, 4):
        for label, f, g, fb in mo.inverse_pairs(n):
            report = mo.check_inverse_pair(f, g, fb)
            assert report.ok, f"{label} n={n}\n{report}"


def test_iota_examples():
    iota = mo.named_morphism("Iota", 2)
    y1 = generator_element(iota.source, ("y", 1))
    assert mo.apply_morphism(iota, y1) == generator_element(iota.target, ("e", 1))
    x1 = generator_element(iota.source, ("x", 1))
    expected = element_from_terms(iota.target, [(ONE, (("einv", 1), ("epsv", 1)))])
    assert mo.apply_morphism(iota, x1) == expected


def test_j_examples():
    j = mo.named_morphism("J", 2)
    ev1 = generator_element(j.source, ("epsv", 1))
    expected = element_from_terms(j.target, [(ONE, (("y", 1), ("x", 1)))])
    assert mo.apply_morphism(j, ev1) == expected
    # j(ev_2) = y_2 x_2 + u(1 - c_2 c_1)s_12
    ev2 = generator_element(j.source, ("epsv", 2))
    u = j.target.u_scalar
    expected = element_from_terms(
        j.target,
        [
            (ONE, (("y", 2), ("x", 2))),
            (u, (("sij", 1, 2),)),
            (-u, (("c", 2), ("c", 1), ("sij", 1, 2))),
        ],
    )
    assert mo.apply_morphism(j, ev2) == expected


def test_j_minus_examples():
    jm = mo.named_morphism("JMinus", 2)
    z2 = generator_element(jm.source, ("zeta", 2))
    u = jm.target.u_scalar
    expected = element_from_terms(
        jm.target,
        [(ONE, (("y", 2), ("xi", 2))), (u, (("oddtr", 1, 2),))],
    )
    assert mo.apply_morphism(jm, z2) == expected
    im = mo.named_morphism("IotaMinus", 2)
    xi2 = generator_element(im.source, ("xi", 2))
    expected = element_from_terms(
        im.target,
        [(ONE, (("einv", 2), ("zeta", 2))), (-u, (("einv", 2), ("oddtr", 1, 2)))],
    )
    assert mo.apply_morphism(im, xi2) == expected


def test_distinguished_images():
    for n in (2, 3):
        report = cf.check_distinguished_images(n)
        assert report.ok, str(report)


def test_compatibility_square():
    for n in (2, 3):
        report = mo.compatibility_square(n)
        assert report.ok, str(report)


def test_parity_preserved_random():
    rng = random.Random(13)
    for name in ("Phi", "PhiHat", "PhiTr", "Iota"):
        m = mo.named_morphism(name, 2)
        for _ in range(40):
            mono = random_monomial(m.source, rng, 2)
            elem = monomial_element(m.source, mono)
            img = mo.apply_morphism(m, elem)
            if img.is_zero:
                continue
            assert img.parity() == elem.parity(), (name, mono)


def test_apply_is_multiplicative_random():
    rng = random.Random(31)
    phi = mo.named_morphism("Phi", 2)
    for _ in range(40):
        a = monomial_element(phi.source, random_monomial(phi.source, rng, 2))
        b = monomial_element(phi.source, random_monomial(phi.source, rng, 2))
        assert mo.apply_morphism(phi, a * b) == mo.apply_morphism(phi, a) * mo.apply_morphism(
            phi, b
        )


def test_koszul_sign_against_tensor():
    # the tensor product multiplication realizes (-1)^{|b'||c|}
    tsig = mo.tensor_with_clifford(alg.spin_sym(2))
    t1 = generator_element(tsig, ("t", 1))
    c2 = generator_element(tsig, ("c", 2))
    prod = t1 * c2
    flipped = c2 * t1
    sign = koszul_sign(1, 1)
    assert prod == flipped.scale(ONE if sign > 0 else -ONE)


def _oracle_image(m, coeff, word) -> Element:
    """coeff * m(word) with no suffix table: every token is spelled in the
    source's letters, with its sign, and the letters' images are multiplied
    one at a time from the left."""
    img, sign = Element.one(m.target), 1
    for tok in word:
        if tok in m.images:
            letters = (tok,)
        else:
            sgn, atoms = m.source.atomize(tok)
            sign *= sgn
            letters = m.source.letters(atoms)
        for g in letters:
            img = img * m.images[g]
    return img.scale(coeff if sign > 0 else -coeff)


def _oracle(m, terms) -> Element:
    out = Element.zero(m.target)
    for coeff, word in terms:
        out = out + _oracle_image(m, coeff, word)
    return out


def _random_source_element(m, rng) -> Element:
    """A few random generator words with small coefficients, normalized."""
    tokens = m.source.generator_tokens()
    terms = [(Scalar.from_rational(rng.choice((1, -1, 2, -3))),
              tuple(rng.choice(tokens) for _ in range(rng.randint(0, 5))))
             for _ in range(rng.randint(1, 3))]
    return element_from_terms(m.source, terms)


@pytest.mark.parametrize("n", (2, 3))
@pytest.mark.parametrize("name", mo.MORPHISM_NAMES)
def test_suffix_table_matches_the_letter_by_letter_oracle(name, n):
    # one table for all relation words, as in check_homomorphism: each word,
    # and each side as a whole, maps to what the oracle multiplies out
    m = mo.named_morphism(name, n)
    table: dict = {}
    for _, lhs, rhs in m.source.relations():
        for side in (lhs, rhs):
            for coeff, word in side:
                assert mo._apply_to_terms(m, [(coeff, word)], table) == (
                    _oracle_image(m, coeff, word)), (name, word)
            assert mo._apply_to_terms(m, side, table) == _oracle(m, side)
    rng = random.Random(f"{name}{n}")
    for _ in range(12):
        a = _random_source_element(m, rng)
        terms = [(c, m.source.mono_tokens(mono)) for mono, c in a.terms.items()]
        assert mo.apply_morphism(m, a) == _oracle(m, terms), (name, a)


@pytest.mark.parametrize("name", ("PhiTr", "PsiTr", "J", "Psi"))
def test_suffix_table_holds_each_suffix_once(name):
    # one entry per distinct letter and per distinct suffix of two or more
    # letters of the relation words: a suffix is found again, never rebuilt
    m = mo.named_morphism(name, 3)
    table: dict = {}
    words = []
    for _, lhs, rhs in m.source.relations():
        for side in (lhs, rhs):
            mo._apply_to_terms(m, side, table)
            words += [word for _, word in side]
    letters = {tok for word in words for tok in word}
    suffixes = {word[i:] for word in words for i in range(len(word) - 1)}
    assert len(table) == len(letters) + len(suffixes)


def test_unshared_table_keeps_no_suffix_of_the_last_word():
    # apply_morphism's table dies with the call, so the suffix images of its
    # last word are dropped as they are used; earlier words keep theirs
    m = mo.named_morphism("J", 2)
    e, eps = ("einv", 1), ("epsv", 1)
    first, last = (eps, e, e), (e,) * 30 + (eps,)
    table: dict = {}
    img = mo._apply_to_terms(m, [(ONE, first), (ONE, last)], table, shared=False)
    assert img == _oracle(m, [(ONE, first), (ONE, last)])
    assert len(table) == 2 + 2


def test_oracle_words_include_signed_composite_tokens():
    # the oracle test covers sij, E and oddtr tokens, and oddtr tokens of
    # both signs
    seen = set()
    for name in mo.MORPHISM_NAMES:
        m = mo.named_morphism(name, 2)
        for _, lhs, rhs in m.source.relations():
            for _, word in lhs + rhs:
                seen.update((tok[0], m.source.atomize(tok)[0])
                            for tok in word if tok not in m.images)
    assert {("sij", 1), ("E", 1), ("oddtr", 1), ("oddtr", -1)} <= seen


def test_long_words_map_at_the_default_recursion_limit():
    # a 1,201-letter word walks its suffixes in a loop, not by recursion
    phi = mo.named_morphism("Phi", 2)
    a = parse_expression("x1*y1^1200", phi.source)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        img = mo.apply_morphism(phi, a)
    finally:
        sys.setrecursionlimit(limit)
    expected = element_from_terms(phi.target, [(W, (("c", 1), ("xi", 1)) + (("y", 1),) * 1200)])
    assert img == expected


def test_words_over_the_letter_bound_are_refused():
    phi = mo.named_morphism("Phi", 2)
    y = generator_element(phi.source, ("y", 1))
    assert mo.apply_morphism(phi, y ** mo.MAX_WORD_LETTERS) == (
        generator_element(phi.target, ("y", 1)) ** mo.MAX_WORD_LETTERS)
    with pytest.raises(AlgebraError, match="^Phi maps a monomial of 10001 letters; "
                                           "the limit is 10000$"):
        mo.apply_morphism(phi, y ** (mo.MAX_WORD_LETTERS + 1))
