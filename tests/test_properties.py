"""Property tests: parser round trip, field axioms up to identity, division
by y_i and its powers in the localized algebras, word insertion into a
filled dict, the lone-term walk against the stage path, one-letter powers
against repeated products, inverses in the Clifford tensor algebras, word
lengths against spelled words, and the CLI's JSON writer."""

import functools
import json
import operator
import random

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402
from spinhecke import algebras as alg  # noqa: E402
from spinhecke import cli  # noqa: E402
from spinhecke.engine import (  # noqa: E402
    AlgebraError,
    Element,
    element_from_terms,
    generator_element,
    monomial_element,
    random_monomial,
)
from spinhecke.morphisms import tensor_with_clifford  # noqa: E402
from spinhecke.exprparse import parse_expression  # noqa: E402
from spinhecke.render import element_str  # noqa: E402
from spinhecke.scalars import ONE, QOmega, Scalar, ZERO, add_term  # noqa: E402

# Derandomized and without an example database, so a run is repeatable and
# leaves no files behind.
_SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)


@_SETTINGS
@given(name=st.sampled_from(alg.ALGEBRA_NAMES), seed=st.integers(0, 2**32 - 1))
def test_render_parse_round_trip_of_products(name, seed):
    sig = alg.by_name(name, 3)
    rng = random.Random(seed)
    a = monomial_element(sig, random_monomial(sig, rng, 2))
    b = monomial_element(sig, random_monomial(sig, rng, 2))
    e = a * b
    assert parse_expression(element_str(e), sig) == e


_fractions = st.fractions(-4, 4, max_denominator=3)
_qomegas = st.builds(QOmega, _fractions, _fractions)
_polys = st.lists(_qomegas, min_size=1, max_size=3).map(tuple)
_scalars = st.builds(
    lambda num, den: Scalar(num, den if any(den) else (QOmega(1),)),
    _polys,
    _polys,
)


@_SETTINGS
@given(a=_scalars, b=_scalars, c=_scalars)
def test_field_axioms_hold_as_identity(a, b, c):
    assert (a + b) + c is a + (b + c)
    assert a * b is b * a
    assert a * (b + c) is a * b + a * c
    if a:
        assert a * (ONE / a) is ONE


@_SETTINGS
@given(
    factory=st.sampled_from((alg.dahca_localized, alg.sdaha_localized)),
    n=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_y_divides_laurent_monomials(factory, n, seed):
    # y_i^-1 (y_i M) = M and y_i (y_i^-1 M) = M, M of left degree <= 3 with
    # right exponents in -2..2
    sig = factory(n)
    rng = random.Random(seed)
    left, grp, cliff, _ = random_monomial(sig, rng, 3)
    m = monomial_element(sig, (left, grp, cliff, tuple(rng.randint(-2, 2) for _ in range(n))))
    i = rng.randint(1, n)
    y, yinv = (generator_element(sig, (name, i)) for name in ("y", "yinv"))
    assert yinv * (y * m) == m
    assert y * (yinv * m) == m


@settings(_SETTINGS, max_examples=120)
@given(
    factory=st.sampled_from((alg.dahca_localized, alg.sdaha_localized)),
    n=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
)
def test_y_inverse_powers_match_the_central_shift(factory, n, seed):
    # Y = y_1...y_n is central and even, with its y's in the right slot, so
    # Y^-k N subtracts k from every right exponent of N, and
    # y_i^-k M = Y^-k (prod_{j != i} y_j^k M): the right side takes only
    # positive products and the shift, never a division
    sig = factory(n)
    rng = random.Random(seed)
    left, grp, cliff, _ = random_monomial(sig, rng, 3)
    m = monomial_element(sig, (left, grp, cliff, tuple(rng.randint(-2, 2) for _ in range(n))))
    i, k = rng.randint(1, n), rng.randint(1, 3)
    quotient = generator_element(sig, ("yinv", i)) ** k * m
    for j in range(1, n + 1):
        if j != i:
            m = generator_element(sig, ("y", j)) ** k * m
    shifted = {(l, g, c, tuple(e - k for e in r)): v for (l, g, c, r), v in m.terms.items()}
    assert quotient.terms == shifted


_PROBE_ALGEBRAS = ("DaHCa", "SDaHa", "TrigDaHCa", "TrigSDaHa", "AffineHC")


@_SETTINGS
@given(name=st.sampled_from(_PROBE_ALGEBRAS), n=st.sampled_from((2, 3)), seed=st.integers(0, 2**32 - 1))
def test_insert_word_adds_into_a_filled_dict(name, n, seed):
    # word * terms added into a filled dict gives the filled terms plus the
    # product computed on its own; filled with the negated product, nothing
    sig = alg.by_name(name, n)
    rng = random.Random(seed)
    word = sig.mono_atoms(random_monomial(sig, rng, 2))
    terms = {random_monomial(sig, rng, 2): Scalar.from_rational(k) for k in (1, -2)}
    product = sig._insert_word(word, terms.items())
    assert product  # a basis monomial times a nonzero element is not zero
    # the filled dict meets some product terms and some others
    filled = {m: Scalar.from_rational(3) for m in list(product)[::2]}
    filled.update((random_monomial(sig, rng, 2), sig.u_scalar) for _ in range(2))
    expected = dict(filled)
    for m, c in product.items():
        add_term(expected, m, c)
    out = dict(filled)
    assert sig._insert_word(word, terms.items(), out) is out
    assert out == expected
    assert ZERO not in out.values()
    negated = {m: -c for m, c in product.items()}
    assert sig._insert_word(word, terms.items(), negated) == {}


def _laurent_monomial(sig, rng, degree_bound):
    """A random monomial, with right exponents in -2..2 in the localized forms."""
    left, grp, cliff, right = random_monomial(sig, rng, degree_bound)
    if sig.right_laurent:
        right = tuple(rng.randint(-2, 2) for _ in right)
    return (left, grp, cliff, right)


_WALK_FAMILIES = ("dahca", "sdaha", "trigdahca", "trigsdaha", "affinehc", "dahca_loc", "sdaha_loc")


@_SETTINGS
@given(
    family=st.sampled_from(_WALK_FAMILIES),
    n=st.sampled_from((2, 3)),
    rule_word=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lone_term_walk_matches_the_stage_path(family, n, rule_word, seed):
    # _insert_term moves one term without stage dicts; it must add exactly
    # what _insert_word adds for the same term given as an iterator, into an
    # empty dict and into a filled one.  The word is a monomial's atoms or a
    # cross rule's word from the signature's rule table.
    sig = alg._make.__wrapped__(family, n, None)  # fresh memo tables
    rng = random.Random(seed)
    if rule_word:
        while not sig._rule_cache:
            sig.mul_mono(_laurent_monomial(sig, rng, 3), _laurent_monomial(sig, rng, 3))
        _, rules = rng.choice(sorted(sig._rule_cache.items()))
        _, word = rng.choice(rules)
    else:
        word = sig.mono_atoms(_laurent_monomial(sig, rng, 3))
    mono = _laurent_monomial(sig, rng, 2)
    c = rng.choice((ONE, -ONE, Scalar.from_rational(-2), sig.u_scalar))
    product = sig._insert_word(word, iter([(mono, c)]))
    assert sig._insert_term(word, mono, c, {}) == product
    filled = {m: Scalar.from_rational(3) for m in list(product)[::2]}
    filled[_laurent_monomial(sig, rng, 2)] = sig.u_scalar
    expected = dict(filled)
    for m, v in product.items():
        add_term(expected, m, v)
    out = dict(filled)
    assert sig._insert_term(word, mono, c, out) is out
    assert out == expected


def _product(factors, sig):
    return functools.reduce(operator.mul, factors, Element.one(sig))


# (family, letters of one slot atom): x, y, a, b, xi and zeta on either
# side, epsv, and e and einv letters that make one Laurent weight
_LETTERS = (
    ("dahca", ("x",)), ("dahca", ("y",)), ("dahca_yfirst", ("x",)), ("affinehc", ("a",)),
    ("spinaffine", ("b",)), ("sdaha", ("xi",)), ("sdaha", ("y",)), ("sdaha_yfirst", ("xi",)),
    ("trigdahca", ("epsv",)), ("trigdahca", ("e",)), ("trigdahca", ("einv",)),
    ("trigdahca", ("e", "einv")), ("trigsdaha", ("zeta",)), ("trigsdaha", ("einv", "e")),
    ("dahca_loc", ("yinv",)), ("sdaha_loc", ("yinv",)),
)


@_SETTINGS
@given(
    letters=st.sampled_from(_LETTERS),
    n=st.sampled_from((2, 3)),
    seed=st.integers(0, 2**32 - 1),
    k=st.integers(0, 7),
)
def test_one_letter_powers_match_repeated_products(letters, n, seed, k):
    # a power of one slot atom, such as xi2^3 or e(1)^2*einv(2), is one move;
    # it must equal the k-fold product, odd letters included
    family, kinds = letters
    sig = alg._make(family, n, None)
    rng = random.Random(seed)
    indices = rng.sample(range(1, n + 1), len(kinds))
    factors = [generator_element(sig, (kind, i)) for kind, i in zip(kinds, indices)]
    e = rng.randint(1, 3)
    base = _product(factors * e, sig)
    assert base ** k == _product([base] * k, sig)
    if kinds == ("yinv",):
        # a negative power of y, or of y^-e, inverts the letter first
        y = generator_element(sig, ("y", indices[0]))
        assert y ** -k == _product(factors * k, sig)
        assert base ** -k == _product([y] * (e * k), sig)


@pytest.mark.parametrize("inner, letter", [
    (alg.sdaha(2), "y"), (alg.sdaha(2), "xi"), (alg.spin_affine(3), "b"),
])
def test_tensor_powers_match_repeated_products(inner, letter):
    # a TensorSignature has no slot atoms, so its powers keep square and
    # multiply; (l1)^k and (c1*l1)^k must equal their repeated products
    tsig = tensor_with_clifford(inner)
    g = generator_element(tsig, (letter, 1))
    cg = generator_element(tsig, ("c", 1)) * g
    for base in (g, cg):
        for k in range(8):
            assert base ** k == _product([base] * k, tsig)


@pytest.mark.parametrize("inner", [alg.sdaha(2), alg.spin_affine(3)], ids=repr)
def test_tensor_letters_invert(inner):
    # in C (x) A the c_i and t_i are units, and their inverses come from the
    # inner algebra's inverse word and the Clifford word; the polynomial
    # letters are not units
    tsig = tensor_with_clifford(inner)
    one = Element.one(tsig)
    units = 0
    for tok in tsig.generator_tokens():
        x = generator_element(tsig, tok)
        if tok[0] in ("c", "t"):
            inv = x ** -1
            assert inv * x == one and x * inv == one, tok
            units += 1
        else:
            with pytest.raises(AlgebraError, match="^monomial is not invertible in this algebra$"):
                x ** -1
    assert units == 2 * tsig.n - 1


@_SETTINGS
@given(
    inner=st.sampled_from((alg.sdaha(2), alg.spin_affine(3), alg.sdaha_localized(2))),
    seed=st.integers(0, 2**32 - 1),
)
def test_tensor_unit_words_invert(inner, seed):
    # a word in the units of C (x) A (c_i, t_i, and y_i^+-1 in the localized
    # form) is one signed monomial, and its -1 and -k powers invert it
    tsig = tensor_with_clifford(inner)
    units = [tok for tok in tsig.generator_tokens() if tok[0] in ("c", "t", "y", "yinv")]
    if not inner.right_laurent:
        units = [tok for tok in units if tok[0] in ("c", "t")]
    rng = random.Random(seed)
    word = tuple(rng.choice(units) for _ in range(rng.randint(0, 6)))
    x = element_from_terms(tsig, [(ONE, word)])
    one = Element.one(tsig)
    assert x ** -1 * x == one and x * x ** -1 == one
    k = rng.randint(2, 3)
    assert x ** -k * x ** k == one


@_SETTINGS
@given(name=st.sampled_from(alg.ALGEBRA_NAMES), n=st.sampled_from((2, 3)),
       seed=st.integers(0, 2**32 - 1))
def test_word_length_counts_the_spelled_letters(name, n, seed):
    # the bound on mapped words reads word_length before anything is spelled
    sig = alg.by_name(name, n)
    rng = random.Random(seed)
    mono = random_monomial(sig, rng, 4)
    assert sig.word_length(mono) == len(sig.mono_tokens(mono))
    if not sig.has_clifford:
        tsig = tensor_with_clifford(sig)
        tmono = (tuple(rng.randint(0, 1) for _ in range(n)), mono)
        assert tsig.word_length(tmono) == len(tsig.mono_tokens(tmono))


_json_text = st.text(st.sampled_from('"\\\x00\x1f\n\t\x7f aZ\u00e9\u2297') | st.characters())
_json_leaves = (st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64)
                | st.integers(max_value=-2**64) | _json_text)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: (st.lists(inner, max_size=4) | st.tuples(inner, inner)
                   | st.dictionaries(_json_text, inner, max_size=5)),
    max_leaves=30,
)


@_SETTINGS
@given(obj=_json_values)
def test_json_writer_matches_json_dumps(obj):
    # byte for byte the json.dumps call the CLI made before: sorted keys,
    # ASCII escapes, one-space indent, tuples as lists, {} and [] when empty
    expected = json.dumps(obj, sort_keys=True, separators=(",", ": "), indent=1)
    assert cli._json(obj) == expected
