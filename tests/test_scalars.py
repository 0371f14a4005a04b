"""Field arithmetic in Q(w)(u)."""

import random
import sys
import threading
from fractions import Fraction

import pytest

from spinhecke.scalars import (
    ONE,
    U,
    UINV,
    W,
    ZERO,
    PoleError,
    QOmega,
    Scalar,
    add_term,
)


def test_omega_squares_to_minus_two():
    assert W * W == Scalar.from_rational(-2)


def test_u_times_u_inverse_is_one():
    assert U * UINV == ONE


def test_inverse_of_omega():
    # solve (a + b*w)*w = 1 by hand: a = 0, b = -1/2
    inv = ONE / W
    assert inv == Scalar.from_qomega(QOmega(0, Fraction(-1, 2)))
    assert inv * W == ONE


def test_eval_examples():
    assert (U + ONE).eval(QOmega(0)) == QOmega(1)
    with pytest.raises(PoleError):
        UINV.eval(QOmega(0))
    reduced = (U * U - ONE) / (U - ONE)
    assert reduced.render() == "u + 1"
    assert reduced.eval(QOmega(1)) == QOmega(2)


def test_pole_error_names_denominator():
    with pytest.raises(PoleError, match="u"):
        (ONE / (U - ONE)).eval(QOmega(1))


def _random_qomega(rng):
    return QOmega(
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
        Fraction(rng.randint(-4, 4), rng.randint(1, 3)),
    )


def _random_scalar(rng):
    num = tuple(_random_qomega(rng) for _ in range(rng.randint(1, 3)))
    den = tuple(_random_qomega(rng) for _ in range(rng.randint(1, 3)))
    if not any(den):
        den = (QOmega(1),)
    return Scalar(num, den)


def test_field_axioms_random():
    rng = random.Random(20260808)
    for _ in range(1000):
        a, b, c = (_random_scalar(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert a * b == b * a
        if not a.is_zero:
            assert a * (ONE / a) == ONE


def test_canonical_form_random():
    rng = random.Random(11)
    for _ in range(300):
        a = _random_scalar(rng)
        assert (a - a) == ZERO
        assert (a - a).render() == "0"
        b = _random_scalar(rng)
        if not b.is_zero:
            assert (a / b) * b == a


def test_monic_denominator_invariant():
    rng = random.Random(5)
    for _ in range(200):
        a = _random_scalar(rng)
        assert a.den[-1] == QOmega(1)


def test_render_atom_wrapping():
    s = Scalar.from_qomega(QOmega(1, 2))
    assert s.render() == "1 + 2*w"
    assert s.render(atom=True) == "(1 + 2*w)"
    assert ((Scalar.from_qomega(QOmega(1, 2))) / U).render() == "(1 + 2*w)/u"
    assert (-U).render() == "-u"


def test_powers():
    assert U ** 3 == U * U * U
    assert U ** -2 == UINV * UINV
    assert (U + ONE) ** 0 == ONE


# -- interning: one object per value --------------------------------------------

def test_unreduced_pair_is_interned_value():
    q = QOmega
    assert (U * U - ONE) / (U - ONE) is U + ONE
    assert Scalar((q(-1), q(0), q(1)), (q(-1), q(1))) is U + ONE
    # a scaled pair with a trailing zero in the denominator
    assert Scalar((q(2), q(2)), (q(2), q(0))) is U + ONE
    assert Scalar((q(0), q(0), q(3)), (q(0), q(3))) is U
    assert Scalar((), (q(5),)) is ZERO


def test_identity_of_arithmetic_results():
    assert U * UINV is ONE
    assert W * W is Scalar.from_rational(-2)
    assert -(-U) is U
    assert U ** -2 is UINV * UINV
    rng = random.Random(404)
    for _ in range(300):
        a = _random_scalar(rng)
        assert a - a is ZERO
        assert a + (-a) is ZERO
        assert (a is ZERO) == a.is_zero == (not a)


def test_stored_forms_are_canonical():
    # every construction path, re-reduced from its stored pair, gives itself
    rng = random.Random(77)
    made = [Scalar.from_qomega(QOmega(Fraction(3, 4), -2)), U ** 3, UINV ** 2]
    for _ in range(200):
        a, b = _random_scalar(rng), _random_scalar(rng)
        made += [a + b, a - b, a * b, -a]
        if b:
            made.append(a / b)
    for s in made:
        assert not s.num or s.num[-1]
        assert s.den[-1] == QOmega(1)
        assert Scalar(s.num, s.den) is s


def test_qomega_fraction_api():
    x = QOmega(Fraction(1, 2), Fraction(-1, 3))
    assert (x.a, x.b) == (Fraction(1, 2), Fraction(-1, 3))
    assert x.render() == "1/2 - 1/3*w"
    assert x.render(atom=True) == "(1/2 - 1/3*w)"
    assert repr(x) == "QOmega(1/2 - 1/3*w)"
    by_arith = QOmega(1) / QOmega(2) - QOmega(0, 1) / QOmega(3)
    assert by_arith == x
    assert hash(by_arith) == hash(x)
    assert QOmega(Fraction(4, 2), 0) == QOmega(2)
    assert (QOmega(2).a, QOmega(2).b) == (Fraction(2), Fraction(0))
    with pytest.raises(AttributeError):
        x.a = 1


def test_qomega_hash_consistent_with_eq():
    rng = random.Random(31)
    vals = [_random_qomega(rng) for _ in range(200)]
    vals += [v * QOmega(3) / QOmega(3) for v in vals[:50]]
    vals += [QOmega(v.a, v.b) for v in vals[:50]]
    for x in vals:
        for y in vals[:60]:
            if x == y:
                assert hash(x) == hash(y)
            assert (x == y) == ((x.a, x.b) == (y.a, y.b))


def test_interning_across_threads():
    # threads that build the same new values must all get the same objects
    rng = random.Random(90210)
    pairs = [
        (
            tuple(QOmega(rng.randint(10**6, 10**7), rng.randint(1, 99)) for _ in range(3)),
            (QOmega(rng.randint(10**6, 10**7)), QOmega(1)),
        )
        for _ in range(2000)
    ]
    results = [None] * 8

    def build(slot):
        results[slot] = [Scalar(num, den) for num, den in pairs]

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(k,)) for k in range(len(results))]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    for built in zip(*results):
        assert all(s is built[0] for s in built)


def test_add_term_drops_cancelled_keys():
    # Scalar coefficients: a term that cancels leaves the map, others stay
    acc = {}
    add_term(acc, "a", U)
    add_term(acc, "b", ONE)
    add_term(acc, "a", -U)
    assert acc == {"b": ONE}
    add_term(acc, "c", ZERO)
    assert "c" not in acc
    add_term(acc, "b", W * W)  # 1 + (-2)
    assert acc["b"] is Scalar.from_rational(-1)
    # int coefficients, as in the integer Clifford model
    ints = {}
    add_term(ints, "a", 3)
    add_term(ints, "b", 0)
    add_term(ints, "a", -3)
    assert ints == {}
    add_term(ints, "a", -2)
    assert ints == {"a": -2}
    # QOmega coefficients, as in kappa_table
    qs = {}
    add_term(qs, "a", QOmega(1, 2))
    add_term(qs, "a", QOmega(-1, -2))
    assert qs == {}
