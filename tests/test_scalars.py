"""Field arithmetic in Q(w)(u)."""

import random
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
