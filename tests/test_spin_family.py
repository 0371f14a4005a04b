"""Odd Jucys-Murphy elements, the anticommuting family, odd intertwiners,
and the spin-side embedding and center checks."""

import random

import pytest

from spinhecke import algebras as alg
from spinhecke import spin_family as sf
from spinhecke.engine import (
    AlgebraError,
    Element,
    bracket,
    element_from_terms,
    generator_element,
    super_bracket,
)
from spinhecke.render import element_str
from spinhecke.scalars import ONE, U, QOmega, Scalar


def test_odd_jm_base_cases():
    s2 = alg.sdaha(2)
    assert sf.odd_jm(1, s2).is_zero
    assert element_str(sf.odd_jm(2, s2)) == "t1"


def test_odd_jm_anticommute():
    for sig in (alg.spin_sym(4), alg.spin_affine(3), alg.sdaha(3)):
        ms = [sf.odd_jm(i, sig) for i in range(1, sig.n + 1)]
        for i, a in enumerate(ms):
            for j, b in enumerate(ms):
                if i != j:
                    assert super_bracket(a, b, plus=True).is_zero


def test_frak_z_identities():
    for n in (2, 3):
        sig = alg.sdaha(n)
        fz = {i: sf.frak_z(i, sig) for i in range(1, n + 1)}
        xis = {i: generator_element(sig, ("xi", i)) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i == j:
                    continue
                assert super_bracket(fz[i], fz[j], plus=True).is_zero
                lhs = super_bracket(xis[i], fz[j], plus=True) + super_bracket(
                    xis[j], fz[i], plus=True
                )
                assert lhs.is_zero


def test_frak_z_hecke_identity():
    # (alpha xi_{i+1} + z_{i+1}) t_i + t_i (alpha xi_i + z_i) = 1
    for alpha in (Scalar.from_rational(0), ONE, U):
        sig = alg.sdaha(3)
        one = Element.one(sig)
        for i in (1, 2):
            ti = generator_element(sig, ("t", i))
            top = generator_element(sig, ("xi", i + 1)).scale(alpha) + sf.frak_z(i + 1, sig)
            bot = generator_element(sig, ("xi", i)).scale(alpha) + sf.frak_z(i, sig)
            assert top * ti + ti * bot == one


def test_frak_z_requires_nonzero_u():
    with pytest.raises(AlgebraError):
        sf.frak_z(1, alg.sdaha(2, QOmega(0)))


def test_psi_square_closed_form():
    sig = alg.spin_affine(2)
    psi1 = sf.intertwiner_psi(1, sig)
    b1, b2 = (generator_element(sig, ("b", i)) for i in (1, 2))
    expected = b1 * b1 + b2 * b2 - (b1 * b1 - b2 * b2) ** 2
    assert psi1 * psi1 == expected


def test_psi_braid_and_anticommutation():
    sig3 = alg.spin_affine(3)
    p1, p2 = sf.intertwiner_psi(1, sig3), sf.intertwiner_psi(2, sig3)
    assert (p1 * p2 * p1 - p2 * p1 * p2).is_zero
    sig4 = alg.spin_affine(4)
    q1, q3 = sf.intertwiner_psi(1, sig4), sf.intertwiner_psi(3, sig4)
    assert (q1 * q3 + q3 * q1).is_zero


def test_psi_b_relations():
    sig = alg.spin_affine(3)
    for i in (1, 2):
        psi = sf.intertwiner_psi(i, sig)
        bi = generator_element(sig, ("b", i))
        bnext = generator_element(sig, ("b", i + 1))
        assert (psi * bi + bnext * psi).is_zero
        assert (psi * bnext + bi * psi).is_zero
        for j in range(1, 4):
            if j in (i, i + 1):
                continue
            bj = generator_element(sig, ("b", j))
            assert (psi * bj + bj * psi).is_zero


def test_spin_affine_embedding_all_alphas():
    for alpha in (Scalar.from_rational(0), ONE, U):
        for n in (2, 3):
            report = sf.spin_affine_embedding_check(alpha, n)
            assert report.ok, str(report)


def test_spin_evaluation_hom():
    for n in (2, 3):
        report = sf.spin_evaluation_hom_check(n)
        assert report.ok, str(report)
    # M_2 t_1 + t_1 M_1 = 1 at n = 2
    sig = alg.spin_sym(2)
    lhs = sf.odd_jm(2, sig) * generator_element(sig, ("t", 1))
    assert lhs == Element.one(sig)


def test_spin_power_sums_central():
    for n in (2, 3):
        sig = alg.sdaha(n)
        for k in (1, 2, 3):
            assert sf.spin_center_check(sf.power_sum_y(k, sig)).ok
            assert sf.spin_center_check(sf.power_sum_xi_squared(k, sig)).ok


def test_spin_center_example():
    assert sf.spin_center_check(sf.spin_center_example(alg.sdaha(2), scaled=True)).ok
    # the verbatim coefficient 2 pins u = 2
    assert sf.spin_center_check(
        sf.spin_center_example(alg.sdaha(2, QOmega(2)), scaled=False)
    ).ok
    assert not sf.spin_center_check(
        sf.spin_center_example(alg.sdaha(2, QOmega(1)), scaled=False)
    ).ok


def test_t1_not_central():
    sig = alg.sdaha(2)
    report = sf.spin_center_check(generator_element(sig, ("t", 1)))
    assert not report.ok
    assert any(f.id == "even-parity" for f in report.failures())


def test_u_zero_diagonal_invariants_commute():
    sig = alg.sdaha(3, QOmega(0))
    cand = element_from_terms(
        sig,
        [(ONE, (("xi", i), ("xi", i))) for i in range(1, 4)]
        + [(ONE, (("y", i),)) for i in range(1, 4)],
    )
    assert sf.spin_center_check(cand).ok


def test_spin_trig_commutator_examples():
    sig = alg.trig_sdaha(2)
    # [zeta_1, e^{eps_2}] = -u e^{eps_1} [2,1] = u e^{eps_1} t_1
    got = sf.spin_trig_commutator(1, (0, 1), sig)
    expected = element_from_terms(sig, [(U, (("E", (1, 0)), ("t", 1)))])
    assert got == expected
    got = sf.spin_trig_commutator(1, (1, 0), sig)
    assert got == -expected
    assert sf.spin_trig_commutator(1, (0, 0), sig).is_zero


def _unit_weight_product(r, eta, sig):
    """((r e_j1) e_j2)... over |eta_j| unit generators e(j) or einv(j) each.

    Every product crosses r with one unit weight only, so the engine applies
    the defining (unit) instance of the eta-commutator rule and never the
    closed form for eta itself.
    """
    prod = r
    for j, e in enumerate(eta, start=1):
        if e:
            unit = generator_element(sig, ("e" if e > 0 else "einv", j))
            for _ in range(abs(e)):
                prod = prod * unit
    return prod


def test_spin_trig_commutator_matches_engine():
    rng = random.Random(99)
    for n in (2, 3):
        sig = alg.trig_sdaha(n)
        for _ in range(60):
            eta = tuple(rng.randint(-2, 2) for _ in range(n))
            i = rng.randint(1, n)
            z = generator_element(sig, ("zeta", i))
            e_eta = element_from_terms(sig, [(ONE, (("E", eta),))])
            assert _unit_weight_product(z, eta, sig) - e_eta * z == sf.spin_trig_commutator(i, eta, sig)


def test_distinguished_parities():
    sig = alg.sdaha(3)
    for i in range(2, 4):
        assert sf.odd_jm(i, sig).parity() == "odd"
        assert sf.frak_z(i, sig).parity() == "odd"
    aff = alg.spin_affine(3)
    for i in (1, 2):
        assert sf.intertwiner_psi(i, aff).parity() == "odd"
