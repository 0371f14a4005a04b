"""Jucys-Murphy elements, the commuting family z_i, intertwiners, the
affine embedding, evaluation homomorphism, centers, trig commutators."""

import random

import pytest

from spinhecke import algebras as alg
from spinhecke import clifford_family as cf
from spinhecke.engine import (
    AlgebraError,
    bracket,
    element_from_terms,
    generator_element,
)
from spinhecke.render import element_str
from spinhecke.scalars import ONE, U, QOmega, Scalar

from unit_weights import unit_weight_product


def test_jm_base_cases():
    d2 = alg.dahca(2)
    assert cf.jucys_murphy(1, d2).is_zero
    assert element_str(cf.jucys_murphy(2, d2)) == "s12 - s12*c1*c2"


def test_jm_commute():
    for sig in (alg.clifford_sym(4), alg.affine_hc(4), alg.dahca(3)):
        ms = [cf.jucys_murphy(i, sig) for i in range(1, sig.n + 1)]
        for a in ms:
            for b in ms:
                assert bracket(a, b).is_zero


def test_jm_clifford_relations():
    # c_i M_i = -M_i c_i and c_j M_i = M_i c_j, which drive the z-family signs
    sig = alg.clifford_sym(3)
    for i in range(1, 4):
        mi = cf.jucys_murphy(i, sig)
        for j in range(1, 4):
            cj = generator_element(sig, ("c", j))
            if i == j:
                assert (cj * mi + mi * cj).is_zero
            else:
                assert (cj * mi - mi * cj).is_zero


def test_z_family_identities():
    for n in (2, 3):
        sig = alg.dahca(n)
        zs = {i: cf.z_element(i, sig) for i in range(1, n + 1)}
        xs = {i: generator_element(sig, ("x", i)) for i in range(1, n + 1)}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert bracket(zs[i], zs[j]).is_zero
                assert (bracket(xs[i], zs[j]) - bracket(xs[j], zs[i])).is_zero


def test_z_mixed_bracket_nonidentity():
    sig = alg.dahca(2)
    y1, y2 = (generator_element(sig, ("y", i)) for i in (1, 2))
    z1, z2 = (cf.z_element(i, sig) for i in (1, 2))
    assert not (bracket(y1, z2) - bracket(y2, z1)).is_zero


def test_z_clifford_and_hecke():
    sig = alg.dahca(3)
    for i in range(1, 4):
        zi = cf.z_element(i, sig)
        for j in range(1, 4):
            cj = generator_element(sig, ("c", j))
            if i == j:
                assert (cj * zi + zi * cj).is_zero
            else:
                assert (cj * zi - zi * cj).is_zero
    for i in range(1, 3):
        si = generator_element(sig, ("s", i))
        lhs = cf.z_element(i + 1, sig) * si - si * cf.z_element(i, sig)
        rhs = element_from_terms(
            sig, [(ONE, ()), (-ONE, (("c", i + 1), ("c", i)))]
        )
        assert lhs == rhs


def test_z_requires_nonzero_u():
    with pytest.raises(AlgebraError):
        cf.z_element(1, alg.dahca(2, QOmega(0)))


def test_phi_square_closed_form():
    sig = alg.affine_hc(2)
    phi1 = cf.intertwiner_phi(1, sig)
    a1, a2 = (generator_element(sig, ("a", i)) for i in (1, 2))
    two = Scalar.from_rational(2)
    expected = (a1 * a1).scale(two) + (a2 * a2).scale(two) - (a1 * a1 - a2 * a2) ** 2
    assert phi1 * phi1 == expected


def test_phi_braid_and_distance():
    sig3 = alg.affine_hc(3)
    p1, p2 = cf.intertwiner_phi(1, sig3), cf.intertwiner_phi(2, sig3)
    assert (p1 * p2 * p1 - p2 * p1 * p2).is_zero
    sig4 = alg.affine_hc(4)
    q1, q3 = cf.intertwiner_phi(1, sig4), cf.intertwiner_phi(3, sig4)
    assert bracket(q1, q3).is_zero


def test_affine_embedding_all_alphas():
    for alpha in (Scalar.from_rational(0), ONE, U):
        for n in (2, 3):
            report = cf.affine_embedding_check(alpha, alg.dahca(n))
            assert report.ok, str(report)


def test_evaluation_hom():
    for n in (2, 3):
        report = cf.evaluation_hom_check(alg.clifford_sym(n))
        assert report.ok, str(report)
    # the spot checks of the evaluation images
    sig = alg.clifford_sym(3)
    m3, m2, m1 = (cf.jucys_murphy(i, sig) for i in (3, 2, 1))
    s1 = generator_element(sig, ("s", 1))
    assert (m3 * s1 - s1 * m3).is_zero
    lhs = m2 * s1 - s1 * m1
    assert lhs == element_from_terms(sig, [(ONE, ()), (-ONE, (("c", 2), ("c", 1)))])


def test_power_sums_central():
    for n in (2, 3):
        sig = alg.dahca(n)
        for k in (1, 2, 3):
            assert cf.center_check(cf.power_sum_y(k, sig)).ok
            assert cf.center_check(cf.power_sum_squared(k, sig)).ok


def test_product_of_all_y_is_central():
    # Y = y_1...y_n is central, also in the localized forms; the division
    # oracle in test_properties.py shifts right exponents by Y^-k on this
    for factory, check in (
        (alg.dahca, cf.center_check),
        (alg.dahca_localized, cf.center_check),
        (alg.sdaha, cf.center_check),
        (alg.sdaha_localized, cf.center_check),
    ):
        for n in (2, 3, 4):
            sig = factory(n)
            big_y = element_from_terms(sig, [(ONE, tuple(("y", i) for i in range(1, n + 1)))])
            report = check(big_y)
            assert report.ok, str(report)


def test_center_example_scaled_symbolic():
    report = cf.center_check(cf.center_example(alg.dahca(2), scaled=True))
    assert report.ok, str(report)


def test_center_example_verbatim_at_u_one():
    report = cf.center_check(cf.center_example(alg.dahca(2, QOmega(1)), scaled=False))
    assert report.ok, str(report)


def test_noncentral_witness():
    sig = alg.dahca(2)
    cand = element_from_terms(sig, [(ONE, (("x", 1),)), (ONE, (("x", 2),))])
    report = cf.center_check(cand)
    assert not report.ok
    assert any(f.id == "commutes[c1]" for f in report.failures())


def test_u_zero_diagonal_invariants_commute():
    # containment direction of the u = 0 center description
    sig = alg.dahca(3, QOmega(0))
    sum_sq_y = element_from_terms(
        sig,
        [(ONE, (("x", i), ("x", i))) for i in range(1, 4)]
        + [(ONE, (("y", i),)) for i in range(1, 4)],
    )
    assert cf.center_check(sum_sq_y).ok
    mixed = element_from_terms(sig, [(ONE, (("x", i), ("x", i), ("y", i))) for i in range(1, 4)])
    assert cf.center_check(mixed).ok
    # the same mixed element is not central at symbolic u
    sym_sig = alg.dahca(3)
    sym_mixed = element_from_terms(
        sym_sig, [(ONE, (("x", i), ("x", i), ("y", i))) for i in range(1, 4)]
    )
    assert not cf.center_check(sym_mixed).ok


def test_odd_candidate_flagged():
    sig = alg.dahca(2)
    report = cf.center_check(generator_element(sig, ("c", 1)))
    assert any(f.id == "even-parity" for f in report.failures())


def test_trig_commutator_examples():
    sig = alg.trig_dahca(2)
    # [ev_1, e^{eps_2}] = -u e^{eps_1} (1 - c1 c2) s_12
    got = cf.trig_commutator(1, (0, 1), sig)
    expected = element_from_terms(
        sig,
        [
            (-U, (("E", (1, 0)), ("sij", 1, 2))),
            (U, (("E", (1, 0)), ("c", 1), ("c", 2), ("sij", 1, 2))),
        ],
    )
    assert got == expected
    # [ev_1, e^{eps_1}] = u e^{eps_1} (1 - c1 c2) s_12
    got = cf.trig_commutator(1, (1, 0), sig)
    assert got == -expected
    assert cf.trig_commutator(1, (0, 0), sig).is_zero


def test_trig_commutator_matches_engine():
    # Leibniz evaluation through the unit rewrite rules equals the closed form
    rng = random.Random(77)
    for n in (2, 3):
        sig = alg.trig_dahca(n)
        for _ in range(60):
            eta = tuple(rng.randint(-2, 2) for _ in range(n))
            i = rng.randint(1, n)
            ev = generator_element(sig, ("epsv", i))
            e_eta = element_from_terms(sig, [(ONE, (("E", eta),))])
            assert unit_weight_product(ev, eta, sig) - e_eta * ev == cf.trig_commutator(i, eta, sig)


def test_trig_affine_subalgebra_scaling():
    # u^{-1} ev_i satisfy the affine Hecke-Clifford hecke relation with 1 - c c
    sig = alg.trig_dahca(3)
    uinv = ONE / sig.u_scalar
    for i in (1, 2):
        evn = generator_element(sig, ("epsv", i + 1)).scale(uinv)
        evi = generator_element(sig, ("epsv", i)).scale(uinv)
        si = generator_element(sig, ("s", i))
        lhs = evn * si - si * evi
        rhs = element_from_terms(sig, [(ONE, ()), (-ONE, (("c", i + 1), ("c", i)))])
        assert lhs == rhs


def test_trig_affine_subalgebra_full_relation_set():
    for n in (2, 3):
        report = cf.trig_affine_subalgebra_check(n)
        assert report.ok, str(report)


def _one_minus_cc_s(sig, i, j, left=None, right=None):
    """coeff * (1 - c_i c_j) s_{ij}, optionally multiplied by y-monomials."""
    pre = tuple(left or ())
    post = tuple(right or ())
    return element_from_terms(
        sig,
        [
            (ONE, pre + (("sij", i, j),) + post),
            (-ONE, pre + (("c", i), ("c", j), ("sij", i, j)) + post),
        ],
    )


def test_uz_y_commutators_match_closed_forms():
    # the three [u z_i, y_j] identities underlying the rational <-> trig map
    n = 3
    sig = alg.dahca(n)
    u = sig.u_scalar
    ys = {i: generator_element(sig, ("y", i)) for i in range(1, n + 1)}
    for i in range(1, n + 1):
        uz = cf.z_element(i, sig).scale(u)
        for j in range(1, n + 1):
            got = bracket(uz, ys[j])
            if i < j:
                expected = _one_minus_cc_s(sig, i, j, left=(("y", i),)).scale(-u)
            elif i > j:
                expected = _one_minus_cc_s(sig, i, j, left=(("y", j),)).scale(-u)
            else:
                expected = element_from_terms(sig, [])
                for k in range(i + 1, n + 1):
                    expected = expected + _one_minus_cc_s(
                        sig, i, k, left=(("y", i),)
                    ).scale(u)
                for k in range(1, i):
                    expected = expected + _one_minus_cc_s(
                        sig, i, k, right=(("y", i),)
                    ).scale(u)
            assert got == expected, (i, j)


def test_x_commutator_closed_forms_against_powers():
    # [x_i, y_j^a] = -u ((y_i^a - y_j^a)/(y_i - y_j)) (1 - c_i c_j) s_{ij}
    # and the diagonal sum form, as identities inside the algebra
    from spinhecke.dunkl import _tele

    n = 3
    sig = alg.dahca(n)
    u = sig.u_scalar

    def tele_poly(i, j, a):
        out = element_from_terms(sig, [])
        for sgn, (ei, ej) in _tele(a, 0):
            word = (("y", i),) * ei + (("y", j),) * ej
            out = out + element_from_terms(sig, [(ONE if sgn > 0 else -ONE, word)])
        return out

    for a in (1, 2, 3, 4):
        for i in range(1, n + 1):
            xi = generator_element(sig, ("x", i))
            for j in range(1, n + 1):
                yj_a = generator_element(sig, ("y", j)) ** a
                got = bracket(xi, yj_a)
                if i != j:
                    expected = (tele_poly(i, j, a) * _one_minus_cc_s(sig, i, j)).scale(-u)
                else:
                    expected = element_from_terms(sig, [])
                    for k in range(1, n + 1):
                        if k == i:
                            continue
                        expected = expected + (
                            tele_poly(i, k, a) * _one_minus_cc_s(sig, i, k)
                        ).scale(u)
                assert got == expected, (i, j, a)
