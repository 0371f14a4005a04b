"""Acceptance suite: the ten exit criteria, exact arithmetic throughout.

Each criterion prints one pass/fail line (visible with ``pytest -s``) and
asserts success at zero tolerance.  Desk scale: n <= 4 (n = 5 for the
cocycle), polynomial degree <= 4, symbolic u unless stated.
"""

import random
import time

from spinhecke import algebras as alg
from spinhecke import clifford_family as cf
from spinhecke import dunkl as dk
from spinhecke import morphisms as mo
from spinhecke.engine import (
    Element,
    bracket,
    confluence_probe,
    element_from_terms,
    generator_element,
    super_bracket,
    verify_relations,
)
from spinhecke.scalars import ONE, U, QOmega, Scalar
from spinhecke.structure import all_perms, compose, spin_group

from unit_weights import unit_weight_product

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

ALPHAS = (Scalar.from_rational(0), ONE, U)


def _criterion(num: int, ok: bool, description: str, started: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num:02d} {status} - {description} ({time.time() - started:.1f}s)")
    assert ok, f"criterion {num:02d} failed: {description}"


def test_criterion_01_relation_suites():
    t0 = time.time()
    ok = True
    for make in ALL_FACTORIES:
        for n in (2, 3, 4):
            report = verify_relations(make(n))
            if not report.ok:
                print(report)
                ok = False
    _criterion(1, ok, "defining relations normalize to zero, all algebras, n in {2,3,4}", t0)


def test_criterion_02_confluence():
    t0 = time.time()
    ok = True
    for make in ALL_FACTORIES:
        report = confluence_probe(make(3), trials=500, degree_bound=3, seed=20260808)
        if not report.ok:
            print(report)
            ok = False
    _criterion(2, ok, "500 random associativity + idempotence probes per algebra, n=3", t0)


def test_criterion_03_isomorphism_suite():
    t0 = time.time()
    ok = True
    for name in ("PhiFin", "PhiHat", "Phi", "PhiTr"):
        for n in (2, 3):
            report = mo.check_homomorphism(mo.named_morphism(name, n))
            if not report.ok:
                print(name, n, report)
                ok = False
    for n in (2, 3):
        for label, f, g, fb in mo.inverse_pairs(n):
            report = mo.check_inverse_pair(f, g, fb)
            if not report.ok:
                print(label, n, report)
                ok = False
    _criterion(3, ok, "Phi^fin/Phi^/Phi/Phi^tr homomorphisms and all inverse pairs, n in {2,3}", t0)


def test_criterion_04_affine_embeddings():
    t0 = time.time()
    ok = True
    for alpha in ALPHAS:
        for n in (2, 3):
            if not cf.affine_embedding_check(alpha, alg.dahca(n)).ok:
                ok = False
            if not cf.affine_embedding_check(alpha, alg.sdaha(n)).ok:
                ok = False
    _criterion(4, ok, "a_i -> alpha x_i + z_i and b_i -> alpha xi_i + z_i embeddings, alpha in {0,1,u}, n <= 3", t0)


def test_criterion_05_commuting_families():
    t0 = time.time()
    ok = True
    for n in (2, 3, 4):
        sig = alg.dahca(n)
        zs = [cf.z_element(i, sig) for i in range(1, n + 1)]
        xs = [generator_element(sig, ("x", i)) for i in range(1, n + 1)]
        cs = [generator_element(sig, ("c", i)) for i in range(1, n + 1)]
        for i in range(n):
            for j in range(n):
                if not bracket(zs[i], zs[j]).is_zero:
                    ok = False
                if not (bracket(xs[i], zs[j]) - bracket(xs[j], zs[i])).is_zero:
                    ok = False
                if i == j:
                    if not (cs[i] * zs[i] + zs[i] * cs[i]).is_zero:
                        ok = False
                elif not (cs[i] * zs[j] - zs[j] * cs[i]).is_zero:
                    ok = False
        one_minus_cc = [
            element_from_terms(sig, [(ONE, ()), (-ONE, (("c", i + 1), ("c", i)))])
            for i in range(1, n)
        ]
        for i in range(1, n):
            si = generator_element(sig, ("s", i))
            if not (zs[i] * si - si * zs[i - 1] - one_minus_cc[i - 1]).is_zero:
                ok = False
            for alpha in ALPHAS:
                top = xs[i].scale(alpha) + zs[i]
                bot = xs[i - 1].scale(alpha) + zs[i - 1]
                if not (top * si - si * bot - one_minus_cc[i - 1]).is_zero:
                    ok = False
        ssig = alg.sdaha(n)
        fz = [cf.z_element(i, ssig) for i in range(1, n + 1)]
        xis = [generator_element(ssig, ("xi", i)) for i in range(1, n + 1)]
        sone = Element.one(ssig)
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                if not super_bracket(fz[i], fz[j], plus=True).is_zero:
                    ok = False
                mixed = super_bracket(xis[i], fz[j], plus=True) + super_bracket(
                    xis[j], fz[i], plus=True
                )
                if not mixed.is_zero:
                    ok = False
        for alpha in ALPHAS:
            for i in range(1, n):
                ti = generator_element(ssig, ("t", i))
                top = xis[i].scale(alpha) + fz[i]
                bot = xis[i - 1].scale(alpha) + fz[i - 1]
                if top * ti + ti * bot != sone:
                    ok = False
    # the stated non-identity, witnessed at n = 2
    sig2 = alg.dahca(2)
    y1, y2 = (generator_element(sig2, ("y", i)) for i in (1, 2))
    z1, z2 = (cf.z_element(i, sig2) for i in (1, 2))
    if (bracket(y1, z2) - bracket(y2, z1)).is_zero:
        ok = False
    _criterion(5, ok, "commuting/anticommuting family identities at n <= 4, plus the nonzero witness", t0)


def test_criterion_06_intertwiners():
    t0 = time.time()
    ok = True
    two = Scalar.from_rational(2)
    for n in (2, 3, 4):
        asig = alg.affine_hc(n)
        avars = [generator_element(asig, ("a", i)) for i in range(1, n + 1)]
        phis = [cf.intertwiner_phi(i, asig) for i in range(1, n)]
        for i in range(1, n):
            sq = (avars[i - 1] ** 2).scale(two) + (avars[i] ** 2).scale(two) - (
                avars[i - 1] ** 2 - avars[i] ** 2
            ) ** 2
            if phis[i - 1] * phis[i - 1] != sq:
                ok = False
        for i in range(1, n - 1):
            if not (phis[i - 1] * phis[i] * phis[i - 1] - phis[i] * phis[i - 1] * phis[i]).is_zero:
                ok = False
        for i in range(1, n):
            for j in range(i + 2, n):
                if not bracket(phis[i - 1], phis[j - 1]).is_zero:
                    ok = False
        bsig = alg.spin_affine(n)
        bvars = [generator_element(bsig, ("b", i)) for i in range(1, n + 1)]
        psis = [cf.intertwiner_psi(i, bsig) for i in range(1, n)]
        for i in range(1, n):
            sq = bvars[i - 1] ** 2 + bvars[i] ** 2 - (bvars[i - 1] ** 2 - bvars[i] ** 2) ** 2
            if psis[i - 1] * psis[i - 1] != sq:
                ok = False
        for i in range(1, n - 1):
            if not (psis[i - 1] * psis[i] * psis[i - 1] - psis[i] * psis[i - 1] * psis[i]).is_zero:
                ok = False
        for i in range(1, n):
            for j in range(i + 2, n):
                if not (psis[i - 1] * psis[j - 1] + psis[j - 1] * psis[i - 1]).is_zero:
                    ok = False
            for j in range(1, n + 1):
                if j in (i, i + 1):
                    continue
                if not (psis[i - 1] * bvars[j - 1] + bvars[j - 1] * psis[i - 1]).is_zero:
                    ok = False
    for n in (2, 3):
        if not cf.check_distinguished_images(n).ok:
            ok = False
    _criterion(6, ok, "intertwiner closed squares, braid/distance laws (n <= 4), image formulas", t0)


def test_criterion_07_dunkl_modules():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        W = dk.basic_spin(n)
        if not dk.verify_module("dahca", W, degree_bound=4).ok:
            ok = False
        if not dk.oracle_equivalence("dahca", W, degree_bound=4).ok:
            ok = False
        if not dk.oracle_equivalence("dahca", W, degree_bound=4, side="x").ok:
            ok = False
        Wm = dk.regular_spin(n)
        if not dk.verify_module("sdaha", Wm, degree_bound=4).ok:
            ok = False
        if not dk.oracle_equivalence("sdaha", Wm, degree_bound=4).ok:
            ok = False
    _criterion(
        7, ok, "Dunkl operator relations + engine oracle, x and y sides, degree <= 4, n <= 3", t0
    )


def test_criterion_08_centers():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        sig = alg.dahca(n)
        ssig = alg.sdaha(n)
        for k in (1, 2, 3):
            if not cf.center_check(cf.power_sum_y(k, sig)).ok:
                ok = False
            if not cf.center_check(cf.power_sum_squared(k, sig)).ok:
                ok = False
            if not cf.center_check(cf.power_sum_y(k, ssig)).ok:
                ok = False
            if not cf.center_check(cf.power_sum_squared(k, ssig)).ok:
                ok = False
    if not cf.center_check(cf.center_example(alg.dahca(2), scaled=True)).ok:
        ok = False
    if not cf.center_check(cf.center_example(alg.dahca(2, QOmega(1)), scaled=False)).ok:
        ok = False
    if not cf.center_check(cf.spin_center_example(alg.sdaha(2), scaled=True)).ok:
        ok = False
    if not cf.center_check(
        cf.spin_center_example(alg.sdaha(2, QOmega(2)), scaled=False)
    ).ok:
        ok = False
    sig2 = alg.dahca(2)
    noncentral = element_from_terms(sig2, [(ONE, (("x", 1),)), (ONE, (("x", 2),))])
    if cf.center_check(noncentral).ok:
        ok = False
    _criterion(8, ok, "power sums and both worked examples central; non-central witness fails", t0)


def test_criterion_09_rational_trig():
    t0 = time.time()
    ok = True
    for n in (2, 3):
        for label in ("Iota/J", "IotaMinus/JMinus"):
            for lbl, f, g, fb in mo.inverse_pairs(n):
                if lbl != label:
                    continue
                if not mo.check_inverse_pair(f, g, fb).ok:
                    ok = False
    rng = random.Random(555)
    for n in (2, 3):
        tsig = alg.trig_dahca(n)
        ssig = alg.trig_sdaha(n)
        for _ in range(100):
            eta = tuple(rng.randint(-3, 3) for _ in range(n))
            i = rng.randint(1, n)
            ev = generator_element(tsig, ("epsv", i))
            e_eta = element_from_terms(tsig, [(ONE, (("E", eta),))])
            if unit_weight_product(ev, eta, tsig) - e_eta * ev != cf.trig_commutator(i, eta, tsig):
                ok = False
            z = generator_element(ssig, ("zeta", i))
            es_eta = element_from_terms(ssig, [(ONE, (("E", eta),))])
            if unit_weight_product(z, eta, ssig) - es_eta * z != cf.trig_commutator(i, eta, ssig):
                ok = False
    _criterion(9, ok, "j o iota = id, iota o j = id; closed eta-commutator = Leibniz on 200 random weights", t0)


def test_criterion_10_cocycle():
    t0 = time.time()
    ok = True
    sg5 = spin_group(5)
    rng = random.Random(314159)
    perms5 = list(all_perms(5))
    for _ in range(1000):
        s, t, r = (rng.choice(perms5) for _ in range(3))
        lhs = sg5.beta(s, t) * sg5.beta(compose(s, t), r)
        rhs = sg5.beta(s, compose(t, r)) * sg5.beta(t, r)
        if lhs != rhs:
            ok = False
    for n in (2, 3, 4):
        sg = spin_group(n)
        for p in all_perms(n):
            for q in all_perms(n):
                if sg.beta(p, q) != sg.beta_by_words(p, q):
                    ok = False
    _criterion(10, ok, "2-cocycle identity (1000 random triples, n=5); word-rewriting oracle exhaustive, n <= 4", t0)
