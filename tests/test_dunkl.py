"""Induced modules, divided differences, and the three Dunkl actions."""

import hashlib
import json

import pytest

from spinhecke import algebras as alg
from spinhecke import dunkl as dk
from spinhecke.engine import AlgebraError, AlgebraSignature
from spinhecke.scalars import ONE, U, Scalar, add_term


def test_divided_difference_examples():
    assert dk.divided_difference({(2, 0): ONE}, 1, 2) == {(1, 0): ONE, (0, 1): ONE}
    sym = {(1, 1): ONE}
    assert dk.divided_difference(sym, 1, 2) == {}
    sym2 = {(2, 1): ONE, (1, 2): ONE}
    assert dk.divided_difference(sym2, 1, 2) == {}


def test_divided_difference_degree_drop():
    poly = {(3, 1, 0): ONE, (0, 2, 2): Scalar.from_rational(5)}
    out = dk.divided_difference(poly, 1, 3)
    for exps in out:
        assert sum(exps) == 3


def test_basic_spin_is_a_module():
    # the finite algebra relations act consistently on every basis vector
    for n in (2, 3):
        W = dk.basic_spin(n)
        sig = alg.clifford_sym(n)
        for rel_id, lhs, rhs in sig.relations():
            for idx in range(W.dim()):
                got = {}
                for coeff, word in lhs:
                    for k, c in W.act_tokens(word, idx).items():
                        got[k] = got.get(k, Scalar.from_rational(0)) + coeff * c
                for coeff, word in rhs:
                    for k, c in W.act_tokens(word, idx).items():
                        got[k] = got.get(k, Scalar.from_rational(0)) - coeff * c
                assert all(v.is_zero for v in got.values()), (rel_id, idx)


def test_regular_spin_is_a_module():
    for n in (2, 3):
        W = dk.regular_spin(n)
        sig = alg.spin_sym(n)
        for rel_id, lhs, rhs in sig.relations():
            for idx in range(W.dim()):
                got = {}
                for coeff, word in lhs:
                    for k, c in W.act_tokens(word, idx).items():
                        got[k] = got.get(k, Scalar.from_rational(0)) + coeff * c
                for coeff, word in rhs:
                    for k, c in W.act_tokens(word, idx).items():
                        got[k] = got.get(k, Scalar.from_rational(0)) - coeff * c
                assert all(v.is_zero for v in got.values()), (rel_id, idx)


def test_dunkl_x_examples():
    W = dk.basic_spin(2)
    vac = W.index[(0, 0)]
    v = dk.InducedVector(W, "y", {((0, 1), vac): ONE})
    out = dk.dunkl_x(1, v)
    expected = dk.InducedVector(
        W, "y", {((0, 0), W.index[(0, 0)]): -U, ((0, 0), W.index[(1, 1)]): U}
    )
    assert out == expected
    assert dk.dunkl_x(1, dk.InducedVector.vacuum(W, "y")).is_zero
    sym = dk.InducedVector(W, "y", {((1, 0), vac): ONE, ((0, 1), vac): ONE})
    assert dk.dunkl_x(1, sym).is_zero
    assert dk.dunkl_x(2, sym).is_zero


def test_dunkl_x_lowers_degree_by_one():
    W = dk.basic_spin(3)
    v = dk.InducedVector(W, "y", {((2, 1, 0), 3): ONE})
    out = dk.dunkl_x(1, v)
    assert all(sum(exps) == 2 for exps, _ in out.terms)


def test_dunkl_xi_lowers_degree_by_one():
    W = dk.regular_spin(3)
    v = dk.InducedVector(W, "y", {((0, 3, 1), 2): ONE})
    for i in (1, 2, 3):
        out = dk.dunkl_xi(i, v)
        assert all(sum(exps) == 3 for exps, _ in out.terms)


def test_dunkl_y_examples():
    W = dk.basic_spin(2)
    vac = W.index[(0, 0)]
    v = dk.InducedVector(W, "x", {((0, 1), vac): ONE})
    out = dk.dunkl_y(1, v)
    expected = dk.InducedVector(
        W, "x", {((0, 0), W.index[(0, 0)]): U, ((0, 0), W.index[(1, 1)]): U}
    )
    assert out == expected
    assert dk.dunkl_y(1, dk.InducedVector.vacuum(W, "x")).is_zero
    assert dk.dunkl_y(2, dk.InducedVector.vacuum(W, "x")).is_zero


def test_dunkl_xi_examples():
    W = dk.regular_spin(2)
    vac = W.index[(1, 2)]
    v = dk.InducedVector(W, "y", {((0, 1), vac): ONE})
    out = dk.dunkl_xi(1, v)
    expected = dk.InducedVector(W, "y", {((0, 0), W.index[(2, 1)]): U})
    assert out == expected
    assert dk.dunkl_xi(1, dk.InducedVector.vacuum(W, "y")).is_zero


def test_wrong_module_kind_raises():
    with pytest.raises(AlgebraError):
        dk.dunkl_x(1, dk.InducedVector.vacuum(dk.regular_spin(2), "y"))
    with pytest.raises(AlgebraError):
        dk.dunkl_xi(1, dk.InducedVector.vacuum(dk.basic_spin(2), "y"))
    with pytest.raises(AlgebraError):
        dk.dunkl_y(1, dk.InducedVector.vacuum(dk.basic_spin(2), "y"))
    with pytest.raises(AlgebraError):
        dk.act_token(("s", 1), dk.InducedVector.vacuum(dk.regular_spin(2), "y"))
    with pytest.raises(AlgebraError):
        dk.act_token(("t", 1), dk.InducedVector.vacuum(dk.basic_spin(2), "y"))


def test_verify_module_small(monkeypatch):
    """Both families pass at n=2 with the rewriting engine switched off:
    the Dunkl side of the engine-vs-Dunkl oracle pair never rewrites."""

    def refuse(*args, **kwargs):
        raise AssertionError("verify_module reached the rewriting engine")

    monkeypatch.setattr(AlgebraSignature, "_insert_word", refuse)
    monkeypatch.setattr(AlgebraSignature, "_insert_term", refuse)
    monkeypatch.setattr(AlgebraSignature, "_cross", refuse)
    rep = dk.verify_module("dahca", dk.basic_spin(2), degree_bound=3)
    assert rep.ok, str(rep)
    rep = dk.verify_module("sdaha", dk.regular_spin(2), degree_bound=3)
    assert rep.ok, str(rep)


# SHA-256 of json.dumps(report.to_json(), sort_keys=True), generated before
# verify_module read its relation words off a per-call column table.
_MODULE_REPORT_DIGESTS = {
    "dahca": "7fad425c51a0525ece97c14f67248f05b8b631e53050b2726f5a681ffcff7575",
    "sdaha": "36d10e24e26a8b231873f28585fbd6f73f74b7cd028e286af11d93adc4c78a00",
}
_NEGATED_C2_DIGEST = "28d5cdc2fce8d96e2436ff639fd56f69c69ffae55c85cb09cc769a693c6c3157"


def _report_digest(rep) -> str:
    return hashlib.sha256(json.dumps(rep.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("family", ["dahca", "sdaha"])
def test_verify_module_report_pinned_n3(family):
    W = dk.basic_spin(3) if family == "dahca" else dk.regular_spin(3)
    rep = dk.verify_module(family, W, degree_bound=3)
    assert rep.ok, str(rep)
    assert _report_digest(rep) == _MODULE_REPORT_DIGESTS[family]


def test_verify_module_reports_a_broken_module():
    """Basic spin at n=3 with the action of c_2 negated is not a DaHCa
    module: c_2 still squares to 1, but s_1 c_1 = c_2 s_1 fails."""
    base = dk.basic_spin(3)

    def negated_c2(mod, token, idx):
        out = base.act_gen(token, idx)
        return {k: -c for k, c in out.items()} if token == ("c", 2) else out

    W = dk.FiniteModule("negated-c2", 3, False, base.basis, negated_c2)
    rep = dk.verify_module("dahca", W, degree_bound=3)
    assert not rep.ok
    assert rep.n_fail == 20
    first = rep.failures()[0]
    assert first.id == "conj[s1,c1]"
    assert first.witness == "on y^(0, 0, 0) (x) 1: 2*1 ⊗ c2"
    assert _report_digest(rep) == _NEGATED_C2_DIGEST


def test_oracle_equivalence_small():
    rep = dk.oracle_equivalence("dahca", dk.basic_spin(2), degree_bound=3)
    assert rep.ok, str(rep)
    rep = dk.oracle_equivalence("sdaha", dk.regular_spin(2), degree_bound=3)
    assert rep.ok, str(rep)
    rep = dk.oracle_equivalence("dahca", dk.basic_spin(2), degree_bound=3, side="x")
    assert rep.ok, str(rep)


def test_oracle_equivalence_x_n3():
    rep = dk.oracle_equivalence("dahca", dk.basic_spin(3), degree_bound=3, side="x")
    assert rep.ok, str(rep)


# First failing check, its witness and the SHA-256 of the report (as above)
# when only the Dunkl side is broken; generated while the engine oracle still
# normalized one product per (generator, exps, basis vector).
_BROKEN_ORACLE_PINS = {
    ("tele", "dahca"): (
        3, "oracle[x1]",
        "y^(1, 0, 0) (x) 1: dunkl=0 engine=2*u*1 ⊗ 1 - u*1 ⊗ c1*c3 - u*1 ⊗ c1*c2",
        "b2d973b536db2c329d6c2078e14f89d995303f4eb0a3cd120decea0778af23d9",
    ),
    ("tele", "sdaha"): (
        3, "oracle[xi1]",
        "y^(1, 0, 0) (x) 1: dunkl=0 engine=-u*1 ⊗ t1 + u*1 ⊗ t1*t2*t1",
        "90df549e6d1723d84d4b207b717af92aa3fac22d911b397e98a46d5f7ea16198",
    ),
    ("perm", "dahca"): (
        5, "oracle[x1]",
        "y^(1, 0, 0) (x) c1*c2*c3: dunkl=u*1 ⊗ c3 - u*1 ⊗ c2 + 2*u*1 ⊗ c1*c2*c3 "
        "engine=-u*1 ⊗ c3 + u*1 ⊗ c2 - 2*u*1 ⊗ c1*c2*c3",
        "0f640cdc6bb329c32141dd016f3bcf7ad5786b46724773d51b9a0459931062f3",
    ),
    ("perm", "sdaha"): (
        5, "oracle[xi1]",
        "y^(1, 0, 0) (x) t1*t2*t1: dunkl=-u*1 ⊗ 1 + u*1 ⊗ t2*t1 engine=u*1 ⊗ 1 - u*1 ⊗ t2*t1",
        "6d9ecef471cf661f5c79c27b56ab8431fa0156d0979eb51911bfde0c68cf6ecc",
    ),
}


@pytest.mark.parametrize("brk, family", sorted(_BROKEN_ORACLE_PINS))
def test_oracle_reports_a_broken_dunkl_side(monkeypatch, brk, family):
    """Break only the Dunkl side: the telescoping sum loses its last term, or
    the permutation action negates the last basis vector (so the witness sits
    at a basis vector other than the first)."""
    if brk == "tele":
        tele = dk._tele
        monkeypatch.setattr(dk, "_tele", lambda p, q: tele(p, q)[:-1])
    else:
        act_perm = dk.FiniteModule.act_perm

        def flipped(self, perm, idx):
            out = act_perm(self, perm, idx)
            return {k: -c for k, c in out.items()} if idx == self.dim() - 1 else out

        monkeypatch.setattr(dk.FiniteModule, "act_perm", flipped)
    W = dk.basic_spin(3) if family == "dahca" else dk.regular_spin(3)
    rep = dk.oracle_equivalence(family, W, degree_bound=3)
    n_fail, first_id, witness, digest = _BROKEN_ORACLE_PINS[brk, family]
    assert rep.n_fail == n_fail
    first = rep.failures()[0]
    assert (first.id, first.witness) == (first_id, witness)
    assert _report_digest(rep) == digest


def test_verify_modules_computes_each_column_once(monkeypatch, capsys):
    # the module check and the engine oracle of one command read one column
    # table, so no (generator, unit vector) column is computed twice
    from spinhecke.cli import main

    calls = []
    act_token = dk.act_token

    def counted(token, v, u=None):
        calls.append((token, tuple(v.terms)))
        return act_token(token, v, u)

    monkeypatch.setattr(dk, "act_token", counted)
    for family in ("dahca", "sdaha"):
        calls.clear()
        assert main(["verify-modules", "--algebra", family, "--n", "3", "--degree-bound", "3"]) == 0
        assert calls and len(set(calls)) == len(calls), family
    W = dk.basic_spin(2)
    with pytest.raises(ValueError, match="does not serve"):
        dk.oracle_equivalence("dahca", W, 1, side="x", columns=dk.ColumnTable(W, "y", U))


def test_act_perm_matches_its_lehmer_word():
    from spinhecke import clear_caches
    from spinhecke import structure as st

    for W in (dk.basic_spin(3), dk.regular_spin(3)):
        letter = "t" if W.spin else "s"
        clear_caches()
        for warm in (False, True):
            for p in st.all_perms(3):
                word = [(letter, m) for m in st.lehmer_word(p)]
                for idx in range(W.dim()):
                    got = W.act_perm(p, idx)
                    assert got == W.act_tokens(word, idx), (
                        W.name, p, idx, warm)


def test_phi_transport_of_module_action():
    """Transport the DaHCa action on C[y] (x) L_2 through Phi: each image in
    C_2 (x) sDaHa, acting on the same space (tensor Clifford factor by left
    multiplication, spin factor through the Clifford-model CS_2^- structure
    on L_2, xi's by the spin Dunkl operator), reproduces the Dunkl action."""
    from spinhecke import morphisms as mo
    from spinhecke import structure as st
    from spinhecke.engine import generator_element
    from spinhecke.scalars import W as OMEGA

    n = 2
    Wmod = dk.basic_spin(n)
    phi = mo.named_morphism("Phi", n)
    u = alg.sdaha(n).u_scalar
    winv = ONE / OMEGA

    def t_action(mod, token, idx):
        # t_m -> (1/w)(c_{m+1} - c_m) s_m inside C_n x| CS_n, acting on L_n
        m = token[1]
        out = {}
        for idx2, c2 in Wmod.act_gen(("s", m), idx).items():
            for idx3, c3 in Wmod.act_gen(("c", m + 1), idx2).items():
                add_term(out, idx3, winv * (c2 * c3))
            for idx3, c3 in Wmod.act_gen(("c", m), idx2).items():
                add_term(out, idx3, -(winv * (c2 * c3)))
        return out

    spin_structure = dk.FiniteModule("L2-spin", n, True, Wmod.basis, t_action)

    def act_tensor(img, vec):
        out = {}
        for (bits, inner), coeff in img.terms.items():
            cur = dk.InducedVector(spin_structure, "y", dict(vec.terms))
            left, grp, _, right = inner
            for i in range(n, 0, -1):
                for _ in range(right[i - 1]):
                    cur = act_y(cur, i)
            for m in reversed(st.lehmer_word(grp)):
                cur = apply_gen(cur, ("t", m))
            for i in range(n, 0, -1):
                for _ in range(left[i - 1]):
                    cur = dk.dunkl_xi(i, cur, u)
            terms = dict(cur.terms)
            for i in range(n, 0, -1):
                if bits[i - 1]:
                    nxt = {}
                    for (exps, idx), c in terms.items():
                        for idx2, c2 in Wmod.act_gen(("c", i), idx).items():
                            key = (exps, idx2)
                            nxt[key] = nxt.get(key, Scalar.from_rational(0)) + c * c2
                    terms = nxt
            for key, c in terms.items():
                add_term(out, key, coeff * c)
        return dk.InducedVector(Wmod, "y", out)

    def act_y(vec, i):
        out = {}
        for (exps, idx), c in vec.terms.items():
            e2 = list(exps)
            e2[i - 1] += 1
            out[(tuple(e2), idx)] = c
        return dk.InducedVector(vec.module, "y", out)

    def apply_gen(vec, token):
        perm = st.transposition(token[1], token[1] + 1, n)
        out = {}
        for (exps, idx), c in vec.terms.items():
            for idx2, c2 in vec.module.act_gen(token, idx).items():
                new = [0] * n
                for a, e in enumerate(exps, start=1):
                    new[perm[a - 1] - 1] = e
                key = (tuple(new), idx2)
                out[key] = out.get(key, Scalar.from_rational(0)) + c * c2
        return dk.InducedVector(vec.module, "y", out)

    for tok in alg.dahca(n).generator_tokens():
        img = mo.apply_morphism(phi, generator_element(phi.source, tok))
        for exps in dk._poly_monomials(n, 3):
            for idx in range(Wmod.dim()):
                direct = dk.act_token(tok, dk.InducedVector(Wmod, "y", {(exps, idx): ONE}), u)
                transported = act_tensor(img, dk.InducedVector(spin_structure, "y", {(exps, idx): ONE}))
                assert direct.terms == transported.terms, (tok, exps, idx)
