"""Polynomial module realizations: induced modules C[y] (x) W and
C[x] (x) W, the basic spin module, divided differences, and the Dunkl
operator actions of x_i, y_i and xi_i.

All divided differences are evaluated by exact telescoping sums; no
polynomial division is performed anywhere.  The three Dunkl operators share
one telescoping kernel and differ only in the group-side parts they apply.
``verify_module`` reads relation words off a table of generator columns,
each computed once by ``act_token`` and read in place; the engine oracle
compares the same columns with each generator * v^exps product, normalized
once and read off against every basis vector of W.  One table serves both
checks of one command, and is dropped with it.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import algebras as alg
from . import structure as st
from .engine import (
    _MEMO_OWNERS,
    AlgebraError,
    _bits,
    _slot_str,
    _spin_group_str,
    generator_element,
    monomial_element,
)
from .reports import Report
from .scalars import ONE, ZERO, Scalar, _join_signed, add_term

__all__ = [
    "FiniteModule",
    "basic_spin",
    "regular_spin",
    "InducedVector",
    "divided_difference",
    "dunkl_x",
    "dunkl_y",
    "dunkl_xi",
    "act_token",
    "ColumnTable",
    "verify_module",
    "oracle_equivalence",
]

_MINUS = Scalar.from_rational(-1)


class FiniteModule:
    """A module over C_n x| CS_n (``spin=False``) or CS_n^- (``spin=True``),
    given by generator actions on an indexed basis.  Every action returns
    the sparse map {basis index: coeff}."""

    def __init__(self, name: str, n: int, spin: bool, basis: tuple, gen_action):
        self.name = name
        self.n = n
        self.spin = spin
        self.basis = basis
        self.index = {b: i for i, b in enumerate(basis)}
        self._gen_action = gen_action
        self._cache: dict = {}
        _MEMO_OWNERS.add(self)

    def clear_memo(self) -> None:
        self._cache.clear()

    def dim(self) -> int:
        return len(self.basis)

    def act_gen(self, token, idx: int):
        key = (token, idx)
        out = self._cache.get(key)
        if out is None:
            out = self._gen_action(self, token, idx)
            self._cache[key] = out
        return out

    def act_perm(self, perm: tuple, idx: int):
        key = ("perm", perm, idx)  # a 3-tuple: no (token, idx) key of act_gen
        out = self._cache.get(key)
        if out is None:
            letter = "t" if self.spin else "s"
            out = self._cache[key] = self.act_tokens([(letter, m) for m in st.lehmer_word(perm)], idx)
        return out

    def _apply(self, token, terms: dict) -> dict:
        acc: dict = {}
        for idx, c in terms.items():
            for idx2, c2 in self.act_gen(token, idx).items():
                add_term(acc, idx2, c * c2)
        return acc

    def act_tokens(self, tokens, idx: int):
        terms = {idx: ONE}
        for token in reversed(tokens):
            if token[0] in ("sij", "oddtr", "perm"):
                raise AlgebraError(f"composite token {token!r} must be expanded first")
            terms = self._apply(token, terms)
        return terms

    def label(self, idx: int) -> str:
        b = self.basis[idx]
        return (_spin_group_str(b) if self.spin else _slot_str("c", False, b)) or "1"


def _basic_spin_action(mod: FiniteModule, token, idx: int):
    bits = mod.basis[idx]
    kind, i = token
    if kind == "c":
        sgn, out = st.cliff_mul(_bits(mod, i), bits)
        return {mod.index[out]: ONE if sgn > 0 else _MINUS}
    if kind == "s":
        sgn, out = st.cliff_conj(st.transposition(i, i + 1, mod.n), bits)
        return {mod.index[out]: ONE if sgn > 0 else _MINUS}
    raise AlgebraError(f"basic spin module has no action for {token!r}")


def _regular_spin_action(mod: FiniteModule, token, idx: int):
    kind, i = token
    if kind != "t":
        raise AlgebraError(f"regular spin module has no action for {token!r}")
    w = mod.basis[idx]
    sg = st.spin_group(mod.n)
    s_i = st.transposition(i, i + 1, mod.n)
    sgn = sg.beta(s_i, w)
    return {mod.index[st.compose(s_i, w)]: ONE if sgn > 0 else _MINUS}


@lru_cache(maxsize=None)
def basic_spin(n: int) -> FiniteModule:
    """L_n = C(c_1..c_n): Clifford left multiplication, S_n permutes indices."""
    basis = []
    for mask in range(1 << n):
        basis.append(tuple((mask >> b) & 1 for b in range(n)))
    return FiniteModule("basic-spin", n, False, tuple(sorted(basis)), _basic_spin_action)


@lru_cache(maxsize=None)
def regular_spin(n: int) -> FiniteModule:
    """The left regular module of CS_n^- on the basis {t_w}."""
    basis = tuple(sorted(st.all_perms(n)))
    return FiniteModule("regular-spin", n, True, basis, _regular_spin_action)


# family -> (signature, module name, module, module dimension): DaHCa acts on
# C[y] (x) L_n with dim L_n = 2^n, sDaHa on C[y] (x) CS_n^- with n! vectors
_MODULES = {
    "dahca": (alg.dahca, "basic-spin", basic_spin, lambda n: 2**n),
    "sdaha": (alg.sdaha, "regular-spin", regular_spin, math.factorial),
}


class InducedVector:
    """A vector in C[vars] (x) W: finite map (exponents, basis index) -> Scalar.
    ``side`` records whether the polynomial variables are the y's or x's."""

    __slots__ = ("module", "side", "terms")

    def __init__(self, module: FiniteModule, side: str, terms: dict | None = None):
        self.module = module
        self.side = side
        self.terms = {k: v for k, v in (terms or {}).items() if v is not ZERO}

    @classmethod
    def vacuum(cls, module: FiniteModule, side: str = "y", idx: int = 0):
        return cls(module, side, {(tuple([0] * module.n), idx): ONE})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, InducedVector)
            and self.module is other.module
            and self.side == other.side
            and self.terms == other.terms
        )

    def render(self) -> str:
        if not self.terms:
            return "0"
        pieces = []
        for (exps, idx), coeff in sorted(self.terms.items(), key=lambda t: t[0]):
            poly = _slot_str(self.side, False, exps) or "1"
            cs = coeff.render(atom=True)
            body = f"{poly} ⊗ {self.module.label(idx)}"
            pieces.append(body if cs == "1" else f"-{body}" if cs == "-1" else f"{cs}*{body}")
        return _join_signed(pieces)

    def __repr__(self):
        return f"<induced {self.render()}>"


def _tele(p: int, q: int):
    """(v_i^p v_k^q - v_i^q v_k^p)/(v_i - v_k) as [(sign, (e_i, e_k))]."""
    if p == q:
        return []
    if p > q:
        return [(1, (q + m, p - 1 - m)) for m in range(p - q)]
    return [(-1, (p + m, q - 1 - m)) for m in range(q - p)]


def _tele_exps(exps: tuple, i: int, k: int):
    """The monomials of (v_i^p v_k^q - v_i^q v_k^p)/(v_i - v_k), where p, q
    are the exponents of v_i, v_k in ``exps``, as (sign, exponents) pairs."""
    for sgn, (ei, ek) in _tele(exps[i - 1], exps[k - 1]):
        new = list(exps)
        new[i - 1], new[k - 1] = ei, ek
        yield sgn, tuple(new)


def divided_difference(poly: dict, i: int, k: int) -> dict:
    """(1 - s_{ki})(f) / (v_i - v_k), computed monomial-wise by telescoping.

    ``poly`` maps exponent tuples to scalars; the quotient is always exact
    because the numerator vanishes on v_i = v_k.
    """
    if i == k:
        raise AlgebraError("divided difference needs distinct indices")
    out: dict = {}
    for exps, coeff in poly.items():
        for sgn, new in _tele_exps(exps, i, k):
            add_term(out, new, coeff if sgn > 0 else -coeff)
    return out


def _dunkl(i: int, v: InducedVector, u: Scalar | None, parts) -> InducedVector:
    """The one Dunkl kernel: u sum_{k != i} sum_{(sign, odd, T) in parts(k, w)}
    sign D_ik(f) (x) T(w), where D_ik(f) = (f - s_ik f)/(v_i - v_k) is the
    telescoping sum and T(w) is given as {basis index: coeff}.  With ``odd``
    set, D_ik is the signed telescoping for the v_k + v_i denominator.  A k
    where f has equal exponents at i and k contributes nothing."""
    u = Scalar.u_power(1) if u is None else u
    out: dict = {}
    for (exps, w), coeff in v.terms.items():
        uc = u * coeff
        p = exps[i - 1]
        for k in range(1, v.module.n + 1):
            if k == i or exps[k - 1] == p:
                continue
            tele = list(_tele_exps(exps, i, k))
            for sign, odd, acted in parts(k, w):
                for sgn, new in tele:
                    if odd and not (p + new[i - 1]) & 1:
                        sgn = -sgn
                    base = uc if sign * sgn > 0 else -uc
                    for w2, c2 in acted.items():
                        add_term(out, (new, w2), base * c2)
    return InducedVector(v.module, v.side, out)


def dunkl_x(i: int, v: InducedVector, u: Scalar | None = None) -> InducedVector:
    """x_i o (f (x) w) = u sum_{k != i} ((1 - s_{ki})f)/(y_i - y_k) (x)
    (1 - c_i c_k) s_{ki}(w)."""
    mod = v.module
    if mod.spin or v.side != "y":
        raise AlgebraError("dunkl_x acts on C[y] (x) W for a Clifford-Weyl module W")

    def parts(k, w):
        swapped = mod.act_perm(st.transposition(k, i, mod.n), w)
        cc = mod._apply(("c", i), mod._apply(("c", k), swapped))
        return [(1, False, swapped), (-1, False, cc)]

    return _dunkl(i, v, u, parts)


def dunkl_xi(i: int, v: InducedVector, u: Scalar | None = None) -> InducedVector:
    """xi_i o (f (x) w) = u sum_{k != i} ((1 - s_{ki})f)/(y_i - y_k) (x) [k,i](w)."""
    mod = v.module
    if not mod.spin or v.side != "y":
        raise AlgebraError("dunkl_xi acts on C[y] (x) W for a spin group module W")

    def parts(k, w):
        sgn, perm = st.spin_group(mod.n).odd_transposition(k, i)
        return [(sgn, False, mod.act_perm(perm, w))]

    return _dunkl(i, v, u, parts)


def dunkl_y(i: int, v: InducedVector, u: Scalar | None = None) -> InducedVector:
    """y_i o (f (x) w) on C[x] (x) W: the two-part divided difference of the
    y-side Dunkl operator, with the signed telescoping for the x_k + x_i
    denominator and the Clifford pair acting on W."""
    mod = v.module
    if mod.spin or v.side != "x":
        raise AlgebraError("dunkl_y acts on C[x] (x) W for a Clifford-Weyl module W")

    def parts(k, w):
        # (f - s_{ki} f)/(x_k - x_i) (x) s_{ki}(w), and
        # (f - nu_{ik} s_{ki} f)/(x_k + x_i) (x) c_i c_k s_{ki}(w)
        swapped = mod.act_perm(st.transposition(k, i, mod.n), w)
        cc = mod._apply(("c", i), mod._apply(("c", k), swapped))
        return [(-1, False, swapped), (1, True, cc)]

    return _dunkl(i, v, u, parts)


def _permute_exps(perm: tuple, exps: tuple) -> tuple:
    out = [0] * len(exps)
    for i, e in enumerate(exps, start=1):
        out[perm[i - 1] - 1] = e
    return tuple(out)


def act_token(token, v: InducedVector, u: Scalar | None = None) -> InducedVector:
    """Action of one generator token on an induced vector."""
    mod = v.module
    n = mod.n
    kind = token[0]
    if kind in ("s", "t") and (kind == "t") != mod.spin:
        raise AlgebraError(f"{mod.name} module has no action for {token!r}")
    if kind in ("s", "t", "sij", "oddtr"):
        if kind == "oddtr":
            sgn, perm = st.spin_group(n).odd_transposition(token[1], token[2])
        else:  # s(i,j), or the simple transposition (m, m+1) of s_m and t_m
            j = token[2] if kind == "sij" else token[1] + 1
            sgn, perm = 1, st.transposition(token[1], j, n)
        out: dict = {}
        for (exps, w), coeff in v.terms.items():
            for w2, c2 in mod.act_perm(perm, w).items():
                val = coeff * c2
                add_term(out, (_permute_exps(perm, exps), w2), val if sgn > 0 else -val)
        return InducedVector(mod, v.side, out)
    if kind == "c":
        i = token[1]
        out = {}
        for (exps, w), coeff in v.terms.items():
            twist = v.side == "x" and exps[i - 1] & 1
            for w2, c2 in mod.act_gen(token, w).items():
                val = coeff * c2
                add_term(out, (exps, w2), -val if twist else val)
        return InducedVector(mod, v.side, out)
    if kind in ("y", "xi", "x"):
        i = token[1]
        if kind == v.side:
            out = {}
            for (exps, w), coeff in v.terms.items():
                new = list(exps)
                new[i - 1] += 1
                add_term(out, (tuple(new), w), coeff)
            return InducedVector(mod, v.side, out)
        if kind == "x":
            return dunkl_x(i, v, u)
        if kind == "xi":
            return dunkl_xi(i, v, u)
        return dunkl_y(i, v, u)
    raise AlgebraError(f"no module action for token {token!r}")


class ColumnTable(dict):
    """(token, (exps, idx)) -> the terms of the image of v^exps (x) w_idx
    under one generator, on C[v] (x) W with v the ``side`` variables.  A
    column is computed by ``act_token`` on first lookup and kept for the
    life of the table, which the caller creates for one check, or for the
    two checks of one command, and then drops."""

    def __init__(self, module: FiniteModule, side: str, u: Scalar):
        super().__init__()
        self.module, self.side, self.u = module, side, u

    def __missing__(self, key):
        token, vec = key
        unit = InducedVector(self.module, self.side, {vec: ONE})
        col = self[key] = act_token(token, unit, self.u).terms
        return col

    def check(self, module: FiniteModule, side: str, u: Scalar) -> "ColumnTable":
        if (self.module, self.side, self.u) != (module, side, u):
            raise ValueError(f"column table of {self.module.name} ({self.side} side) "
                             f"does not serve {module.name} ({side} side)")
        return self


def _poly_monomials(n: int, degree_bound: int):
    if n == 0:
        yield ()
        return
    for rest in _poly_monomials(n - 1, degree_bound):
        used = sum(rest)
        for e in range(degree_bound - used + 1):
            yield (e,) + rest


def verify_module(family: str, W: FiniteModule, degree_bound: int = 4,
                  columns: ColumnTable | None = None) -> Report:
    """Every defining relation, applied as an operator identity to every
    induced basis vector of bounded degree, must evaluate to zero.

    The generator columns on C[y] (x) W come from ``columns``, a new
    :class:`ColumnTable` if None.  A relation word acts on a basis vector as
    a sparse product of columns: the first column is read in place, the
    word's coefficient multiplies in at the last token, whose image goes
    straight into the one dict that sums lhs - rhs."""
    sig = _MODULES[family][0](W.n)
    u = sig.u_scalar
    report = Report(f"module[{sig.name}, {W.name}, deg<={degree_bound}]")
    columns = ColumnTable(W, "y", u) if columns is None else columns.check(W, "y", u)
    vectors = [(exps, idx) for exps in _poly_monomials(W.n, degree_bound) for idx in range(W.dim())]
    for rel_id, lhs, rhs in sig.relations():
        words = [*lhs, *((-c, word) for c, word in rhs)]
        witness = None
        for base in vectors:
            got: dict = {}
            for coeff, word in words:
                if not word:
                    add_term(got, base, coeff)
                    continue
                # word[-1] acts first and word[0] last
                terms = columns[word[-1], base] if len(word) > 1 else {base: ONE}
                for token in word[-2:0:-1]:
                    nxt: dict = {}
                    for key, c in terms.items():
                        for key2, c2 in columns[token, key].items():
                            add_term(nxt, key2, c * c2)
                    terms = nxt
                for key, c in terms.items():
                    c = coeff if c is ONE else coeff * c
                    for key2, c2 in columns[word[0], key].items():
                        add_term(got, key2, c if c2 is ONE else c * c2)
            if got:
                exps, idx = base
                witness = f"on y^{exps} (x) {W.label(idx)}: {InducedVector(W, 'y', got).render()}"
                break
        report.add(rel_id, witness is None, witness)
    return report


def _engine_product(token, exps: tuple, W: FiniteModule, side: str) -> list:
    """generator * v^exps normalized by the engine, the terms with a surviving
    right slot dropped (it acts trivially on 1 (x) w), as (left exponents,
    group and Clifford letters, coeff) triples.  It does not depend on w."""
    n = W.n
    if side == "x":
        sig = alg.dahca(n)
    else:
        sig = alg.sdaha_yfirst(n) if W.spin else alg.dahca_yfirst(n)
    mono = (exps, st.identity(n), sig._zeros if sig.has_clifford else (), tuple([0] * n))
    prod = generator_element(sig, token) * monomial_element(sig, mono)
    return [(left, sig.letters((("G", grp), ("C", cliff))), coeff)
            for (left, grp, cliff, right), coeff in prod.terms.items() if not any(right)]


def _read_off(product: list, W: FiniteModule, idx: int, side: str) -> InducedVector:
    """An engine product on 1 (x) w_idx; its letters act through W's generators."""
    out: dict = {}
    for left, letters, coeff in product:
        for w2, c2 in W.act_tokens(letters, idx).items():
            add_term(out, (left, w2), coeff if c2 is ONE else coeff * c2)
    return InducedVector(W, side, out)


def oracle_equivalence(family: str, W: FiniteModule, degree_bound: int = 4, side: str = "y",
                       columns: ColumnTable | None = None) -> Report:
    """Dunkl action == induced-module action computed by engine rewriting.

    ``side="y"`` checks every generator of ``family`` on C[y] (x) W (report
    ``oracle[...]``); ``side="x"`` checks the DaHCa generators, dunkl_y among
    them, on C[x] (x) W (report ``oracle-x[...]``).  The engine normalizes
    generator * v^exps once per (generator, exps), in the y-first PBW order
    (v = y) or in the standard DaHCa order (v = x), and reads the terms
    without a right slot off against 1 (x) w for every basis vector w of W.
    The Dunkl side comes from ``columns``, a new :class:`ColumnTable` if None.
    """
    sig = _MODULES[family][0](W.n)
    u = sig.u_scalar
    columns = ColumnTable(W, side, u) if columns is None else columns.check(W, side, u)
    tag = "oracle" if side == "y" else "oracle-x"
    report = Report(f"{tag}[{sig.name}, {W.name}, deg<={degree_bound}]")
    for token in sig.generator_tokens():
        witness = None
        for exps in _poly_monomials(W.n, degree_bound):
            product = _engine_product(token, exps, W, side)
            for idx in range(W.dim()):
                direct = columns[token, (exps, idx)]
                via_engine = _read_off(product, W, idx, side)
                if direct != via_engine.terms:
                    witness = (
                        f"{side}^{exps} (x) {W.label(idx)}: "
                        f"dunkl={InducedVector(W, side, direct).render()} "
                        f"engine={via_engine.render()}"
                    )
                    break
            if witness is not None:
                break
        report.add(f"{tag}[{token[0]}{token[1]}]", witness is None, witness)
    return report
