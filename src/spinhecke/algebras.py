"""The presented algebras: signature factories and defining relation tables.

Eight presentations (plus the plain symmetric group) are exposed:

================  =====================================================
Sym               C S_n
CliffordSym       C_n x| C S_n
SpinSym           C S_n^-
AffineHC          the degenerate affine Hecke-Clifford algebra (a_i)
SpinAffine        the degenerate spin affine Hecke algebra (b_i)
DaHCa             the rational double affine Hecke-Clifford algebra
SDaHa             the rational spin double affine Hecke algebra
TrigDaHCa         the trigonometric Hecke-Clifford algebra
TrigSDaHa         the trigonometric spin algebra
================  =====================================================

Normal-form slot orders follow the PBW decompositions: x sigma c y for
DaHCa, xi t y for SDaHa, a sigma c / b t for the affine pair, and
e^lambda sigma c epsv / e^lambda t zeta for the trigonometric pair.
Internal variants: ``*_localized`` widens the y slot to Laurent exponents,
``*_yfirst`` reverses the polynomial slots (used as the induced-module
oracle order).

Relations are stored as token words, so the same table drives both engine
verification and the well-definedness checks of morphisms.  T_ab, the
Jucys-Murphy sums and the Hecke row are each spelled once, by ``_t_terms``,
``jm_terms`` (which the morphisms read too) and ``_hecke``.
"""

from __future__ import annotations

from functools import lru_cache

from .engine import AlgebraSignature, Element
from .scalars import ONE, QOmega, Scalar

__all__ = [
    "ALGEBRA_NAMES",
    "by_name",
    "sym",
    "clifford_sym",
    "spin_sym",
    "affine_hc",
    "spin_affine",
    "dahca",
    "sdaha",
    "trig_dahca",
    "trig_sdaha",
    "dahca_localized",
    "sdaha_localized",
    "dahca_yfirst",
    "sdaha_yfirst",
    "specialize_u",
    "eta_instances",
    "jm_terms",
]

ALGEBRA_NAMES = (
    "Sym",
    "CliffordSym",
    "SpinSym",
    "AffineHC",
    "SpinAffine",
    "DaHCa",
    "SDaHa",
    "TrigDaHCa",
    "TrigSDaHa",
)
_FAMILIES = frozenset(name.lower() for name in ALGEBRA_NAMES)

_MINUS = Scalar.from_rational(-1)


def _t(*toks):
    return (ONE, toks)


def _tc(coeff, *toks):
    return (coeff, toks)


# ---------------------------------------------------------------------------
# Relation tables (token level)
# ---------------------------------------------------------------------------
#
# Most defining relations are first*second = sign*second'*first, built by _row.
# Each builder emits one family of rows over all index pairs; the Hecke and
# cross rows of every table come from _hecke and _cross_rels.

_SHORT = {"epsv": "ev", "zeta": "z"}  # letters abbreviated in relation ids


def _rid(kind: str, first: tuple, second: tuple) -> str:
    a, b = (f"{_SHORT.get(tok[0], tok[0])}{tok[1]}" for tok in (first, second))
    return f"{kind}[{a},{b}]"


def _row(rel_id: str, first: tuple, second: tuple, sign=ONE, image=None) -> tuple:
    """first*second = sign * image * first, where image defaults to second."""
    return (rel_id, [_t(first, second)], [_tc(sign, image or second, first)])


def _squares(letter: str, top: int) -> list:
    return [(f"{letter}{i}^2", [_t((letter, i), (letter, i))], [_t()]) for i in range(1, top + 1)]


def _like(n: int, v: str, sign=ONE) -> list:
    """comm[v_i,v_j] (sign 1) or anti[v_i,v_j] (sign -1) for i < j."""
    kind = "comm" if sign is ONE else "anti"
    return [
        _row(_rid(kind, (v, i), (v, j)), (v, i), (v, j), sign)
        for i in range(1, n + 1)
        for j in range(i + 1, n + 1)
    ]


def _conj(n: int, g: str, v: str, sign=ONE, moved_only: bool = False) -> list:
    """conj[g_m,v_i]: g_m v_i = sign v_{s_m(i)} g_m, for every i or only i = m."""
    rows = []
    for m in range(1, n):
        sm = {m: m + 1, m + 1: m}
        for i in (m,) if moved_only else range(1, n + 1):
            rows.append(_row(_rid("conj", (g, m), (v, i)), (g, m), (v, i), sign, (v, sm.get(i, i))))
    return rows


def _far(n: int, g: str, v: str, sign=ONE, letter_first: bool = False) -> list:
    """comm/anti rows of g_m and v_i for i outside {m, m+1}, written g_m v_i
    (or v_i g_m when ``letter_first``)."""
    kind = "comm" if sign is ONE else "anti"
    rows = []
    for m in range(1, n):
        for i in range(1, n + 1):
            if i not in (m, m + 1):
                a, b = ((v, i), (g, m)) if letter_first else ((g, m), (v, i))
                rows.append(_row(_rid(kind, a, b), a, b, sign))
    return rows


def _cliff(n: int, v: str, diag=ONE, kind: str = "cliff") -> list:
    """c_i v_j = s v_j c_i with s = diag when i = j and 1 otherwise."""
    return [
        _row(_rid(kind, ("c", i), (v, j)), ("c", i), (v, j), diag if i == j else ONE)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    ]


def _t_terms(spin: bool, coeff, a: int, b: int, head: tuple = ()) -> list:
    """coeff * head * T_ab as token terms: T_ab = (1 + c_a c_b) s_ab, or the
    odd transposition [a, b] in the spin tower."""
    if spin:
        return [(coeff, head + (("oddtr", a, b),))]
    sab = ("sij", a, b)
    return [(coeff, head + (sab,)), (coeff, head + (("c", a), ("c", b), sab))]


def jm_terms(spin: bool, i: int) -> list:
    """The Jucys-Murphy element M_i = sum_{k<i} T_ki as token terms."""
    return [term for k in range(1, i) for term in _t_terms(spin, ONE, k, i)]


def _hecke(sig, v: str, kappa) -> list:
    """hecke[v_{i+1},g_i]: v_{i+1} s_i - s_i v_i = kappa (1 - c_{i+1} c_i) in
    the Clifford tower, v_{i+1} t_i + t_i v_i = kappa in the spin one."""
    g, sign = ("t", ONE) if sig.spin else ("s", _MINUS)
    return [
        (
            _rid("hecke", (v, i + 1), (g, i)),
            [_t((v, i + 1), (g, i)), _tc(sign, (g, i), (v, i))],
            [_tc(kappa)] + ([] if sig.spin else [_tc(-kappa, ("c", i + 1), ("c", i))]),
        )
        for i in range(1, sig.n)
    ]


def _coxeter_rels(n: int, letter: str) -> list:
    braids = [
        (
            f"braid[{letter}{i},{letter}{i+1}]",
            [_t((letter, i), (letter, i + 1), (letter, i))],
            [_t((letter, i + 1), (letter, i), (letter, i + 1))],
        )
        for i in range(1, n - 1)
    ]
    sign = _MINUS if letter == "t" else ONE
    far = [
        _row(_rid("far", (letter, i), (letter, j)), (letter, i), (letter, j), sign)
        for i in range(1, n)
        for j in range(i + 2, n)
    ]
    return _squares(letter, n - 1) + braids + far


def _clifford_rels(n: int) -> list:
    """c_i^2 = 1 and anti[c_i,c_j]."""
    return _squares("c", n) + _like(n, "c", _MINUS)


def _relations_sym(sig) -> list:
    return _coxeter_rels(sig.n, "s")


def _relations_clifford_sym(sig) -> list:
    n = sig.n
    return _coxeter_rels(n, "s") + _clifford_rels(n) + _conj(n, "s", "c")


def _relations_spin_sym(sig) -> list:
    return _coxeter_rels(sig.n, "t")


def _relations_affine_hc(sig) -> list:
    n = sig.n
    return (
        _relations_clifford_sym(sig)
        + _like(n, "a")
        + _far(n, "s", "a", letter_first=True)
        + _hecke(sig, "a", ONE)
        + _cliff(n, "a", _MINUS)
    )


def _relations_spin_affine(sig) -> list:
    n = sig.n
    hecke = _hecke(sig, "b", ONE)
    return _coxeter_rels(n, "t") + _like(n, "b", _MINUS) + hecke + _far(n, "t", "b", _MINUS)


def _cross_rels(sig) -> list:
    """[y_i, v_j] = u T_ij for i != j and -u sum_{k != i} T_ki for i = j, with
    v = x in DaHCa and xi in SDaHa."""
    n, u, v = sig.n, sig.u_scalar, "xi" if sig.spin else "x"
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = (_t_terms(sig.spin, u, i, j) if i != j else
                   [t for k in range(1, n + 1) if k != i for t in _t_terms(sig.spin, -u, k, i)])
            lhs = [_t(("y", i), (v, j)), _tc(_MINUS, (v, j), ("y", i))]
            rels.append((f"cross[y{i},{v}{j}]", lhs, rhs))
    return rels


def _relations_dahca(sig) -> list:
    n = sig.n
    return (
        _relations_clifford_sym(sig)
        + _like(n, "x") + _conj(n, "s", "x") + _cliff(n, "x", _MINUS)
        + _like(n, "y") + _conj(n, "s", "y") + _cliff(n, "y")
        + _cross_rels(sig)
    )


def _relations_sdaha(sig) -> list:
    n = sig.n
    return (
        _coxeter_rels(n, "t")
        + _like(n, "xi", _MINUS)
        + _conj(n, "t", "xi", _MINUS, moved_only=True)
        + _far(n, "t", "xi", _MINUS)
        + _like(n, "y") + _conj(n, "t", "y", moved_only=True) + _far(n, "t", "y")
        + _cross_rels(sig)
    )


def _unit_y_rels(sig) -> list:
    """y_i y_i^-1 = y_i^-1 y_i = 1, added for the localized algebras."""
    rels = []
    for i in range(1, sig.n + 1):
        rels.append((f"unit[y{i}]", [_t(("y", i), ("yinv", i))], [_t()]))
        rels.append((f"unit[yinv{i}]", [_t(("yinv", i), ("y", i))], [_t()]))
    return rels


def eta_instances(n: int) -> list:
    """The finite weight set used to instantiate the [r_i, e^eta] relation:
    all weights of height <= 2 (up to sign patterns that occur there)."""
    etas = []
    for j in range(n):
        for s in (1, -1):
            vec = [0] * n
            vec[j] = s
            etas.append(tuple(vec))
            vec2 = [0] * n
            vec2[j] = 2 * s
            etas.append(tuple(vec2))
    for j in range(n):
        for k in range(j + 1, n):
            for sj, sk in ((1, 1), (-1, -1), (1, -1), (-1, 1)):
                vec = [0] * n
                vec[j], vec[k] = sj, sk
                etas.append(tuple(vec))
    return etas


def _divide_one_minus(num: dict, delta: tuple) -> dict:
    """The quotient of a Laurent polynomial {weight: int} by 1 - e^delta, by
    long division from its lowest term along delta; the division must be exact."""
    num, quot = dict(num), {}
    while num:
        w = min(num, key=lambda v: sum(a * b for a, b in zip(v, delta)))
        c = quot[w] = num.pop(w)
        up = tuple(a + b for a, b in zip(w, delta))
        rest = num.pop(up, 0) + c
        if rest:
            num[up] = rest
    return quot


def _eta_rhs(sig, i: int, eta: tuple) -> list:
    """[r_i, e^eta] as token terms: u sum_{k != i} sign_k Q_k T_ki (``_t_terms``),
    with Q_k = (e^eta - e^{s_ik eta}) / (1 - e^delta), delta = eps_k - eps_i and
    sign +1 when k > i, delta = eps_i - eps_k and sign -1 when k < i.  Computed
    here by division, apart from the engine's rewriting."""
    n, u = sig.n, sig.u_scalar
    out = []
    for k in range(1, n + 1):
        if k == i or eta[i - 1] == eta[k - 1]:
            continue
        swapped = list(eta)
        swapped[i - 1], swapped[k - 1] = eta[k - 1], eta[i - 1]
        lo, hi = min(i, k), max(i, k)
        delta = tuple(1 if m == hi else -1 if m == lo else 0 for m in range(1, n + 1))
        quot = _divide_one_minus({tuple(eta): 1, tuple(swapped): -1}, delta)
        for w, c in quot.items():
            coeff = Scalar.from_rational(c if k > i else -c) * u
            out += _t_terms(sig.spin, coeff, k, i, (("E", w),))
    return out


def _trig_rels(sig) -> list:
    """The Laurent block of a trigonometric algebra: e_i e_i^-1 = 1, the e's
    commute, are permuted by the group and commute with the c's, and the
    defining commutators eta[r_i, e^eta] for the weights of eta_instances."""
    n, g, r = sig.n, "t" if sig.spin else "s", sig.right_var
    rels = [(f"unit[e{i}]", [_t(("e", i), ("einv", i))], [_t()]) for i in range(1, n + 1)]
    rels += _like(n, "e") + _conj(n, g, "e")
    if sig.has_clifford:
        rels += _cliff(n, "e", kind="comm")
    for i in range(1, n + 1):
        for eta in eta_instances(n):
            lhs = [_t((r, i), ("E", eta)), _tc(_MINUS, ("E", eta), (r, i))]
            rels.append((f"eta[{_SHORT[r]}{i},{eta}]", lhs, _eta_rhs(sig, i, eta)))
    return rels


def _relations_trig_dahca(sig) -> list:
    n = sig.n
    return (
        _relations_clifford_sym(sig)
        + _trig_rels(sig)
        + _like(n, "epsv")
        + _cliff(n, "epsv", _MINUS)
        + _hecke(sig, "epsv", sig.u_scalar)
        + _far(n, "s", "epsv", letter_first=True)
    )


def _relations_trig_sdaha(sig) -> list:
    n = sig.n
    return (
        _coxeter_rels(n, "t")
        + _trig_rels(sig)
        + _like(n, "zeta", _MINUS)
        + _hecke(sig, "zeta", sig.u_scalar)
        + _far(n, "t", "zeta", _MINUS, letter_first=True)
    )


_RELATION_BUILDERS = {
    "sym": _relations_sym,
    "cliffordsym": _relations_clifford_sym,
    "spinsym": _relations_spin_sym,
    "affinehc": _relations_affine_hc,
    "spinaffine": _relations_spin_affine,
    "dahca": _relations_dahca,
    "dahca_loc": lambda sig: _relations_dahca(sig) + _unit_y_rels(sig),
    "dahca_yfirst": _relations_dahca,
    "sdaha": _relations_sdaha,
    "sdaha_loc": lambda sig: _relations_sdaha(sig) + _unit_y_rels(sig),
    "sdaha_yfirst": _relations_sdaha,
    "trigdahca": _relations_trig_dahca,
    "trigsdaha": _relations_trig_sdaha,
}


# ---------------------------------------------------------------------------
# Signature factories
# ---------------------------------------------------------------------------

_LAYOUTS = {
    # family: (display name, spin, clifford, left_var, right_var, llaur, rlaur)
    "sym": ("Sym", False, False, None, None, False, False),
    "cliffordsym": ("CliffordSym", False, True, None, None, False, False),
    "spinsym": ("SpinSym", True, False, None, None, False, False),
    "affinehc": ("AffineHC", False, True, "a", None, False, False),
    "spinaffine": ("SpinAffine", True, False, "b", None, False, False),
    "dahca": ("DaHCa", False, True, "x", "y", False, False),
    "dahca_loc": ("DaHCa[y^-1]", False, True, "x", "y", False, True),
    "dahca_yfirst": ("DaHCa[y-first]", False, True, "y", "x", False, False),
    "sdaha": ("SDaHa", True, False, "xi", "y", False, False),
    "sdaha_loc": ("SDaHa[y^-1]", True, False, "xi", "y", False, True),
    "sdaha_yfirst": ("SDaHa[y-first]", True, False, "y", "xi", False, False),
    "trigdahca": ("TrigDaHCa", False, True, "e", "epsv", True, False),
    "trigsdaha": ("TrigSDaHa", True, False, "e", "zeta", True, False),
}


@lru_cache(maxsize=None)
def _make(family: str, n: int, u_value: QOmega | None) -> AlgebraSignature:
    name, spin, cliff, lvar, rvar, llaur, rlaur = _LAYOUTS[family]
    return AlgebraSignature(
        name,
        family,
        n,
        spin=spin,
        has_clifford=cliff,
        left_var=lvar,
        right_var=rvar,
        left_laurent=llaur,
        right_laurent=rlaur,
        u_value=u_value,
        relations_builder=_RELATION_BUILDERS[family],
    )


def sym(n: int) -> AlgebraSignature:
    return _make("sym", n, None)


def clifford_sym(n: int) -> AlgebraSignature:
    return _make("cliffordsym", n, None)


def spin_sym(n: int) -> AlgebraSignature:
    return _make("spinsym", n, None)


def affine_hc(n: int) -> AlgebraSignature:
    return _make("affinehc", n, None)


def spin_affine(n: int) -> AlgebraSignature:
    return _make("spinaffine", n, None)


def dahca(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("dahca", n, u)


def sdaha(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("sdaha", n, u)


def trig_dahca(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("trigdahca", n, u)


def trig_sdaha(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("trigsdaha", n, u)


def dahca_localized(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("dahca_loc", n, u)


def sdaha_localized(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("sdaha_loc", n, u)


def dahca_yfirst(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("dahca_yfirst", n, u)


def sdaha_yfirst(n: int, u: QOmega | None = None) -> AlgebraSignature:
    return _make("sdaha_yfirst", n, u)


def by_name(name: str, n: int, u: QOmega | None = None) -> AlgebraSignature:
    family = name.lower().replace("-", "").replace("_", "")
    if family not in _FAMILIES:
        raise ValueError(f"unknown algebra {name!r}; choose from {', '.join(ALGEBRA_NAMES)}")
    if family in ("sym", "cliffordsym", "spinsym", "affinehc", "spinaffine"):
        return _make(family, n, None)
    return _make(family, n, u)


def specialize_u(element: Element, u0: QOmega) -> Element:
    """Term-wise specialization u -> u0 into the matching specialized algebra."""
    sig = element.sig
    target = _make(sig.family, sig.n, u0)
    return element.specialize_coefficients(u0, target)
