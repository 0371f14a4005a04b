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
verification and the well-definedness checks of morphisms.
"""

from __future__ import annotations

from functools import lru_cache

from .engine import AlgebraSignature, Element, trig_comm_word_terms
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
    "trig_comm_terms",
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

def _coxeter_rels(sig, letter: str) -> list:
    n = sig.n
    rels = []
    for i in range(1, n):
        rels.append((f"{letter}{i}^2", [_t((letter, i), (letter, i))], [_t()]))
    for i in range(1, n - 1):
        rels.append(
            (
                f"braid[{letter}{i},{letter}{i+1}]",
                [_t((letter, i), (letter, i + 1), (letter, i))],
                [_t((letter, i + 1), (letter, i), (letter, i + 1))],
            )
        )
    sign = _MINUS if letter == "t" else ONE
    for i in range(1, n):
        for j in range(i + 2, n):
            rels.append(
                (
                    f"far[{letter}{i},{letter}{j}]",
                    [_t((letter, i), (letter, j))],
                    [_tc(sign, (letter, j), (letter, i))],
                )
            )
    return rels


def _clifford_rels(sig) -> list:
    n = sig.n
    rels = []
    for i in range(1, n + 1):
        rels.append((f"c{i}^2", [_t(("c", i), ("c", i))], [_t()]))
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append(
                (f"anti[c{i},c{j}]", [_t(("c", i), ("c", j))], [_tc(_MINUS, ("c", j), ("c", i))])
            )
    for m in range(1, n):
        sm = {m: m + 1, m + 1: m}
        for i in range(1, n + 1):
            rels.append(
                (
                    f"conj[s{m},c{i}]",
                    [_t(("s", m), ("c", i))],
                    [_t(("c", sm.get(i, i)), ("s", m))],
                )
            )
    return rels


def _even_poly_rels(sig, var: str) -> list:
    """Commuting polynomial letters with S_n conjugation and Clifford signs."""
    n = sig.n
    rels = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append(
                (f"comm[{var}{i},{var}{j}]", [_t((var, i), (var, j))], [_t((var, j), (var, i))])
            )
    for m in range(1, n):
        sm = {m: m + 1, m + 1: m}
        for i in range(1, n + 1):
            rels.append(
                (
                    f"conj[s{m},{var}{i}]",
                    [_t(("s", m), (var, i))],
                    [_t((var, sm.get(i, i)), ("s", m))],
                )
            )
    flip = -1 if var == "x" else 1
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sign = _MINUS if (i == j and flip < 0) else ONE
            rels.append(
                (
                    f"cliff[c{i},{var}{j}]",
                    [_t(("c", i), (var, j))],
                    [_tc(sign, (var, j), ("c", i))],
                )
            )
    return rels


def _relations_sym(sig) -> list:
    return _coxeter_rels(sig, "s")


def _relations_clifford_sym(sig) -> list:
    return _coxeter_rels(sig, "s") + _clifford_rels(sig)


def _relations_spin_sym(sig) -> list:
    return _coxeter_rels(sig, "t")


def _relations_affine_hc(sig) -> list:
    n = sig.n
    rels = _relations_clifford_sym(sig)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append((f"comm[a{i},a{j}]", [_t(("a", i), ("a", j))], [_t(("a", j), ("a", i))]))
    for i in range(1, n):
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            rels.append((f"comm[a{j},s{i}]", [_t(("a", j), ("s", i))], [_t(("s", i), ("a", j))]))
    for i in range(1, n):
        rels.append(
            (
                f"hecke[a{i+1},s{i}]",
                [_t(("a", i + 1), ("s", i)), _tc(_MINUS, ("s", i), ("a", i))],
                [_t(), _tc(_MINUS, ("c", i + 1), ("c", i))],
            )
        )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sign = _MINUS if i == j else ONE
            rels.append(
                (f"cliff[c{j},a{i}]", [_t(("c", j), ("a", i))], [_tc(sign, ("a", i), ("c", j))])
            )
    return rels


def _relations_spin_affine(sig) -> list:
    n = sig.n
    rels = _relations_spin_sym(sig)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append(
                (f"anti[b{i},b{j}]", [_t(("b", i), ("b", j))], [_tc(_MINUS, ("b", j), ("b", i))])
            )
    for i in range(1, n):
        rels.append(
            (
                f"hecke[b{i+1},t{i}]",
                [_t(("b", i + 1), ("t", i))],
                [_tc(_MINUS, ("t", i), ("b", i)), _t()],
            )
        )
    for j in range(1, n):
        for i in range(1, n + 1):
            if i in (j, j + 1):
                continue
            rels.append(
                (f"anti[t{j},b{i}]", [_t(("t", j), ("b", i))], [_tc(_MINUS, ("b", i), ("t", j))])
            )
    return rels


def _xy_cross_rels(sig) -> list:
    """[y_j, x_i] = u(1 + c_j c_i) s_ij and the diagonal correction sum."""
    n, u = sig.n, sig.u_scalar
    rels = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            rels.append(
                (
                    f"cross[y{j},x{i}]",
                    [_t(("y", j), ("x", i)), _tc(_MINUS, ("x", i), ("y", j))],
                    [
                        _tc(u, ("sij", i, j)),
                        _tc(u, ("c", j), ("c", i), ("sij", i, j)),
                    ],
                )
            )
    for i in range(1, n + 1):
        rhs = []
        for k in range(1, n + 1):
            if k == i:
                continue
            rhs.append(_tc(-u, ("sij", k, i)))
            rhs.append(_tc(-u, ("c", k), ("c", i), ("sij", k, i)))
        rels.append(
            (
                f"cross[y{i},x{i}]",
                [_t(("y", i), ("x", i)), _tc(_MINUS, ("x", i), ("y", i))],
                rhs,
            )
        )
    return rels


def _relations_dahca(sig) -> list:
    return _relations_clifford_sym(sig) + _even_poly_rels(sig, "x") + _even_poly_rels(sig, "y") + _xy_cross_rels(sig)


def _relations_sdaha(sig) -> list:
    n, u = sig.n, sig.u_scalar
    rels = _relations_spin_sym(sig)
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append(
                (f"anti[xi{i},xi{j}]", [_t(("xi", i), ("xi", j))], [_tc(_MINUS, ("xi", j), ("xi", i))])
            )
            rels.append((f"comm[y{i},y{j}]", [_t(("y", i), ("y", j))], [_t(("y", j), ("y", i))]))
    for i in range(1, n):
        rels.append(
            (f"conj[t{i},xi{i}]", [_t(("t", i), ("xi", i))], [_tc(_MINUS, ("xi", i + 1), ("t", i))])
        )
        rels.append((f"conj[t{i},y{i}]", [_t(("t", i), ("y", i))], [_t(("y", i + 1), ("t", i))]))
    for j in range(1, n):
        for i in range(1, n + 1):
            if i in (j, j + 1):
                continue
            rels.append(
                (f"anti[t{j},xi{i}]", [_t(("t", j), ("xi", i))], [_tc(_MINUS, ("xi", i), ("t", j))])
            )
            rels.append((f"comm[t{j},y{i}]", [_t(("t", j), ("y", i))], [_t(("y", i), ("t", j))]))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                continue
            rels.append(
                (
                    f"cross[y{i},xi{j}]",
                    [_t(("y", i), ("xi", j)), _tc(_MINUS, ("xi", j), ("y", i))],
                    [_tc(u, ("oddtr", i, j))],
                )
            )
    for i in range(1, n + 1):
        rhs = [_tc(u, ("oddtr", i, k)) for k in range(1, n + 1) if k != i]
        rels.append(
            (
                f"cross[y{i},xi{i}]",
                [_t(("y", i), ("xi", i)), _tc(_MINUS, ("xi", i), ("y", i))],
                rhs,
            )
        )
    return rels


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


def trig_comm_terms(sig, i: int, eta: tuple) -> list:
    """Token form of the closed commutator [r_i, e^eta] (right side of the
    defining relation), shared by the relation table and the CLI."""
    out = []
    for coeff, word in trig_comm_word_terms(sig, i, tuple(eta)):
        toks = []
        for atom in word:
            if atom[0] == "E":
                toks.append(("E", atom[1]))
            elif atom[0] == "G":
                toks.append(("perm", atom[1]))
            else:
                toks.extend(("c", m) for m, bit in enumerate(atom[1], start=1) if bit)
        out.append((coeff, tuple(toks)))
    return out


def _e_block_rels(sig, letter: str) -> list:
    n = sig.n
    rels = []
    for i in range(1, n + 1):
        rels.append((f"unit[e{i}]", [_t(("e", i), ("einv", i))], [_t()]))
        for j in range(i + 1, n + 1):
            rels.append((f"comm[e{i},e{j}]", [_t(("e", i), ("e", j))], [_t(("e", j), ("e", i))]))
    for m in range(1, n):
        sm = {m: m + 1, m + 1: m}
        for i in range(1, n + 1):
            rels.append(
                (
                    f"conj[{letter}{m},e{i}]",
                    [_t((letter, m), ("e", i))],
                    [_t(("e", sm.get(i, i)), (letter, m))],
                )
            )
    if sig.has_clifford:
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                rels.append(
                    (f"comm[c{j},e{i}]", [_t(("c", j), ("e", i))], [_t(("e", i), ("c", j))])
                )
    return rels


def _relations_trig_dahca(sig) -> list:
    n, u = sig.n, sig.u_scalar
    rels = _relations_clifford_sym(sig) + _e_block_rels(sig, "s")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append(
                (f"comm[ev{i},ev{j}]", [_t(("epsv", i), ("epsv", j))], [_t(("epsv", j), ("epsv", i))])
            )
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            sign = _MINUS if i == j else ONE
            rels.append(
                (
                    f"cliff[c{j},ev{i}]",
                    [_t(("c", j), ("epsv", i))],
                    [_tc(sign, ("epsv", i), ("c", j))],
                )
            )
    for i in range(1, n):
        rels.append(
            (
                f"hecke[ev{i+1},s{i}]",
                [_t(("epsv", i + 1), ("s", i)), _tc(_MINUS, ("s", i), ("epsv", i))],
                [_tc(u), _tc(-u, ("c", i + 1), ("c", i))],
            )
        )
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            rels.append(
                (f"comm[ev{j},s{i}]", [_t(("epsv", j), ("s", i))], [_t(("s", i), ("epsv", j))])
            )
    for i in range(1, n + 1):
        for eta in eta_instances(n):
            rels.append(
                (
                    f"eta[ev{i},{eta}]",
                    [_t(("epsv", i), ("E", eta)), _tc(_MINUS, ("E", eta), ("epsv", i))],
                    trig_comm_terms(sig, i, eta),
                )
            )
    return rels


def _relations_trig_sdaha(sig) -> list:
    n, u = sig.n, sig.u_scalar
    rels = _relations_spin_sym(sig) + _e_block_rels(sig, "t")
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            rels.append(
                (f"anti[z{i},z{j}]", [_t(("zeta", i), ("zeta", j))], [_tc(_MINUS, ("zeta", j), ("zeta", i))])
            )
    for i in range(1, n):
        rels.append(
            (
                f"hecke[z{i+1},t{i}]",
                [_t(("zeta", i + 1), ("t", i)), _t(("t", i), ("zeta", i))],
                [_tc(u)],
            )
        )
        for j in range(1, n + 1):
            if j in (i, i + 1):
                continue
            rels.append(
                (f"anti[z{j},t{i}]", [_t(("zeta", j), ("t", i))], [_tc(_MINUS, ("t", i), ("zeta", j))])
            )
    for i in range(1, n + 1):
        for eta in eta_instances(n):
            rels.append(
                (
                    f"eta[z{i},{eta}]",
                    [_t(("zeta", i), ("E", eta)), _tc(_MINUS, ("E", eta), ("zeta", i))],
                    trig_comm_terms(sig, i, eta),
                )
            )
    return rels


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
