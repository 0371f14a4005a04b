"""The non-spin tower: C_n x| CS_n, the affine Hecke-Clifford algebra, the
rational DaHCa and its trigonometric version, with their distinguished
elements (Jucys-Murphy elements, the commuting family z_i, intertwiners)
and identity suites."""

from __future__ import annotations

from . import algebras as alg
from .engine import (
    AlgebraError,
    Element,
    bracket,
    element_from_terms,
    generator_element,
    trig_comm_word_terms,
)
from .morphisms import check_affine_map
from .render import element_str
from .reports import Report
from .scalars import ONE, Scalar

__all__ = [
    "jucys_murphy",
    "z_element",
    "intertwiner_phi",
    "affine_embedding_check",
    "evaluation_hom_check",
    "center_check",
    "power_sum_y",
    "power_sum_x_squared",
    "center_example",
    "trig_commutator",
    "trig_affine_subalgebra_check",
]


def jucys_murphy(i: int, sig) -> Element:
    """M_i = sum_{k<i} (1 - c_i c_k) s_{ki}; M_1 = 0."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"Jucys-Murphy index {i} out of range 1..{sig.n}")
    return element_from_terms(sig, alg.jm_terms(False, i))


def _u_inverse(sig) -> Scalar:
    if sig.u_scalar.is_zero:
        raise AlgebraError("z_i needs u symbolic or specialized to a nonzero value")
    return ONE / sig.u_scalar


def z_element(i: int, sig) -> Element:
    """z_i = u^{-1} y_i x_i + M_i in the rational DaHCa."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"index {i} out of range 1..{sig.n}")
    head = element_from_terms(sig, [(_u_inverse(sig), (("y", i), ("x", i)))])
    return head + jucys_murphy(i, sig)


def intertwiner_phi(i: int, sig) -> Element:
    """phi_i = s_i(a_i^2 - a_{i+1}^2) + (a_i + a_{i+1}) + c_i c_{i+1}(a_i - a_{i+1})."""
    if not 1 <= i <= sig.n - 1:
        raise AlgebraError(f"intertwiner index {i} out of range 1..{sig.n - 1}")
    return element_from_terms(
        sig,
        [
            (ONE, (("s", i), ("a", i), ("a", i))),
            (-ONE, (("s", i), ("a", i + 1), ("a", i + 1))),
            (ONE, (("a", i),)),
            (ONE, (("a", i + 1),)),
            (ONE, (("c", i), ("c", i + 1), ("a", i))),
            (-ONE, (("c", i), ("c", i + 1), ("a", i + 1))),
        ],
    )


def affine_embedding_check(alpha: Scalar, n: int) -> Report:
    """a_i -> alpha*x_i + z_i, c_i -> c_i, s_i -> s_i must satisfy every
    affine Hecke-Clifford relation inside the double affine algebra."""
    tgt = alg.dahca(n)
    return check_affine_map(
        f"AffineEmbed[alpha={alpha.render()}]", alg.affine_hc(n), tgt,
        lambda i: generator_element(tgt, ("x", i)).scale(alpha) + z_element(i, tgt))


def evaluation_hom_check(n: int) -> Report:
    """The evaluation homomorphism a_i -> M_i onto C_n x| CS_n."""
    tgt = alg.clifford_sym(n)
    return check_affine_map("Evaluation", alg.affine_hc(n), tgt,
                            lambda i: jucys_murphy(i, tgt), first_vanishes=True)


def center_check(candidate: Element) -> Report:
    """Even parity plus vanishing brackets against every generator."""
    sig = candidate.sig
    report = Report(f"center[{sig.name}, n={sig.n}]")
    parity = candidate.parity()
    report.add("even-parity", parity == "even", parity)
    for tok in sig.generator_tokens():
        com = bracket(candidate, generator_element(sig, tok))
        report.add(
            f"commutes[{tok[0]}{tok[1]}]",
            com.is_zero,
            None if com.is_zero else element_str(com),
        )
    return report


def power_sum_y(k: int, sig) -> Element:
    return element_from_terms(sig, [(ONE, (("y", i),) * k) for i in range(1, sig.n + 1)])


def power_sum_x_squared(k: int, sig) -> Element:
    return element_from_terms(sig, [(ONE, (("x", i),) * (2 * k)) for i in range(1, sig.n + 1)])


def center_example(sig, scaled: bool = True) -> Element:
    """The n = 2 central element x_1^2 y_1 + x_2^2 y_2 - (x_1+x_2)s_12
    - c_1(x_1+x_2)s_12 c_1, with the correction terms carrying a factor u
    when ``scaled`` (the verbatim element is central at u = 1)."""
    if sig.n != 2:
        raise AlgebraError("the worked center example lives at n = 2")
    cu = sig.u_scalar if scaled else ONE
    terms = [
        (ONE, (("x", 1), ("x", 1), ("y", 1))),
        (ONE, (("x", 2), ("x", 2), ("y", 2))),
    ]
    for i in (1, 2):
        terms.append((-cu, (("x", i), ("sij", 1, 2))))
        terms.append((-cu, (("c", 1), ("x", i), ("sij", 1, 2), ("c", 1))))
    return element_from_terms(sig, terms)


def trig_commutator(i: int, eta, sig) -> Element:
    """Closed form of [epsv_i, e^eta] in the trigonometric DaHCa, or of
    [zeta_i, e^eta] in the trigonometric sDaHa, by exact telescoping."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"index {i} out of range 1..{sig.n}")
    if not sig.left_laurent:
        raise AlgebraError("trig_commutator lives in a trigonometric algebra")
    out: dict = {}
    for coeff, word in trig_comm_word_terms(sig, i, tuple(eta)):
        sig._insert_term(word, sig.one_mono, coeff, out)
    return Element(sig, out)


def trig_affine_subalgebra_check(n: int) -> Report:
    """a_i -> u^{-1} epsv_i, c_i -> c_i, s_i -> s_i satisfies every affine
    Hecke-Clifford relation inside the trigonometric algebra (the hecke
    relation there carries u, so the embedded generators must be rescaled)."""
    tgt = alg.trig_dahca(n)
    uinv = _u_inverse(tgt)
    return check_affine_map("TrigAffineEmbed", alg.affine_hc(n), tgt,
                            lambda i: generator_element(tgt, ("epsv", i)).scale(uinv))
