"""The distinguished elements of both towers and their identity suites.

The Clifford tower is C_n x| CS_n, the affine Hecke-Clifford algebra, the
rational DaHCa and its trigonometric version; the spin tower is CS_n^-, the
degenerate spin affine Hecke algebra, the rational sDaHa and its
trigonometric version.  Jucys-Murphy elements, the family z_i, power sums
and the affine embedding and evaluation checks are written once and read
the tower from ``sig.spin``: the spin tower puts xi_i and the odd
transposition [a, b] where the Clifford tower has x_i and (1 + c_a c_b) s_ab.
The intertwiners and the n = 2 center examples differ in form and keep one
function per tower.
"""

from __future__ import annotations

from . import algebras as alg
from . import structure as st
from .engine import (
    AlgebraError,
    Element,
    bracket,
    element_from_terms,
    generator_element,
    trig_comm_word_terms,
)
from .morphisms import _cw_pair, apply_morphism, check_affine_map, embed_inner, named_morphism
from .render import element_str
from .reports import Report
from .scalars import ONE, Scalar, W

__all__ = [
    "jucys_murphy",
    "z_element",
    "odd_transposition",
    "intertwiner_phi",
    "intertwiner_psi",
    "affine_embedding_check",
    "evaluation_hom_check",
    "center_check",
    "power_sum_y",
    "power_sum_squared",
    "center_example",
    "spin_center_example",
    "trig_commutator",
    "trig_affine_subalgebra_check",
    "check_distinguished_images",
]


def _letter(sig) -> str:
    return "xi" if sig.spin else "x"


def jucys_murphy(i: int, sig) -> Element:
    """M_i = sum_{k<i} (1 - c_i c_k) s_{ki} in the Clifford tower, the odd
    M_i = sum_{k<i} [k, i] in the spin tower; M_1 = 0."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"Jucys-Murphy index {i} out of range 1..{sig.n}")
    return element_from_terms(sig, alg.jm_terms(sig.spin, i))


def _u_inverse(sig) -> Scalar:
    if sig.u_scalar.is_zero:
        raise AlgebraError("z_i needs u symbolic or specialized to a nonzero value")
    return ONE / sig.u_scalar


def z_element(i: int, sig) -> Element:
    """z_i = u^{-1} y_i x_i + M_i in the rational DaHCa, frak-z_i =
    u^{-1} y_i xi_i + M_i in the rational sDaHa."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"index {i} out of range 1..{sig.n}")
    head = element_from_terms(sig, [(_u_inverse(sig), (("y", i), (_letter(sig), i)))])
    return head + jucys_murphy(i, sig)


def odd_transposition(i: int, j: int, sig) -> Element:
    """[i, j] as an element: a signed basis vector t of the spin group."""
    sgn, perm = st.spin_group(sig.n).odd_transposition(i, j)
    coeff = ONE if sgn > 0 else -ONE
    return element_from_terms(sig, [(coeff, (("perm", perm),))])


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


def intertwiner_psi(i: int, sig) -> Element:
    """psi_i = t_i(b_i^2 - b_{i+1}^2) - (b_i - b_{i+1})."""
    if not 1 <= i <= sig.n - 1:
        raise AlgebraError(f"intertwiner index {i} out of range 1..{sig.n - 1}")
    return element_from_terms(
        sig,
        [
            (ONE, (("t", i), ("b", i), ("b", i))),
            (-ONE, (("t", i), ("b", i + 1), ("b", i + 1))),
            (-ONE, (("b", i),)),
            (ONE, (("b", i + 1),)),
        ],
    )


def _affine_check(name: str, tgt, image, first_vanishes: bool = False) -> Report:
    """check_affine_map from the affine algebra of ``tgt``'s tower: the
    affine Hecke-Clifford algebra (a_i) or the spin one (b_i)."""
    src = (alg.spin_affine if tgt.spin else alg.affine_hc)(tgt.n)
    return check_affine_map(("Spin" if tgt.spin else "") + name, src, tgt, image,
                            first_vanishes)


def affine_embedding_check(alpha: Scalar, tgt) -> Report:
    """a_i -> alpha*x_i + z_i (b_i -> alpha*xi_i + frak-z_i in the spin
    tower), fixing c_i, s_i and t_i, must satisfy every affine relation
    inside the rational double affine algebra ``tgt``."""
    v = _letter(tgt)
    return _affine_check(
        f"AffineEmbed[alpha={alpha.render()}]", tgt,
        lambda i: generator_element(tgt, (v, i)).scale(alpha) + z_element(i, tgt))


def evaluation_hom_check(tgt) -> Report:
    """The evaluation homomorphism a_i -> M_i onto C_n x| CS_n, or
    b_i -> M_i onto CS_n^-."""
    return _affine_check("Evaluation", tgt, lambda i: jucys_murphy(i, tgt),
                         first_vanishes=True)


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


def power_sum_squared(k: int, sig) -> Element:
    """sum_i x_i^{2k}, or sum_i xi_i^{2k} in the spin tower."""
    v = _letter(sig)
    return element_from_terms(sig, [(ONE, ((v, i),) * (2 * k)) for i in range(1, sig.n + 1)])


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


def spin_center_example(sig, scaled: bool = True) -> Element:
    """The n = 2 central element xi_1^2 y_1 + xi_2^2 y_2 + 2(xi_1 - xi_2)t_1.

    The stated coefficient 2 makes the element central exactly at u = 2;
    with ``scaled`` the correction term carries u instead, which is central
    for every u and is the image of the even-side example under the
    Morita isomorphism up to a global factor 2.
    """
    if sig.n != 2:
        raise AlgebraError("the worked center example lives at n = 2")
    cu = sig.u_scalar if scaled else Scalar.from_rational(2)
    return element_from_terms(
        sig,
        [
            (ONE, (("xi", 1), ("xi", 1), ("y", 1))),
            (ONE, (("xi", 2), ("xi", 2), ("y", 2))),
            (cu, (("xi", 1), ("t", 1))),
            (-cu, (("xi", 2), ("t", 1))),
        ],
    )


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


def check_distinguished_images(n: int) -> Report:
    """The images under PhiHat and Phi of the intertwiners, the Jucys-Murphy
    elements, the embedded affine generators, and the odd transpositions."""
    report = Report(f"distinguished[n={n}]")

    def add(label, lhs, rhs):
        ok = lhs == rhs
        report.add(label, ok, None if ok else element_str(lhs - rhs))

    phi_hat = named_morphism("PhiHat", n)
    tgt_hat = phi_hat.target
    for i in range(1, n):
        psi = embed_inner(tgt_hat, intertwiner_psi(i, tgt_hat.inner))
        cterm = generator_element(tgt_hat, ("c", i)) - generator_element(tgt_hat, ("c", i + 1))
        add(f"PhiHat(phi{i})", apply_morphism(phi_hat, intertwiner_phi(i, phi_hat.source)),
            (cterm * psi).scale(-W))
    phi = named_morphism("Phi", n)
    src, tgt = phi.source, phi.target

    def w_c(i, inner):  # w c_i (x) inner
        return (generator_element(tgt, ("c", i)) * embed_inner(tgt, inner)).scale(W)

    for i in range(1, n + 1):
        add(f"Phi(M{i})", apply_morphism(phi, jucys_murphy(i, src)),
            w_c(i, jucys_murphy(i, tgt.inner)))
    for alpha in (Scalar.from_rational(0), ONE, Scalar.u_power(1)):
        for i in range(1, n + 1):
            lhs = generator_element(src, ("x", i)).scale(alpha) + z_element(i, src)
            rhs = generator_element(tgt.inner, ("xi", i)).scale(alpha) + z_element(i, tgt.inner)
            add(f"Phi(a*x{i}+z{i})[alpha={alpha.render()}]", apply_morphism(phi, lhs),
                w_c(i, rhs))
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if i != k:
                lhs = element_from_terms(src, _cw_pair(i, k, ("sij", i, k)))
                add(f"Phi(tr[{k},{i}])", apply_morphism(phi, lhs),
                    embed_inner(tgt, odd_transposition(k, i, tgt.inner)))
    return report
