"""The spin tower: CS_n^-, the degenerate spin affine Hecke algebra, the
rational sDaHa and its trigonometric version, with the odd Jucys-Murphy
elements, the anticommuting family frak-z_i, and the odd intertwiners."""

from __future__ import annotations

from . import algebras as alg
from . import structure as st
from .clifford_family import center_check as spin_center_check
from .clifford_family import power_sum_y
from .clifford_family import trig_commutator as spin_trig_commutator
from .engine import AlgebraError, Element, element_from_terms, generator_element
from .morphisms import check_affine_map
from .reports import Report
from .scalars import ONE, Scalar

__all__ = [
    "odd_transposition",
    "odd_jm",
    "frak_z",
    "intertwiner_psi",
    "spin_affine_embedding_check",
    "spin_evaluation_hom_check",
    "spin_center_check",
    "power_sum_y",
    "power_sum_xi_squared",
    "spin_center_example",
    "spin_trig_commutator",
]


def odd_transposition(i: int, j: int, sig) -> Element:
    """[i, j] as an element: a signed basis vector t of the spin group."""
    sgn, perm = st.spin_group(sig.n).odd_transposition(i, j)
    coeff = ONE if sgn > 0 else -ONE
    return element_from_terms(sig, [(coeff, (("perm", perm),))])


def odd_jm(i: int, sig) -> Element:
    """The odd Jucys-Murphy element M_i = sum_{k<i} [k, i]; M_1 = 0."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"Jucys-Murphy index {i} out of range 1..{sig.n}")
    return element_from_terms(sig, alg.jm_terms(True, i))


def frak_z(i: int, sig) -> Element:
    """frak-z_i = u^{-1} y_i xi_i + M_i in the rational sDaHa."""
    if not 1 <= i <= sig.n:
        raise AlgebraError(f"index {i} out of range 1..{sig.n}")
    if sig.u_scalar.is_zero:
        raise AlgebraError("frak_z needs u symbolic or specialized to a nonzero value")
    head = element_from_terms(sig, [(ONE / sig.u_scalar, (("y", i), ("xi", i)))])
    return head + odd_jm(i, sig)


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


def spin_affine_embedding_check(alpha: Scalar, n: int) -> Report:
    """b_i -> alpha*xi_i + frak-z_i, t_i -> t_i satisfies every relation of
    the degenerate spin affine Hecke algebra inside the sDaHa."""
    tgt = alg.sdaha(n)
    return check_affine_map(
        f"SpinAffineEmbed[alpha={alpha.render()}]", alg.spin_affine(n), tgt,
        lambda i: generator_element(tgt, ("xi", i)).scale(alpha) + frak_z(i, tgt))


def spin_evaluation_hom_check(n: int) -> Report:
    """The evaluation homomorphism b_i -> M_i onto CS_n^-."""
    tgt = alg.spin_sym(n)
    return check_affine_map("SpinEvaluation", alg.spin_affine(n), tgt,
                            lambda i: odd_jm(i, tgt), first_vanishes=True)


def power_sum_xi_squared(k: int, sig) -> Element:
    return element_from_terms(sig, [(ONE, (("xi", i),) * (2 * k)) for i in range(1, sig.n + 1)])


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
