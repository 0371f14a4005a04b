"""spinhecke: exact symbolic computation in the rational and trigonometric
double affine Hecke algebras of the spin symmetric group.

PBW normal forms for the eight presented superalgebras, their distinguished
elements (Jucys-Murphy elements, anticommuting families, intertwiners),
Dunkl operator modules, and machine verification of the isomorphisms
between the Clifford and spin towers.
"""

from .algebras import (
    ALGEBRA_NAMES,
    affine_hc,
    by_name,
    clifford_sym,
    dahca,
    dahca_localized,
    sdaha,
    sdaha_localized,
    specialize_u,
    spin_affine,
    spin_sym,
    sym,
    trig_dahca,
    trig_sdaha,
)
from .engine import (
    AlgebraError,
    AlgebraSignature,
    Element,
    bracket,
    clear_caches,
    confluence_probe,
    element_from_terms,
    generator_element,
    monomial_element,
    super_bracket,
    verify_relations,
)
from .exprparse import ParseError, parse_expression, parse_scalar
from .render import element_json, element_str
from .scalars import ONE, U, UINV, W, ZERO, PoleError, QOmega, Scalar
from .structure import koszul_sign, spin_group

__all__ = [
    "ALGEBRA_NAMES",
    "AlgebraError",
    "AlgebraSignature",
    "Element",
    "ONE",
    "ParseError",
    "PoleError",
    "QOmega",
    "Scalar",
    "U",
    "UINV",
    "W",
    "ZERO",
    "affine_hc",
    "bracket",
    "by_name",
    "clear_caches",
    "clifford_sym",
    "confluence_probe",
    "dahca",
    "dahca_localized",
    "element_from_terms",
    "element_json",
    "element_str",
    "generator_element",
    "koszul_sign",
    "monomial_element",
    "parse_expression",
    "parse_scalar",
    "sdaha",
    "sdaha_localized",
    "specialize_u",
    "spin_affine",
    "spin_group",
    "spin_sym",
    "super_bracket",
    "sym",
    "trig_dahca",
    "trig_sdaha",
    "verify_relations",
]

__version__ = "0.1.0"
