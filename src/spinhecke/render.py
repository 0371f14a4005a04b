"""Canonical text and JSON forms for monomials and elements.

Every signature class provides ``mono_str(m)``, the text of one basis
monomial, and ``sort_key(m)``, the order of terms in an element; see
:meth:`spinhecke.engine.AlgebraSignature.mono_str`.
"""

from __future__ import annotations

from .scalars import _join_signed

__all__ = ["element_str", "element_json"]


def sorted_terms(e) -> list:
    terms = e.terms
    return [(m, terms[m]) for m in sorted(terms, key=e.sig.sort_key)]


def element_str(e) -> str:
    if e.is_zero:
        return "0"
    pieces = []
    for mono, coeff in sorted_terms(e):
        ms = e.sig.mono_str(mono)
        cs = coeff.render(atom=True)
        if cs == "1":
            body = ms
        elif cs == "-1":
            body = f"-{ms}"
        elif ms == "1":
            body = coeff.render(atom=False)
        else:
            body = f"{cs}*{ms}"
        pieces.append(body)
    return _join_signed(pieces)


def element_json(e) -> dict:
    return {
        "algebra": e.sig.name,
        "n": e.sig.n,
        "terms": [
            {"coeff": coeff.render(), "mono": e.sig.mono_str(mono)}
            for mono, coeff in sorted_terms(e)
        ],
    }
