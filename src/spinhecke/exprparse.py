"""Expression front end for the CLI.

Grammar (precedence ``^`` over ``*``/``/`` over ``+``/``-``, left
associative)::

    expr    := term (('+'|'-') term)*
    term    := factor (('*'|'/') factor)*
    factor  := ('-')* power
    power   := atom ('^' ('-')? integer)?
    atom    := integer | 'u' | 'w' | generator | call
             | '(' expr ')' | '[' expr ',' expr ']' | '{' expr ',' expr '}'

Generators: ``x1 y2 c3 s1 t2 xi1 a1 b2`` and the call forms
``e(1) einv(2) epsv(1) zeta(1) M(2) Ms(2) z(1) fz(1) phi(1) psi(1)
s(1,3) tr(1,3)``.  Two-digit ``s13`` abbreviates the transposition
``s(1,3)``.  ``[A,B]`` is the commutator, ``{A,B}`` the anticommutator.
"""

from __future__ import annotations

import re

from .engine import AlgebraError, Element, generator_element, super_bracket, bracket
from .scalars import Scalar, W

__all__ = ["ParseError", "parse_expression", "parse_scalar"]


class ParseError(ValueError):
    """Lexical or syntactic error, with the offending position."""


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*/^(),\[\]{}]))"
)

_CALL_NAMES = {"e", "einv", "epsv", "zeta", "M", "Ms", "z", "fz", "phi", "psi", "s", "tr"}
_GEN_PREFIXES = ("xi", "x", "y", "c", "s", "t", "a", "b", "zeta", "epsv")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or not text[pos:].strip():
            if not text[pos:].strip():
                break
            raise ParseError(f"lexical error at position {pos}: {text[pos:pos+8]!r}")
        if m.lastgroup is None:
            break
        tokens.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, sig):
        self.text = text
        self.sig = sig
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, value: str):
        kind, val, at = self.advance()
        if val != value:
            raise ParseError(f"expected {value!r} at position {at}, found {val or 'end'!r}")

    def parse(self) -> Element:
        out = self.expr()
        kind, val, at = self.peek()
        if kind != "end":
            raise ParseError(f"trailing input at position {at}: {val!r}")
        return out

    def expr(self) -> Element:
        out = self.term()
        while self.peek()[1] in ("+", "-"):
            op = self.advance()[1]
            rhs = self.term()
            out = out + rhs if op == "+" else out - rhs
        return out

    def term(self) -> Element:
        out = self.factor()
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.factor()
            if op == "*":
                out = out * rhs
            else:
                out = out * _invert(rhs)
        return out

    def factor(self) -> Element:
        sign = 1
        while self.peek()[1] == "-":
            self.advance()
            sign = -sign
        out = self.power()
        return out if sign > 0 else -out

    def power(self) -> Element:
        out = self.atom()
        if self.peek()[1] == "^":
            self.advance()
            neg = False
            if self.peek()[1] == "-":
                self.advance()
                neg = True
            kind, val, at = self.advance()
            if kind != "num":
                raise ParseError(f"expected integer exponent at position {at}")
            k = int(val)
            out = out ** (-k if neg else k)
        return out

    def atom(self) -> Element:
        kind, val, at = self.advance()
        if kind == "num":
            return Element.scalar(self.sig, Scalar.from_rational(int(val)))
        if val == "(":
            out = self.expr()
            self.expect(")")
            return out
        if val == "[":
            lhs = self.expr()
            self.expect(",")
            rhs = self.expr()
            self.expect("]")
            return bracket(lhs, rhs)
        if val == "{":
            lhs = self.expr()
            self.expect(",")
            rhs = self.expr()
            self.expect("}")
            return super_bracket(lhs, rhs, plus=True)
        if kind == "name":
            return self.named(val, at)
        raise ParseError(f"unexpected {val or 'end'!r} at position {at}")

    def named(self, name: str, at: int) -> Element:
        if name == "u":
            return Element.scalar(self.sig, self.sig.u_scalar)
        if name == "w":
            return Element.scalar(self.sig, W)
        if name in _CALL_NAMES and self.peek()[1] == "(":
            return self.call(name, at)
        m = re.fullmatch(r"([A-Za-z]+)(\d+)", name)
        if m is None:
            raise ParseError(f"unknown identifier {name!r} at position {at}")
        head, digits = m.group(1), m.group(2)
        if head == "s" and len(digits) == 2 and digits[0] != "0":
            i, j = int(digits[0]), int(digits[1])
            return self.gen(("sij", i, j), at)
        if head in _GEN_PREFIXES:
            return self.gen((head, int(digits)), at)
        raise ParseError(f"unknown identifier {name!r} at position {at}")

    def call(self, name: str, at: int) -> Element:
        self.expect("(")
        args = [self.integer()]
        while self.peek()[1] == ",":
            self.advance()
            args.append(self.integer())
        self.expect(")")
        if name in ("e", "einv", "epsv", "zeta") and len(args) == 1:
            return self.gen((name, args[0]), at)
        if name == "s" and len(args) == 2:
            return self.gen(("sij", args[0], args[1]), at)
        if name == "tr" and len(args) == 2:
            return self.gen(("oddtr", args[0], args[1]), at)
        if len(args) != 1:
            raise ParseError(f"{name} takes one index (at position {at})")
        i = args[0]
        sig = self.sig
        try:
            if name == "M":
                from .clifford_family import jucys_murphy

                return jucys_murphy(i, sig)
            if name == "z":
                from .clifford_family import z_element

                return z_element(i, sig)
            if name == "phi":
                from .clifford_family import intertwiner_phi

                return intertwiner_phi(i, sig)
            if name == "Ms":
                from .spin_family import odd_jm

                return odd_jm(i, sig)
            if name == "fz":
                from .spin_family import frak_z

                return frak_z(i, sig)
            if name == "psi":
                from .spin_family import intertwiner_psi

                return intertwiner_psi(i, sig)
        except AlgebraError as exc:
            raise ParseError(f"{name}({i}) at position {at}: {exc}") from exc
        raise ParseError(f"unknown call {name!r} at position {at}")

    def integer(self) -> int:
        sign = 1
        if self.peek()[1] == "-":
            self.advance()
            sign = -1
        kind, val, at = self.advance()
        if kind != "num":
            raise ParseError(f"expected integer at position {at}")
        return sign * int(val)

    def gen(self, token, at: int) -> Element:
        try:
            return generator_element(self.sig, token)
        except AlgebraError as exc:
            raise ParseError(f"at position {at}: {exc}") from exc


def _invert(e: Element) -> Element:
    return e ** (-1)


def parse_expression(text: str, sig) -> Element:
    """Parse ``text`` over the given algebra signature into a normal-form
    element."""
    return _Parser(text, sig).parse()


def parse_scalar(text: str) -> Scalar:
    """Parse a pure scalar of Q(w)(u) (used for --u and --alpha flags)."""
    from . import algebras

    sig = algebras.sym(2)
    try:
        elem = parse_expression(text, sig)
    except ParseError as exc:
        # the private Sym(2) is no part of the input: report the input itself
        raise ParseError(f"{text!r} is not a scalar") from exc
    if elem.is_zero:
        return Scalar.from_rational(0)
    if list(elem.terms.keys()) != [sig.one_mono]:
        raise ParseError(f"{text!r} is not a scalar")
    return elem.terms[sig.one_mono]
