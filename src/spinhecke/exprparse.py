"""Expression front end for the CLI.

Grammar (precedence ``^`` over ``*``/``/`` over ``+``/``-``, left
associative; the factors of a term are read first and then multiplied from
the right, which is the same product)::

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
Brackets nest at most ``MAX_NESTING`` = 100 levels deep; the parentheses of
a call form do not count.
"""

from __future__ import annotations

import re
from importlib import import_module

from .engine import AlgebraError, Element, generator_element, super_bracket, bracket
from .scalars import Scalar, W

__all__ = ["ParseError", "parse_expression", "parse_scalar"]


class ParseError(ValueError):
    """Lexical or syntactic error, with the offending position."""


MAX_NESTING = 100  # the parser recurses once per open (, [ or {


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+)"
    r"|(?P<name>[A-Za-z]+\d*)"
    r"|(?P<op>[-+*/^(),\[\]{}]))"
)

# call name -> (number of indices, generator token kind, or the module and
# function that build the element, imported on first use)
_CALLS = {
    "e": (1, "e"),
    "einv": (1, "einv"),
    "epsv": (1, "epsv"),
    "zeta": (1, "zeta"),
    "s": (2, "sij"),
    "tr": (2, "oddtr"),
    "M": (1, ("clifford_family", "jucys_murphy")),
    "z": (1, ("clifford_family", "z_element")),
    "phi": (1, ("clifford_family", "intertwiner_phi")),
    "Ms": (1, ("spin_family", "odd_jm")),
    "fz": (1, ("spin_family", "frak_z")),
    "psi": (1, ("spin_family", "intertwiner_psi")),
}
_GEN_PREFIXES = ("xi", "x", "y", "c", "s", "t", "a", "b", "zeta", "epsv")


def _tokenize(text: str):
    """One regex scan up to the trailing whitespace, in linear time."""
    tokens = []
    pos, stop = 0, len(text.rstrip())
    while pos < stop:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"lexical error at position {pos}: {text[pos:pos+8]!r}")
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
        self.depth = 0  # open (, [ and { groups

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
        factors = [self.factor()]
        while self.peek()[1] in ("*", "/"):
            op = self.advance()[1]
            rhs = self.factor()
            factors.append(rhs if op == "*" else rhs ** -1)
        out = factors.pop()
        while factors:
            out = factors.pop() * out
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
        if val in ("(", "[", "{"):
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"brackets nest deeper than {MAX_NESTING} levels at position {at}")
            out = self.expr()
            if val == "(":
                self.expect(")")
            else:
                self.expect(",")
                rhs = self.expr()
                self.expect("]" if val == "[" else "}")
                out = bracket(out, rhs) if val == "[" else super_bracket(out, rhs, plus=True)
            self.depth -= 1
            return out
        if kind == "name":
            return self.named(val, at)
        raise ParseError(f"unexpected {val or 'end'!r} at position {at}")

    def named(self, name: str, at: int) -> Element:
        if name == "u":
            return Element.scalar(self.sig, self.sig.u_scalar)
        if name == "w":
            return Element.scalar(self.sig, W)
        if name in _CALLS and self.peek()[1] == "(":
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
        count, target = _CALLS[name]
        if len(args) != count:
            indices = "one index" if count == 1 else "two indices"
            raise ParseError(f"{name} takes {indices} (at position {at})")
        if isinstance(target, str):
            return self.gen((target, *args), at)
        build = getattr(import_module(f".{target[0]}", __package__), target[1])
        try:
            return build(args[0], self.sig)
        except AlgebraError as exc:
            raise ParseError(f"{name}({args[0]}) at position {at}: {exc}") from exc

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
