"""Exact arithmetic in the coefficient field Q(w)(u), where w^2 = -2.

A scalar is a rational function in the deformation parameter ``u`` whose
coefficients live in the quadratic field Q(w).  Every arithmetic operation
returns a reduced canonical form (monic denominator, gcd(num, den) = 1), so
structural equality of representations coincides with equality in the field.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction

__all__ = [
    "PoleError",
    "QOmega",
    "Scalar",
    "ZERO",
    "ONE",
    "U",
    "UINV",
    "W",
    "add_term",
]


class PoleError(ZeroDivisionError):
    """Raised when a scalar is evaluated at a zero of its denominator."""


class QOmega:
    """An element ``a + b*w`` of Q(w), with w^2 = -2.

    >>> QOmega(0, 1) * QOmega(0, 1)
    QOmega(-2)
    >>> QOmega(0, 1).inverse()
    QOmega(-1/2*w)
    """

    __slots__ = ("a", "b", "_hash")

    def __init__(self, a=0, b=0):
        object.__setattr__(self, "a", a if isinstance(a, Fraction) else Fraction(a))
        object.__setattr__(self, "b", b if isinstance(b, Fraction) else Fraction(b))
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("QOmega is immutable")

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __eq__(self, other) -> bool:
        return isinstance(other, QOmega) and self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.a, self.b))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other: "QOmega") -> "QOmega":
        return QOmega(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QOmega") -> "QOmega":
        return QOmega(self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QOmega":
        return QOmega(-self.a, -self.b)

    def __mul__(self, other: "QOmega") -> "QOmega":
        # (a + bw)(c + dw) = (ac - 2bd) + (ad + bc)w
        return QOmega(
            self.a * other.a - 2 * self.b * other.b,
            self.a * other.b + self.b * other.a,
        )

    def inverse(self) -> "QOmega":
        # conjugate: (a + bw)(a - bw) = a^2 + 2b^2 > 0 unless a = b = 0
        norm = self.a * self.a + 2 * self.b * self.b
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return QOmega(self.a / norm, -self.b / norm)

    def __truediv__(self, other: "QOmega") -> "QOmega":
        return self * other.inverse()

    def render(self, atom: bool = False) -> str:
        """Canonical text form; with ``atom=True`` a two-term value is
        parenthesized so it can appear as a factor."""
        if not self.b:
            return str(self.a)
        if self.b == 1:
            wpart = "w"
        elif self.b == -1:
            wpart = "-w"
        else:
            wpart = f"{self.b}*w"
        if not self.a:
            return wpart
        joined = f"{self.a} - {wpart[1:]}" if wpart.startswith("-") else f"{self.a} + {wpart}"
        return f"({joined})" if atom else joined

    def __repr__(self) -> str:
        return f"QOmega({self.render()})"


_Q0 = QOmega(0)
_Q1 = QOmega(1)
_QW = QOmega(0, 1)
_DEN1 = (_Q1,)
_NUM1 = (_Q1,)
_MUL_CACHE: dict = {}


# ---------------------------------------------------------------------------
# Dense univariate polynomials over Q(w), as tuples with no trailing zeros.
# The empty tuple is the zero polynomial.
# ---------------------------------------------------------------------------

def _pnorm(coeffs) -> tuple:
    coeffs = list(coeffs)
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _padd(p: tuple, q: tuple) -> tuple:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] = out[i] + c
    return _pnorm(out)


def _pneg(p: tuple) -> tuple:
    return tuple(-c for c in p)


def _pmul(p: tuple, q: tuple) -> tuple:
    if not p or not q:
        return ()
    out = [_Q0] * (len(p) + len(q) - 1)
    for i, ci in enumerate(p):
        if not ci:
            continue
        for j, cj in enumerate(q):
            if cj:
                out[i + j] = out[i + j] + ci * cj
    return _pnorm(out)


def _pscale(p: tuple, c: QOmega) -> tuple:
    if not c:
        return ()
    return _pnorm(ci * c for ci in p)


def _pdivmod(p: tuple, q: tuple) -> tuple:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(p)
    qlead = q[-1].inverse()
    quot = [_Q0] * max(0, len(p) - len(q) + 1)
    while len(rem) >= len(q):
        while rem and not rem[-1]:
            rem.pop()
        if len(rem) < len(q):
            break
        factor = rem[-1] * qlead
        shift = len(rem) - len(q)
        quot[shift] = quot[shift] + factor
        for i, c in enumerate(q):
            rem[shift + i] = rem[shift + i] - factor * c
        rem.pop()
    return _pnorm(quot), _pnorm(rem)


def _pgcd(p: tuple, q: tuple) -> tuple:
    while q:
        _, r = _pdivmod(p, q)
        p, q = q, r
    return _pmonic(p)


def _pmonic(p: tuple) -> tuple:
    if not p or p[-1] == _Q1:
        return p
    return _pscale(p, p[-1].inverse())


def _peval(p: tuple, x: QOmega) -> QOmega:
    out = _Q0
    for c in reversed(p):
        out = out * x + c
    return out


def _prender(p: tuple) -> str:
    if not p:
        return "0"
    pieces = []
    for k in range(len(p) - 1, -1, -1):
        c = p[k]
        if not c:
            continue
        if k == 0:
            body = c.render(atom=False)
        else:
            var = "u" if k == 1 else f"u^{k}"
            if c == _Q1:
                body = var
            elif c == QOmega(-1):
                body = f"-{var}"
            else:
                body = f"{c.render(atom=True)}*{var}"
        pieces.append(body)
    out = pieces[0]
    for body in pieces[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out


class Scalar:
    """A reduced rational function in u over Q(w).

    Construct via the classmethods or the module constants; arithmetic keeps
    the invariant that the denominator is monic and coprime to the numerator.

    >>> (U * UINV).render()
    '1'
    >>> (ONE / W).render()
    '-1/2*w'
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: tuple, den: tuple, _reduced: bool = False):
        if not _reduced:
            num, den = _reduce(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, a) -> "Scalar":
        return cls.from_qomega(QOmega(a))

    @classmethod
    def from_qomega(cls, c: QOmega) -> "Scalar":
        num = (c,) if c else ()
        return cls(num, (_Q1,), _reduced=True)

    @classmethod
    def u_power(cls, k: int) -> "Scalar":
        if k >= 0:
            return cls((_Q0,) * k + (_Q1,), (_Q1,), _reduced=True)
        return cls((_Q1,), (_Q0,) * (-k) + (_Q1,), _reduced=True)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.num)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and self.den == (_Q1,)

    def constant_value(self) -> QOmega:
        if not self.is_constant():
            raise ValueError(f"scalar {self.render()} is not constant in u")
        return self.num[0] if self.num else _Q0

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "Scalar") -> "Scalar":
        if not self.num:
            return other
        if not other.num:
            return self
        if self.den == _DEN1 and other.den == _DEN1:
            return Scalar(_padd(self.num, other.num), _DEN1, _reduced=True)
        return Scalar(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other: "Scalar") -> "Scalar":
        if not other.num:
            return self
        if self.den == _DEN1 and other.den == _DEN1:
            return Scalar(_padd(self.num, _pneg(other.num)), _DEN1, _reduced=True)
        return Scalar(
            _padd(_pmul(self.num, other.den), _pneg(_pmul(other.num, self.den))),
            _pmul(self.den, other.den),
        )

    def __neg__(self) -> "Scalar":
        return Scalar(_pneg(self.num), self.den, _reduced=True)

    def __mul__(self, other: "Scalar") -> "Scalar":
        if not self.num or self.num == _NUM1 and self.den == _DEN1:
            return self if not self.num else other
        if not other.num or other.num == _NUM1 and other.den == _DEN1:
            return other if not other.num else self
        key = (self, other)
        out = _MUL_CACHE.get(key)
        if out is None:
            if self.den == _DEN1 and other.den == _DEN1:
                out = Scalar(_pmul(self.num, other.num), _DEN1, _reduced=True)
            else:
                out = Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))
            _MUL_CACHE[key] = out
        return out

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if not other.num:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return (ONE / self) ** (-k)
        out = ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Scalar)
            and self.num == other.num
            and self.den == other.den
        )

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.num, self.den))
            object.__setattr__(self, "_hash", h)
        return h

    # -- evaluation / rendering --------------------------------------------

    def eval(self, u0: QOmega) -> QOmega:
        """Specialize u to ``u0`` exactly; a pole raises :class:`PoleError`."""
        dval = _peval(self.den, u0)
        if not dval:
            raise PoleError(
                f"denominator {_prender(self.den)} vanishes at u = {u0.render()}"
            )
        return _peval(self.num, u0) / dval

    def render(self, atom: bool = False) -> str:
        if not self.num:
            return "0"
        num_str = _prender(self.num)
        if self.den == (_Q1,):
            if atom and (" + " in num_str or " - " in num_str):
                return f"({num_str})"
            return num_str
        den_str = _prender(self.den)
        if " + " in num_str or " - " in num_str:
            num_str = f"({num_str})"
        if " + " in den_str or " - " in den_str or "*" in den_str:
            den_str = f"({den_str})"
        return f"{num_str}/{den_str}"

    def __repr__(self) -> str:
        return f"Scalar({self.render()})"


def _reduce(num: tuple, den: tuple) -> tuple:
    if num and not num[-1]:
        num = _pnorm(num)
    if den and not den[-1]:
        den = _pnorm(den)
    if not den:
        raise ZeroDivisionError("scalar with zero denominator")
    if not num:
        return (), (_Q1,)
    if len(num) > 1 and len(den) > 1:
        # strip a common power of u before resorting to the full euclidean gcd
        vn = next(i for i, c in enumerate(num) if c)
        vd = next(i for i, c in enumerate(den) if c)
        v = vn if vn < vd else vd
        if v:
            num, den = num[v:], den[v:]
        if len(num) > 1 and len(den) > 1 and not (
            _is_u_power(num) or _is_u_power(den)
        ):
            g = _pgcd(num, den)
            if len(g) > 1:
                num, _ = _pdivmod(num, g)
                den, _ = _pdivmod(den, g)
    if den[-1] != _Q1:
        lead_inv = den[-1].inverse()
        den = _pscale(den, lead_inv)
        num = _pscale(num, lead_inv)
    return num, den


def _is_u_power(p: tuple) -> bool:
    return not any(p[:-1])


ZERO = Scalar.from_rational(0)
ONE = Scalar.from_rational(1)
U = Scalar.u_power(1)
UINV = Scalar.u_power(-1)
W = Scalar.from_qomega(_QW)


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val in a sparse map, dropping the key when it cancels."""
    prev = acc.get(key)
    val = val if prev is None else prev + val
    if val:
        acc[key] = val
    elif key in acc:
        del acc[key]
