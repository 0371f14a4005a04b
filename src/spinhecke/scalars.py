"""Exact arithmetic in the coefficient field Q(w)(u), where w^2 = -2.

A scalar is a rational function in the deformation parameter ``u`` whose
coefficients live in the quadratic field Q(w).  A :class:`QOmega` holds three
ints ``(p, q, d)`` for (p + q*w)/d with d > 0 and gcd(p, q, d) = 1, so each
element of Q(w) has one representation.  Every :class:`Scalar` is kept in a
reduced canonical form (monic denominator, gcd(num, den) = 1) and is interned:
one object exists per value, so equality and hashing are by identity, and a
memoized product or sum is one dict lookup on a pair of objects.
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

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
    "power",
]


class PoleError(ZeroDivisionError):
    """Raised when a scalar is evaluated at a zero of its denominator."""


class QOmega:
    """An element ``a + b*w`` of Q(w), with w^2 = -2.

    Stored as three ints ``(p, q, d)`` meaning (p + q*w)/d, with d > 0 and
    gcd(p, q, d) = 1; ``a`` and ``b`` are read back as Fractions.

    >>> QOmega(0, 1) * QOmega(0, 1)
    QOmega(-2)
    >>> QOmega(0, 1).inverse()
    QOmega(-1/2*w)
    """

    __slots__ = ("p", "q", "d")

    def __new__(cls, a=0, b=0):
        if type(a) is int and type(b) is int:
            return _qomega(a, b, 1)
        a, b = Fraction(a), Fraction(b)
        da, db = a.denominator, b.denominator
        d = da * db // gcd(da, db)
        return _qomega(a.numerator * (d // da), b.numerator * (d // db), d)

    def __setattr__(self, name, value):
        raise AttributeError("QOmega is immutable")

    @property
    def a(self) -> Fraction:
        return Fraction(self.p, self.d)

    @property
    def b(self) -> Fraction:
        return Fraction(self.q, self.d)

    def __bool__(self) -> bool:
        return bool(self.p) or bool(self.q)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QOmega)
            and self.p == other.p
            and self.q == other.q
            and self.d == other.d
        )

    def __hash__(self) -> int:
        return hash((self.p, self.q, self.d))

    def __add__(self, other: "QOmega") -> "QOmega":
        d1, d2 = self.d, other.d
        if d1 == d2:
            return _qomega(self.p + other.p, self.q + other.q, d1)
        return _qomega(self.p * d2 + other.p * d1, self.q * d2 + other.q * d1, d1 * d2)

    def __sub__(self, other: "QOmega") -> "QOmega":
        return self + -other

    def __neg__(self) -> "QOmega":
        return _qomega(-self.p, -self.q, self.d)

    def __mul__(self, other: "QOmega") -> "QOmega":
        # (p1 + q1 w)(p2 + q2 w) = (p1 p2 - 2 q1 q2) + (p1 q2 + q1 p2) w
        p1, q1, p2, q2 = self.p, self.q, other.p, other.q
        return _qomega(p1 * p2 - 2 * q1 * q2, p1 * q2 + q1 * p2, self.d * other.d)

    def inverse(self) -> "QOmega":
        # conjugate: (p + qw)(p - qw) = p^2 + 2q^2 > 0 unless p = q = 0
        p, q = self.p, self.q
        norm = p * p + 2 * q * q
        if not norm:
            raise ZeroDivisionError("inverse of zero in Q(w)")
        return _qomega(p * self.d, -q * self.d, norm)

    def __truediv__(self, other: "QOmega") -> "QOmega":
        return self * other.inverse()

    def render(self, atom: bool = False) -> str:
        """Canonical text form; with ``atom=True`` a two-term value is
        parenthesized so it can appear as a factor."""
        p, q, d = self.p, self.q, self.d
        if not q:
            return _ratstr(p, d)
        if q == d:
            wpart = "w"
        elif q == -d:
            wpart = "-w"
        else:
            wpart = f"{_ratstr(q, d)}*w"
        if not p:
            return wpart
        a = _ratstr(p, d)
        joined = f"{a} - {wpart[1:]}" if wpart.startswith("-") else f"{a} + {wpart}"
        return f"({joined})" if atom else joined

    def __repr__(self) -> str:
        return f"QOmega({self.render()})"


_new = object.__new__
_set = object.__setattr__


def _qomega(p: int, q: int, d: int) -> QOmega:
    """The QOmega (p + q*w)/d for ints with d != 0, reduced."""
    if d != 1:
        if d < 0:
            p, q, d = -p, -q, -d
        g = gcd(p, q, d)
        if g != 1:
            p, q, d = p // g, q // g, d // g
    out = _new(QOmega)
    _set(out, "p", p)
    _set(out, "q", q)
    _set(out, "d", d)
    return out


def _ratstr(n: int, d: int) -> str:
    """The text of the rational n/d (d > 0), as ``str(Fraction(n, d))``."""
    g = gcd(n, d)
    if g != 1:
        n, d = n // g, d // g
    return str(n) if d == 1 else f"{n}/{d}"


_Q0 = QOmega(0)
_Q1 = QOmega(1)
_QM1 = QOmega(-1)
_QW = QOmega(0, 1)
_DEN1 = (_Q1,)
_INTERN: dict = {}  # (num, den) -> the one Scalar with that reduced form
_MUL_CACHE: dict = {}  # (Scalar, Scalar) -> product
_ADD_CACHE: dict = {}  # (Scalar, Scalar) -> sum
_NEG_CACHE: dict = {}  # Scalar -> its negative
_RENDER_CACHE: dict = {}  # (Scalar, atom) -> its text


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
            elif c == _QM1:
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

    ``num`` and ``den`` are coefficient tuples (constant term first, no
    trailing zeros) with ``den`` monic and coprime to ``num``.  Scalars are
    interned: constructing a value that already exists returns the existing
    object, so ``==`` and ``hash`` are those of ``object`` (identity).
    Construct via the classmethods or the module constants; ``Scalar(num,
    den)`` reduces an arbitrary pair first.

    >>> (U * UINV).render()
    '1'
    >>> (ONE / W).render()
    '-1/2*w'
    >>> (U * UINV) is ONE
    True
    """

    __slots__ = ("num", "den")

    def __new__(cls, num: tuple, den: tuple, _reduced: bool = False) -> "Scalar":
        if not _reduced:
            num, den = _reduce(tuple(num), tuple(den))
        return _intern(num, den)

    def __setattr__(self, name, value):
        raise AttributeError("Scalar is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_rational(cls, a) -> "Scalar":
        return cls.from_qomega(QOmega(a))

    @classmethod
    def from_qomega(cls, c: QOmega) -> "Scalar":
        num = (c,) if c else ()
        return cls(num, _DEN1, _reduced=True)

    @classmethod
    def u_power(cls, k: int) -> "Scalar":
        if k >= 0:
            return cls((_Q0,) * k + (_Q1,), _DEN1, _reduced=True)
        return cls((_Q1,), (_Q0,) * (-k) + (_Q1,), _reduced=True)

    # -- predicates ---------------------------------------------------------

    def __bool__(self) -> bool:
        return self is not ZERO

    @property
    def is_zero(self) -> bool:
        return self is ZERO

    def is_constant(self) -> bool:
        return len(self.num) <= 1 and len(self.den) == 1

    def constant_value(self) -> QOmega:
        if not self.is_constant():
            raise ValueError(f"scalar {self.render()} is not constant in u")
        return self.num[0] if self.num else _Q0

    # -- arithmetic ---------------------------------------------------------
    # A monic denominator of length 1 is the constant 1.

    def __add__(self, other: "Scalar") -> "Scalar":
        if self is ZERO:
            return other
        if other is ZERO:
            return self
        key = (self, other)
        out = _ADD_CACHE.get(key)
        if out is None:
            if len(self.den) == 1 and len(other.den) == 1:
                out = _intern(_padd(self.num, other.num), _DEN1)
            else:
                out = Scalar(
                    _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
                    _pmul(self.den, other.den),
                )
            _ADD_CACHE[key] = out
        return out

    def __sub__(self, other: "Scalar") -> "Scalar":
        return self + -other

    def __neg__(self) -> "Scalar":
        out = _NEG_CACHE.get(self)
        if out is None:
            out = _NEG_CACHE[self] = _intern(_pneg(self.num), self.den)
        return out

    def __mul__(self, other: "Scalar") -> "Scalar":
        if self is ONE or other is ZERO:
            return other
        if other is ONE or self is ZERO:
            return self
        key = (self, other)
        out = _MUL_CACHE.get(key)
        if out is None:
            if len(self.den) == 1 and len(other.den) == 1:
                out = _intern(_pmul(self.num, other.num), _DEN1)
            else:
                out = Scalar(_pmul(self.num, other.num), _pmul(self.den, other.den))
            _MUL_CACHE[key] = out
        return out

    def __truediv__(self, other: "Scalar") -> "Scalar":
        if other is ZERO:
            raise ZeroDivisionError("scalar division by zero")
        return Scalar(_pmul(self.num, other.den), _pmul(self.den, other.num))

    def __pow__(self, k: int) -> "Scalar":
        if k < 0:
            return (ONE / self) ** (-k)
        return power(self, k, ONE)

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
        key = (self, atom)
        out = _RENDER_CACHE.get(key)
        if out is None:
            out = _RENDER_CACHE[key] = self._render(atom)
        return out

    def _render(self, atom: bool) -> str:
        if not self.num:
            return "0"
        num_str = _prender(self.num)
        if len(self.den) == 1:
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


def _intern(num: tuple, den: tuple) -> Scalar:
    """The one Scalar with reduced form ``(num, den)``."""
    key = (num, den)
    out = _INTERN.get(key)
    if out is None:
        out = _new(Scalar)
        _set(out, "num", num)
        _set(out, "den", den)
        # setdefault: of two threads that build one value, both get the same object
        out = _INTERN.setdefault(key, out)
    return out


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


def power(base, k: int, one):
    """base^k for k >= 0 by square-and-multiply, from ``one``; the base is
    squared only while a higher bit of k remains."""
    out = one
    while True:
        if k & 1:
            out = out * base
        k >>= 1
        if not k:
            return out
        base = base * base


def add_term(acc: dict, key, val) -> None:
    """acc[key] += val in a sparse map, dropping the key when it cancels.

    Scalar zero is the one interned object ``ZERO``, so a Scalar is tested
    by identity, without a Python-level ``__bool__`` call; other values
    (the ints and ``QOmega`` of the Clifford model) by truth value.
    """
    prev = acc.get(key)
    val = val if prev is None else prev + val
    if val is not ZERO and (type(val) is Scalar or val):
        acc[key] = val
    elif key in acc:
        del acc[key]
