"""Finite structure constants: permutations, Clifford words, the spin
symmetric group basis with its sign cocycle, and Koszul signs.

Conventions
-----------
* Permutations are tuples in one-line notation with 1-indexed values, so
  ``p[i-1] == p(i)``.  Composition is function composition,
  ``compose(p, q)(i) == p(q(i))``.
* Clifford words are 0/1 bit tuples of length n, meaning the canonically
  ordered monomial ``c_1^{b_1} * ... * c_n^{b_n}``; all signs produced by
  reordering live in returned sign values, never in the word.
* The distinguished basis of the spin group algebra is ``t_p`` for a
  permutation ``p``, defined as the product of generators ``t_i`` along the
  canonical Lehmer reduced word of ``p``.  The sign cocycle ``beta`` satisfies
  ``t_p * t_q = beta(p, q) * t_{pq}``.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .scalars import QOmega, add_term

__all__ = [
    "identity",
    "compose",
    "inverse",
    "apply_perm",
    "length",
    "perm_parity",
    "transposition",
    "all_perms",
    "lehmer_word",
    "word_to_perm",
    "cliff_mul",
    "cliff_conj",
    "koszul_sign",
    "SpinGroup",
    "spin_group",
]


# ---------------------------------------------------------------------------
# Permutations
# ---------------------------------------------------------------------------

def identity(n: int) -> tuple:
    return tuple(range(1, n + 1))


def compose(p: tuple, q: tuple) -> tuple:
    """(p o q)(i) = p(q(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(p) != len(q):
        raise ValueError(f"rank mismatch: {len(p)} vs {len(q)}")
    return tuple(p[j - 1] for j in q)


@lru_cache(maxsize=None)
def inverse(p: tuple) -> tuple:
    inv = [0] * len(p)
    for i, v in enumerate(p):
        inv[v - 1] = i + 1
    return tuple(inv)


def apply_perm(p: tuple, i: int) -> int:
    return p[i - 1]


def length(p: tuple) -> int:
    """Coxeter length: the number of inversions."""
    n = len(p)
    return sum(1 for i in range(n) for j in range(i + 1, n) if p[i] > p[j])


@lru_cache(maxsize=None)
def perm_parity(p: tuple) -> int:
    """length(p) mod 2, computed via cycle structure."""
    n = len(p)
    seen = [False] * n
    parity = 0
    for i in range(n):
        if seen[i]:
            continue
        j = i
        clen = 0
        while not seen[j]:
            seen[j] = True
            j = p[j] - 1
            clen += 1
        parity ^= (clen - 1) & 1
    return parity


@lru_cache(maxsize=None)
def transposition(i: int, j: int, n: int) -> tuple:
    if not (1 <= i <= n and 1 <= j <= n) or i == j:
        raise ValueError(f"invalid transposition ({i},{j}) for rank {n}")
    img = list(range(1, n + 1))
    img[i - 1], img[j - 1] = j, i
    return tuple(img)


def all_perms(n: int):
    return (tuple(p) for p in itertools.permutations(range(1, n + 1)))


@lru_cache(maxsize=None)
def lehmer_word(p: tuple) -> tuple:
    """The canonical reduced word of ``p``: strip off, for m = n, n-1, ...,
    the descending run s_{m-1} s_{m-2} ... s_k that moves m into place.

    >>> lehmer_word((3, 2, 1))
    (1, 2, 1)
    """
    word = []
    p = list(p)
    m = len(p)
    while m > 1:
        k = p.index(m) + 1
        run = list(range(m - 1, k - 1, -1))
        # p <- p o s_k o s_{k+1} o ... o s_{m-1} moves the value m to slot m
        for i in range(k, m):
            p[i - 1], p[i] = p[i], p[i - 1]
        word = run + word
        m -= 1
    return tuple(word)


def word_to_perm(word, n: int) -> tuple:
    p = identity(n)
    for i in word:
        p = compose(p, transposition(i, i + 1, n))
    return p


# ---------------------------------------------------------------------------
# Clifford words
# ---------------------------------------------------------------------------

def cliff_mul(a: tuple, b: tuple) -> tuple:
    """Product of canonical Clifford words: returns (sign, word) with
    c^a * c^b = sign * c^word, using c_i^2 = 1 and c_i c_j = -c_j c_i.

    >>> cliff_mul((0, 1), (1, 0))
    (-1, (1, 1))
    """
    out = list(a)
    sign = 1
    for j, bit in enumerate(b):
        if not bit:
            continue
        crossings = sum(out[j + 1:])
        if crossings & 1:
            sign = -sign
        out[j] ^= 1
    return sign, tuple(out)


def cliff_conj(p: tuple, bits: tuple) -> tuple:
    """Permute the indices of a Clifford word: sigma c^bits sigma^{-1}.

    Returns (sign, word): the images are re-sorted into canonical order and
    the sorting sign is returned.
    """
    images = [p[i] for i, bit in enumerate(bits) if bit]
    sign = 1
    for a in range(len(images)):
        for b in range(a + 1, len(images)):
            if images[a] > images[b]:
                sign = -sign
    out = [0] * len(bits)
    for v in images:
        out[v - 1] = 1
    return sign, tuple(out)


def koszul_sign(p: int, q: int) -> int:
    """(-1)^{pq} for parities p, q in {0, 1}."""
    return -1 if (p & 1) and (q & 1) else 1


# ---------------------------------------------------------------------------
# The spin symmetric group algebra CS_n^-
# ---------------------------------------------------------------------------

_W_INV = QOmega(0, 1).inverse()  # 1/w = -w/2, since w*(-w/2) = 1


def _cd_mul(A: dict, B: dict) -> dict:
    out = {}
    for wa, ca in A.items():
        for wb, cb in B.items():
            sgn, word = cliff_mul(wa, wb)
            coeff = ca * cb
            add_term(out, word, coeff if sgn > 0 else -coeff)
    return out


def _cd_conj(p: tuple, A: dict) -> dict:
    out = {}
    for word, coeff in A.items():
        sgn, image = cliff_conj(p, word)
        out[image] = coeff if sgn > 0 else -coeff
    return out


class SpinGroup:
    """Sign bookkeeping for the distinguished basis {t_p} of CS_n^-.

    The primary cocycle computation goes through the faithful Clifford model
    t_i |-> (1/w)(c_{i+1} - c_i) s_i inside C_n x| CS_n, which represents
    t_p as K_p * p with K_p a Clifford-algebra element.  The model keeps
    K'_p = w^l(p) K_p, the product of the factors (c_{i+1} - c_i) along the
    Lehmer word, so every coefficient is an integer.  Since w^2 = -2,
    K'_p (p K'_q p^{-1}) = beta(p, q) (-2)^m K'_{pq} with
    2m = l(p) + l(q) - l(pq), and :meth:`beta` reads the sign off one
    coefficient of that identity.  An independent word-rewriting oracle
    (:meth:`beta_by_words`) reduces concatenated canonical words using only
    the defining braid/commutation relations.
    """

    def __init__(self, n: int):
        self.n = n
        self._K = {identity(n): {tuple([0] * n): 1}}
        self._beta_cache = {}
        self._moves_cache = {}

    # -- Clifford model -----------------------------------------------------

    def _kappa(self, p: tuple) -> dict:
        K = self._K.get(p)
        if K is not None:
            return K
        word = lehmer_word(p)
        i = word[-1]
        prefix = compose(p, transposition(i, i + 1, self.n))
        Kpre = self._kappa(prefix)
        # t_prefix * t_i adds the factor (1/w)(c_{prefix(i+1)} - c_{prefix(i)});
        # K' keeps it without the 1/w
        a, b = apply_perm(prefix, i + 1), apply_perm(prefix, i)
        wa = tuple(1 if m == a else 0 for m in range(1, self.n + 1))
        wb = tuple(1 if m == b else 0 for m in range(1, self.n + 1))
        factor = {wa: 1, wb: -1}
        K = _cd_mul(Kpre, factor)
        self._K[p] = K
        return K

    def beta(self, p: tuple, q: tuple) -> int:
        """The sign with t_p t_q = beta(p, q) t_{pq}."""
        key = (p, q)
        cached = self._beta_cache.get(key)
        if cached is not None:
            return cached
        pq = compose(p, q)
        word, target = next(iter(self._kappa(pq).items()))
        # the coefficient of `word` in K'_p * (p K'_q p^{-1}), and nothing else
        conj_q = _cd_conj(p, self._kappa(q))
        coeff = 0
        for wa, ca in self._kappa(p).items():
            wb = tuple(x ^ y for x, y in zip(wa, word))
            cb = conj_q.get(wb)
            if cb:
                sgn, _ = cliff_mul(wa, wb)
                coeff += sgn * ca * cb
        m2 = len(lehmer_word(p)) + len(lehmer_word(q)) - len(lehmer_word(pq))
        expected = (-2) ** (m2 // 2) * target
        if coeff == expected:
            sign = 1
        elif coeff == -expected:
            sign = -1
        else:  # the model is faithful, so this cannot happen
            raise ArithmeticError(
                f"non-sign cocycle ratio: coefficient {coeff}, expected +-{expected}"
            )
        self._beta_cache[key] = sign
        return sign

    def kappa_table(self, p: tuple) -> dict:
        """The Clifford coefficient K_p = (1/w)^l(p) K'_p of the model, over
        Q(w) (for cross-checks)."""
        scale = QOmega(1)
        for _ in lehmer_word(p):
            scale = scale * _W_INV
        return {word: scale * QOmega(c) for word, c in self._kappa(p).items()}

    # -- word-rewriting oracle ----------------------------------------------

    def _sign_between(self, A: tuple, B: tuple) -> int:
        """Sign relating two reduced words of the same permutation:
        t_A = sign * t_B, where each far commutation contributes -1 and each
        braid move contributes +1."""
        if A == B:
            return 1
        key = (A, B)
        cached = self._moves_cache.get(key)
        if cached is not None:
            return cached
        if A[0] == B[0]:
            sign = self._sign_between(A[1:], B[1:])
        else:
            a, b = A[0], B[0]
            w = word_to_perm(A, self.n)
            if abs(a - b) >= 2:
                v = compose(transposition(b, b + 1, self.n),
                            compose(transposition(a, a + 1, self.n), w))
                C = (a, b) + lehmer_word(v)
                # swapping the leading far pair costs one sign
                sign = -self._sign_between(A[1:], C[1:]) * self._sign_between(
                    (b, a) + C[2:], B
                )
            else:
                sa = transposition(a, a + 1, self.n)
                sb = transposition(b, b + 1, self.n)
                v = compose(sa, compose(sb, compose(sa, w)))
                C = (a, b, a) + lehmer_word(v)
                # braid move (a, b, a) -> (b, a, b) is sign-free
                sign = self._sign_between(A[1:], C[1:]) * self._sign_between(
                    (b, a, b) + C[3:], B
                )
        self._moves_cache[key] = sign
        return sign

    def _mult_gen_by_words(self, sign: int, p: tuple, i: int) -> tuple:
        s_i = transposition(i, i + 1, self.n)
        target = compose(p, s_i)
        cw = lehmer_word(p)
        if length(target) > len(cw):
            return sign * self._sign_between(cw + (i,), lehmer_word(target)), target
        ending = lehmer_word(target) + (i,)
        return sign * self._sign_between(cw, ending), target

    def beta_by_words(self, p: tuple, q: tuple) -> int:
        """Independent oracle for :meth:`beta` via signed word rewriting."""
        sign, acc = 1, p
        for i in lehmer_word(q):
            sign, acc = self._mult_gen_by_words(sign, acc, i)
        return sign

    # -- odd transpositions --------------------------------------------------

    def odd_transposition(self, i: int, j: int) -> tuple:
        """[i, j] as a signed basis element (sign, permutation), from the
        defining word (-1)^{j-i-1} t_{j-1} ... t_{i+1} t_i t_{i+1} ... t_{j-1}."""
        if i == j:
            raise ValueError("odd transposition needs i != j")
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"indices ({i},{j}) out of range for rank {self.n}")
        if i > j:
            sgn, perm = self.odd_transposition(j, i)
            return -sgn, perm
        word = list(range(j - 1, i - 1, -1)) + list(range(i + 1, j))
        sign, acc = 1, identity(self.n)
        for m in word:
            sign, acc = self.mult_gen(sign, acc, m)
        if (j - i - 1) & 1:
            sign = -sign
        return sign, acc

    def mult_gen(self, sign: int, p: tuple, i: int) -> tuple:
        """t_p * t_i as a signed basis element, via the primary cocycle."""
        s_i = transposition(i, i + 1, self.n)
        return sign * self.beta(p, s_i), compose(p, s_i)


@lru_cache(maxsize=None)
def spin_group(n: int) -> SpinGroup:
    return SpinGroup(n)
