"""Finite structure constants: permutations, Clifford words, the spin
symmetric group basis with its sign cocycle, and Koszul signs.

Conventions
-----------
* Permutations are tuples in one-line notation with 1-indexed values, so
  ``p[i-1] == p(i)``.  Composition is function composition,
  ``compose(p, q)(i) == p(q(i))``.
* Clifford words are 0/1 bit tuples of length n, meaning the canonically
  ordered monomial ``c_1^{b_1} * ... * c_n^{b_n}``; all signs produced by
  reordering live in returned sign values, never in the word.  Inside the
  spin group model the same word is a bit mask, bit i-1 standing for c_i:
  the word of a product is the XOR of the masks, and its sign is a popcount.
  The tuple functions :func:`cliff_mul` and :func:`cliff_conj` call the mask
  routines, so the sign rule is written once.
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

def _mask(bits: tuple) -> int:
    """The bit mask of a Clifford word: bit i-1 is set when c_i occurs."""
    mask = 0
    for i, bit in enumerate(bits):
        if bit:
            mask |= 1 << i
    return mask


@lru_cache(maxsize=None)
def _word(mask: int, n: int) -> tuple:
    """The bit tuple of length n of a Clifford bit mask."""
    return tuple([mask >> i & 1 for i in range(n)])


def _mask_sign(a: int, b: int) -> int:
    """The sign of c^a * c^b = sign * c^(a ^ b) for bit masks: each c_j of
    ``b`` moves left past the letters of ``a`` above j.

    >>> _mask_sign(0b01, 0b01)
    1
    >>> _mask_sign(0b10, 0b01)
    -1
    >>> _mask_sign(0b011, 0b110)  # (c1 c2)(c2 c3) = c1 c3
    1
    """
    flips = 0
    while b:
        low = b & -b
        flips += (a >> low.bit_length()).bit_count()
        b ^= low
    return -1 if flips & 1 else 1


def _mask_conj(p: tuple, mask: int) -> tuple:
    """p c^mask p^{-1} = sign * c^image for a bit mask: c_i goes to c_{p(i)},
    and sorting the images into canonical order costs the sign.  The sign is
    that of the inverse conjugation of the image.

    >>> _mask_conj((1, 2, 3), 0b101)
    (1, 5)
    >>> _mask_conj((2, 1), 0b01)
    (1, 2)
    >>> _mask_conj((2, 1), 0b11)
    (-1, 3)
    """
    image, flips = 0, 0
    for i, v in enumerate(p):
        if mask >> i & 1:
            flips += (image >> v).bit_count()  # earlier images above v
            image |= 1 << (v - 1)
    return (-1 if flips & 1 else 1), image


def cliff_mul(a: tuple, b: tuple) -> tuple:
    """Product of canonical Clifford words: returns (sign, word) with
    c^a * c^b = sign * c^word, using c_i^2 = 1 and c_i c_j = -c_j c_i.

    >>> cliff_mul((0, 1), (1, 0))
    (-1, (1, 1))
    """
    ma, mb = _mask(a), _mask(b)
    return _mask_sign(ma, mb), _word(ma ^ mb, len(a))


def cliff_conj(p: tuple, bits: tuple) -> tuple:
    """Permute the indices of a Clifford word: sigma c^bits sigma^{-1}.

    Returns (sign, word): the images are re-sorted into canonical order and
    the sorting sign is returned.

    >>> cliff_conj((2, 1), (1, 1))
    (-1, (1, 1))
    """
    sign, image = _mask_conj(p, _mask(bits))
    return sign, _word(image, len(bits))


def koszul_sign(p: int, q: int) -> int:
    """(-1)^{pq} for parities p, q in {0, 1}."""
    return -1 if (p & 1) and (q & 1) else 1


# ---------------------------------------------------------------------------
# The spin symmetric group algebra CS_n^-
# ---------------------------------------------------------------------------

_W_INV = QOmega(0, 1).inverse()  # 1/w = -w/2, since w*(-w/2) = 1


class SpinGroup:
    """Sign bookkeeping for the distinguished basis {t_p} of CS_n^-.

    The primary cocycle computation goes through the faithful Clifford model
    t_i |-> (1/w)(c_{i+1} - c_i) s_i inside C_n x| CS_n, which represents
    t_p as K_p * p with K_p a Clifford-algebra element.  The model keeps
    K'_p = w^l(p) K_p, the product of the factors (c_{i+1} - c_i) along the
    Lehmer word, so every coefficient is an integer; ``_K`` maps p to K'_p
    as a table from Clifford bit masks to integers.  Since w^2 = -2,
    K'_p (p K'_q p^{-1}) = beta(p, q) (-2)^m K'_{pq} with
    2m = l(p) + l(q) - l(pq), and :meth:`beta` reads the sign off one
    coefficient of that identity without building p K'_q p^{-1}: for each
    word a of K'_p it looks up K'_q at the p^{-1}-preimage of a ^ word.  The
    preimages and their signs are kept per (p, mask) in ``_conj_table``.
    Tuple words appear only at the API (:meth:`kappa_table`).

    An independent word-rewriting oracle (:meth:`beta_by_words`) reduces
    concatenated canonical words using only the defining braid/commutation
    relations.  It is a product of steps t_p t_i = sign t_{p s_i}, each
    rewritten once and kept per (p, i) in ``_word_steps``; it never reads
    the model or :meth:`beta`.
    """

    def __init__(self, n: int):
        self.n = n
        self._K = {identity(n): {0: 1}}
        self._beta_cache = {}
        self._conj_table = {}
        self._moves_cache = {}
        self._word_steps = {}

    # -- Clifford model -----------------------------------------------------

    def _kappa(self, p: tuple) -> dict:
        K = self._K.get(p)
        if K is not None:
            return K
        word = lehmer_word(p)
        i = word[-1]
        prefix = compose(p, transposition(i, i + 1, self.n))
        # t_prefix * t_i adds the factor (1/w)(c_{prefix(i+1)} - c_{prefix(i)});
        # K' keeps it without the 1/w
        factor = ((1 << (prefix[i] - 1), 1), (1 << (prefix[i - 1] - 1), -1))
        K = {}
        for wa, ca in self._kappa(prefix).items():
            for wb, cb in factor:
                add_term(K, wa ^ wb, _mask_sign(wa, wb) * ca * cb)
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
        # the coefficient of `word` in K'_p * (p K'_q p^{-1}), and nothing
        # else: p K'_q p^{-1} has at wb the coefficient of K'_q at the
        # p^{-1}-preimage of wb, times the sign of that conjugation
        Kq = self._kappa(q)
        preimages = self._conj_table.get(p)
        if preimages is None:
            preimages = self._conj_table[p] = {}
        coeff = 0
        for wa, ca in self._kappa(p).items():
            wb = wa ^ word
            pre = preimages.get(wb)
            if pre is None:
                pre = preimages[wb] = _mask_conj(inverse(p), wb)
            cb = Kq.get(pre[1])
            if cb:
                coeff += pre[0] * _mask_sign(wa, wb) * ca * cb
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
        Q(w) and keyed by bit tuples (for cross-checks)."""
        scale = QOmega(1)
        for _ in lehmer_word(p):
            scale = scale * _W_INV
        return {_word(mask, self.n): scale * QOmega(c) for mask, c in self._kappa(p).items()}

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

    def _mult_gen_by_words(self, p: tuple, i: int) -> tuple:
        """t_p * t_i = sign * t_{p s_i} as (sign, p s_i), by rewriting the
        canonical words; memoized per (p, i)."""
        key = (p, i)
        step = self._word_steps.get(key)
        if step is not None:
            return step
        target = compose(p, transposition(i, i + 1, self.n))
        cw = lehmer_word(p)
        if length(target) > len(cw):
            sign = self._sign_between(cw + (i,), lehmer_word(target))
        else:
            sign = self._sign_between(cw, lehmer_word(target) + (i,))
        step = self._word_steps[key] = (sign, target)
        return step

    def beta_by_words(self, p: tuple, q: tuple) -> int:
        """Independent oracle for :meth:`beta` via signed word rewriting."""
        sign, acc = 1, p
        for i in lehmer_word(q):
            step, acc = self._mult_gen_by_words(acc, i)
            sign *= step
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
