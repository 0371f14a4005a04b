"""The superalgebra isomorphisms and the rational <-> trigonometric maps.

Each morphism stores a generator-image table; application decomposes a basis
monomial into its generator word and multiplies the images in the target.
Targets of the form C_n (x) A are realized by :class:`TensorSignature`,
whose multiplication inserts the Koszul sign (-1)^{|b'||c|} between slots.

Verification is by well-definedness: every defining relation of the source,
kept as a free token word, is mapped and normalized in the target.  The
relation words share most of their suffixes, so one check keeps a table of
suffix images: each word is mapped from the right, starting at its longest
suffix already in the table, and each new suffix image costs one product.
The table lives for one call of :func:`check_homomorphism` or
:func:`apply_morphism` and is dropped when it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import algebras as alg
from . import structure as st
from .engine import (
    _MEMO_OWNERS,
    AlgebraError,
    Element,
    _bits,
    _slot_str,
    check_relations,
    element_from_terms,
    generator_element,
)
from .render import element_str
from .reports import Report
from .scalars import ONE, W, add_term

__all__ = [
    "TensorSignature",
    "Morphism",
    "tensor_with_clifford",
    "embed_inner",
    "lift_tensor",
    "apply_morphism",
    "check_homomorphism",
    "check_inverse_pair",
    "compatibility_square",
    "named_morphism",
    "inverse_pairs",
    "MORPHISM_NAMES",
]

_W_INV = ONE / W


class TensorSignature:
    """C_n (x) A for a spin algebra A, with Koszul-signed multiplication.

    Monomials are pairs ``(bits, inner_mono)``; the Clifford factor sits on
    the left.  The signature quacks like :class:`AlgebraSignature` as far as
    :class:`Element` and :mod:`spinhecke.render` are concerned.
    """

    def __init__(self, inner):
        if inner.has_clifford:
            raise AlgebraError("tensor factor C_n expects a Clifford-free inner algebra")
        self.inner = inner
        self.n = inner.n
        self.name = f"C(x){inner.name}"
        self.family = f"tensor:{inner.family}"
        self.spin = inner.spin
        self.u_value = inner.u_value
        self.u_scalar = inner.u_scalar
        self._zeros = tuple([0] * inner.n)
        self._mul_cache: dict = {}
        _MEMO_OWNERS.add(self)

    def clear_memo(self) -> None:
        self._mul_cache.clear()

    @property
    def one_mono(self):
        return (self._zeros, self.inner.one_mono)

    def parity_mono(self, m) -> int:
        bits, im = m
        return (sum(bits) + self.inner.parity_mono(im)) & 1

    def atomize(self, token):
        if token[0] == "c":
            i = token[1]
            if not 1 <= i <= self.n:
                raise AlgebraError(f"index {i} out of range for c in {self.name}")
            return 1, (("TC", _bits(self, i)),)
        sgn, atoms = self.inner.atomize(token)
        return sgn, tuple(("I", a) for a in atoms)

    def generator_tokens(self):
        return [("c", i) for i in range(1, self.n + 1)] + self.inner.generator_tokens()

    def mono_tokens(self, m):
        return self.letters((("TC", m[0]),)) + self.inner.mono_tokens(m[1])

    def word_length(self, m) -> int:
        return sum(m[0]) + self.inner.word_length(m[1])

    def inverse_word(self, m) -> tuple:
        """An atom word of m^-1 up to a scalar: the inner inverse, then the
        Clifford word, which is its own inverse up to sign."""
        bits, im = m
        return tuple(("I", a) for a in self.inner.inverse_word(im)) + (("TC", bits),)

    def letters(self, atoms) -> tuple:
        """The generator letters of a tensor atom word, in word order."""
        toks: list = []
        for kind, a in atoms:
            if kind == "TC":
                toks += [("c", i) for i, bit in enumerate(a, start=1) if bit]
            else:
                toks += self.inner.letters((a,))
        return tuple(toks)

    def normalize(self, word) -> dict:
        """Each c-atom moves to the front with the Koszul sign against the
        inner atoms on its left; the inner atoms normalize as one word."""
        sign, bits, odd, inner = 1, self._zeros, 0, []
        for atom in word:
            if atom[0] == "TC":
                s, bits = st.cliff_mul(bits, atom[1])
                sign *= s * st.koszul_sign(sum(atom[1]), odd)
            else:
                inner.append(atom[1])
                odd ^= self.inner.atom_parity(atom[1])
        return {(bits, im): c if sign > 0 else -c
                for im, c in self.inner.normalize(tuple(inner)).items()}

    def mul_mono(self, m1, m2) -> tuple:
        """m1 * m2 as a flat term tuple, the form of ``AlgebraSignature.mul_mono``.

        The pair memo pays for itself.  In one cold pass at seed 1, 1,190 of
        its 3,629 lookups are hits on ``suite`` (33%) and 1,532 of 1,972 on
        ``deep`` (78%).  A build that sent these products through
        ``inner._insert_word`` with the Koszul and Clifford signs gave the
        same output, but its Python calls rose from 302,988 to 534,509 on
        ``verify-morphisms --n 4``, from 112,177 to 163,662 on ``--n 3`` and
        from 1.64M to 1.93M per ``suite`` pass, and ``suite`` ``op_p90_ms``
        rose from about 31 to about 40 ms in 4 alternating
        ``perfbench/run.py --seconds 5`` pairs."""
        key = (m1, m2)
        cached = self._mul_cache.get(key)
        if cached is not None:
            return cached
        bits1, im1 = m1
        bits2, im2 = m2
        sign = st.koszul_sign(self.inner.parity_mono(im1), sum(bits2))
        csgn, bits = st.cliff_mul(bits1, bits2)
        sign *= csgn
        out: list = []
        it = iter(self.inner.mul_mono(im1, im2))
        for im, c in zip(it, it):
            out += ((bits, im), c if sign > 0 else -c)
        out = self._mul_cache[key] = tuple(out)
        return out

    def relations(self):
        n = self.n
        rels = alg._clifford_rels(n)
        for g in self.inner.generator_tokens():
            sgn = -ONE if sum(map(self.inner.atom_parity, self.inner.atomize(g)[1])) & 1 else ONE
            for i in range(1, n + 1):
                rels.append(alg._row(f"koszul[c{i},{g[0]}{g[1]}]", ("c", i), g, sgn))
        return rels + self.inner.relations()

    def mono_str(self, m) -> str:
        bits, im = m
        texts = (_slot_str("c", False, bits), self.inner.mono_str(im))
        return "*".join(t for t in texts if t not in ("", "1")) or "1"

    def sort_key(self, m):
        bits, im = m
        left, _, _, right = im
        deg = sum(map(abs, left)) + sum(map(abs, right))
        return (-deg, bits, im)

    def __repr__(self):
        return f"<{self.name} n={self.n}>"


@lru_cache(maxsize=None)
def tensor_with_clifford(inner) -> TensorSignature:
    return TensorSignature(inner)


def embed_inner(tsig: TensorSignature, elem: Element) -> Element:
    """1 (x) a, for a in the inner factor."""
    if elem.sig is not tsig.inner:
        raise AlgebraError("element does not live in the inner factor")
    return Element(tsig, {(tsig._zeros, m): c for m, c in elem.terms.items()})


# ---------------------------------------------------------------------------
# Morphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Morphism:
    name: str
    source: object
    target: object
    images: dict

    def image_of(self, token) -> Element:
        img = self.images.get(token)
        if img is None:
            raise AlgebraError(f"{self.name} has no image for generator {token!r}")
        return img


# A longer monomial is refused before it is spelled: its word, and one call's
# suffix table, grow with the exponents.
MAX_WORD_LETTERS = 10_000


def apply_morphism(m: Morphism, a: Element) -> Element:
    """Linear, multiplicative extension of the generator images."""
    if a.sig is not m.source:
        raise AlgebraError(f"element is not in the source of {m.name}")
    for mono in a.terms:
        length = m.source.word_length(mono)
        if length > MAX_WORD_LETTERS:
            raise AlgebraError(
                f"{m.name} maps a monomial of {length} letters; "
                f"the limit is {MAX_WORD_LETTERS}")
    terms = [(c, m.source.mono_tokens(mono)) for mono, c in a.terms.items()]
    return _apply_to_terms(m, terms, {}, shared=False)


_EMPTY_SUFFIX = (0, 1, None)


def _apply_to_terms(m: Morphism, terms, table: dict, shared: bool = True) -> Element:
    """Add the image of each (coefficient, token word) into one element.

    ``table`` maps a suffix of a word to its entry (number, sign, image):
    the key of the suffix t.s is the pair (t, number of s), and the empty
    suffix has number 0, so every key hashes in constant time.  The caller
    owns the table and drops it when its call returns; entries are shared
    by all the words of that call.  A word is walked from the right without
    recursion: first past its longest suffix already in the table, then one
    letter t at a time to the left, with image(t.s) = image(t) * image(s)
    stored under its key.  A generator letter's image is ``m.images[tok]``;
    any other token is spelled in the source's letters and maps to their
    signed product, kept in the table as its one-letter suffix.  Unless the
    table is ``shared`` with later calls, the last word's longer suffixes
    are not stored: no later word could read them."""
    out: dict = {}
    last = len(terms) - 1
    for j, (coeff, word) in enumerate(terms):
        keep = shared or j < last
        k, entry = len(word), _EMPTY_SUFFIX
        while k:
            hit = table.get((word[k - 1], entry[0]))
            if hit is None:
                break
            k, entry = k - 1, hit
        if k:
            size = len(table)
        while k:
            k -= 1
            tok = word[k]
            letter = table.get((tok, 0))
            if letter is None:
                size += 1
                letter = table[(tok, 0)] = (size,) + _letter_image(m, tok)
            if entry is _EMPTY_SUFFIX:
                entry = letter
            else:
                size += 1
                longer = (size, letter[1] * entry[1], letter[2] * entry[2])
                if keep:
                    table[(tok, entry[0])] = longer
                entry = longer
        _, sign, img = entry
        if img is None:
            img = Element.one(m.target)
        if sign < 0:
            coeff = -coeff
        for mono, c in img.terms.items():
            add_term(out, mono, c if coeff is ONE else coeff * c)
    return Element(m.target, out)


def _letter_image(m: Morphism, tok) -> tuple:
    """(sign, image) of one token: a generator's image, or the signed
    product of the images of the letters that spell any other token."""
    if tok in m.images:
        return 1, m.images[tok]
    sign, atoms = m.source.atomize(tok)
    letters = m.source.letters(atoms)
    img = m.image_of(letters[-1]) if letters else Element.one(m.target)
    for g in reversed(letters[:-1]):
        img = m.image_of(g) * img
    return sign, img


def check_homomorphism(m: Morphism) -> Report:
    """Map each defining source relation as a free word; the image of
    LHS - RHS must normalize to zero in the target."""
    title = f"hom[{m.name}, n={m.source.n}]"
    table: dict = {}
    return check_relations(title, m.source.relations(),
                           lambda terms: _apply_to_terms(m, terms, table))


def check_affine_map(name: str, src, tgt, image, first_vanishes: bool = False) -> Report:
    """check_homomorphism for a map out of an affine algebra that fixes every
    c_i and s_i or t_i and sends the affine letter v_i to ``image(i)``; with
    ``first_vanishes`` the report also records v_1 -> 0."""
    v = src.left_var
    images = {tok: image(tok[1]) if tok[0] == v else generator_element(tgt, tok)
              for tok in src.generator_tokens()}
    report = check_homomorphism(Morphism(name, src, tgt, images))
    if first_vanishes:
        report.add(f"{v}1->0", images[(v, 1)].is_zero, element_str(images[(v, 1)]))
    return report


def check_inverse_pair(f: Morphism, g: Morphism, f_back: Morphism | None = None) -> Report:
    """g(f(x)) = x on f's generators and f(g(y)) = y on g's; ``f_back``
    substitutes for f on the return trip when g lands in an extension of
    f's source (the localized algebras)."""
    report = Report(f"inverse[{f.name},{g.name}]")
    for first, second in ((f, g), (g, f_back or f)):
        for tok in first.source.generator_tokens():
            expected = generator_element(second.target, tok)
            got = apply_morphism(second, apply_morphism(first, generator_element(first.source, tok)))
            ok = got == expected
            label = f"{second.name}o{first.name}[{tok[0]}{tok[1]}]"
            report.add(label, ok, None if ok else element_str(got))
    return report


# ---------------------------------------------------------------------------
# The named morphisms
# ---------------------------------------------------------------------------

def _cw_pair(a: int, b: int, letter) -> list:
    """(1/w)(c_a - c_b) * letter as image terms."""
    return [(_W_INV, (("c", a), letter)), (-_W_INV, (("c", b), letter))]


# Phi<suffix>: even -> C_n (x) spin and its inverse Psi<suffix>, by suffix:
# (even algebra, spin algebra, paired letters (even, spin), pass-through
# letters).  Phi sends even_i to w c_i spin_i, Psi sends spin_i to
# (1/w) c_i even_i.
_MIRROR_PAIRS = {
    "Fin": (alg.clifford_sym, alg.spin_sym, None, ()),
    "Hat": (alg.affine_hc, alg.spin_affine, ("a", "b"), ()),
    "": (alg.dahca, alg.sdaha, ("x", "xi"), ("y",)),
    "Tr": (alg.trig_dahca, alg.trig_sdaha, ("epsv", "zeta"), ("e", "einv")),
}


def _mirror_morphism(name: str, n: int) -> Morphism:
    """Phi: even -> C_n (x) spin, and its mirror Psi with W <-> 1/W and s <-> t."""
    even, spin, odd, through = _MIRROR_PAIRS[name[3:]]
    phi = name.startswith("Phi")
    src, tgt = even(n), tensor_with_clifford(spin(n))
    if not phi:
        src, tgt = tgt, src
    table = {("c", i): [(ONE, (("c", i),))] for i in range(1, n + 1)}
    for i in range(1, n + 1):
        for letter in through:
            table[(letter, i)] = [(ONE, ((letter, i),))]
        if odd:
            a, b = odd if phi else odd[::-1]
            table[(a, i)] = [(W if phi else _W_INV, (("c", i), (b, i)))]
    g, h = ("s", "t") if phi else ("t", "s")
    for i in range(1, n):
        table[(g, i)] = _cw_pair(i, i + 1, (h, i)) if phi else _cw_pair(i + 1, i, (h, i))
    return Morphism(name, src, tgt, {t: element_from_terms(tgt, w) for t, w in table.items()})


# Iota: rational -> trigonometric, J: trigonometric -> localized rational, and
# the spin tower's IotaMinus/JMinus, as (source, target).  The Loc variants
# start from the localized algebra.
_TRIG_MAPS = {
    "Iota": (alg.dahca, alg.trig_dahca),
    "IotaLoc": (alg.dahca_localized, alg.trig_dahca),
    "J": (alg.trig_dahca, alg.dahca_localized),
    "IotaMinus": (alg.sdaha, alg.trig_sdaha),
    "IotaMinusLoc": (alg.sdaha_localized, alg.trig_sdaha),
    "JMinus": (alg.trig_sdaha, alg.sdaha_localized),
}


def _trig_morphism(name: str, n: int) -> Morphism:
    """Iota sends y_i^{+-1} to e_i^{+-1} and x_i to e_i^-1 (epsv_i - u M_i); J
    sends e_i^{+-1} to y_i^{+-1} and epsv_i to y_i x_i + u M_i.  In the spin
    tower xi, zeta and the odd M_i take the places of x, epsv and M_i."""
    src, tgt = (make(n) for make in _TRIG_MAPS[name])
    iota = tgt.left_laurent
    rat, trig = (src, tgt) if iota else (tgt, src)
    p, r, u = rat.left_var, trig.right_var, tgt.u_scalar
    table = {tok: [(ONE, (tok,))] for tok in tgt.generator_tokens() if tok[0] in ("c", "s", "t")}
    for i in range(1, n + 1):
        jm = alg.jm_terms(src.spin, i)
        if iota:
            table[("y", i)] = [(ONE, (("e", i),))]
            table[(p, i)] = [(ONE, (("einv", i), (r, i)))]
            table[(p, i)] += [(-u * c, (("einv", i),) + w) for c, w in jm]
            if src.right_laurent:
                table[("yinv", i)] = [(ONE, (("einv", i),))]
        else:
            table[("e", i)] = [(ONE, (("y", i),))]
            table[("einv", i)] = [(ONE, (("yinv", i),))]
            table[(r, i)] = [(ONE, (("y", i), (p, i)))] + [(u * c, w) for c, w in jm]
    return Morphism(name, src, tgt, {t: element_from_terms(tgt, w) for t, w in table.items()})


@lru_cache(maxsize=None)
def named_morphism(name: str, n: int) -> Morphism:
    if name[:3] in ("Phi", "Psi") and name[3:] in _MIRROR_PAIRS:
        return _mirror_morphism(name, n)
    if name in _TRIG_MAPS:
        return _trig_morphism(name, n)
    raise ValueError(f"unknown morphism {name!r}")


MORPHISM_NAMES = (
    "PhiFin",
    "PsiFin",
    "PhiHat",
    "PsiHat",
    "Phi",
    "Psi",
    "PhiTr",
    "PsiTr",
    "Iota",
    "J",
    "IotaMinus",
    "JMinus",
)


def inverse_pairs(n: int) -> list:
    """The verified inverse pairs (f, g, f_back)."""
    return [
        ("PhiFin/PsiFin", named_morphism("PhiFin", n), named_morphism("PsiFin", n), None),
        ("PhiHat/PsiHat", named_morphism("PhiHat", n), named_morphism("PsiHat", n), None),
        ("Phi/Psi", named_morphism("Phi", n), named_morphism("Psi", n), None),
        ("PhiTr/PsiTr", named_morphism("PhiTr", n), named_morphism("PsiTr", n), None),
        ("Iota/J", named_morphism("Iota", n), named_morphism("J", n),
         named_morphism("IotaLoc", n)),
        ("IotaMinus/JMinus", named_morphism("IotaMinus", n), named_morphism("JMinus", n),
         named_morphism("IotaMinusLoc", n)),
    ]


def lift_tensor(m: Morphism) -> Morphism:
    """id (x) m between Clifford tensor extensions."""
    src = tensor_with_clifford(m.source)
    tgt = tensor_with_clifford(m.target)
    images = {("c", i): generator_element(tgt, ("c", i)) for i in range(1, m.source.n + 1)}
    for tok, img in m.images.items():
        images[tok] = embed_inner(tgt, img)
    return Morphism(f"1x{m.name}", src, tgt, images)


def compatibility_square(n: int) -> Report:
    """(1 (x) iota^-) o Phi = PhiTr o iota on the rational generators."""
    phi = named_morphism("Phi", n)
    phi_tr = named_morphism("PhiTr", n)
    iota = named_morphism("Iota", n)
    lifted = lift_tensor(named_morphism("IotaMinus", n))
    report = Report(f"compat-square[n={n}]")
    for tok in phi.source.generator_tokens():
        a = generator_element(phi.source, tok)
        left = apply_morphism(lifted, apply_morphism(phi, a))
        right = apply_morphism(phi_tr, apply_morphism(iota, a))
        ok = left == right
        report.add(f"square[{tok[0]}{tok[1]}]", ok, None if ok else element_str(left - right))
    return report
