"""Generic PBW normal-form rewriting for the presented superalgebras.

A monomial is a 4-slot tuple ``(left, grp, cliff, right)``:

* ``left``  -- exponent vector of the left polynomial slot (x, a, b, xi, or
  the Laurent weight of e^lambda), ``()`` if the slot is absent;
* ``grp``   -- a permutation in one-line notation (the group slot holds
  sigma for the plain algebras and the basis label of t_sigma for spin ones);
* ``cliff`` -- Clifford bit vector, ``()`` if absent;
* ``right`` -- exponent vector of the right polynomial slot.

Multiplication inserts the atoms of the left factor, from the right, into
the terms of the right factor; a normal form inserts a word into 1.  Both
run one kernel, :meth:`AlgebraSignature._insert_word`, which adds its result
into a given dict.  Most insertions are slot arithmetic with a sign, done by
the mover of the atom kind in the class table ``AlgebraSignature._MOVERS``
and never memoized per monomial: a left letter or Laurent weight adds into the
left vector; a group element permutes that vector (x, y, xi, e) and composes
into the group slot, with the cocycle beta in the spin algebras; a Clifford
word crosses the left and group slots and multiplies into the Clifford slot;
a right letter against a zero left slot crosses the group and Clifford slots
into the right vector.  The kernel walks each term through these moves as
one (sign, monomial) pair, by the one loop :meth:`AlgebraSignature._walk`,
and collects terms in a stage dict only where a cross rule is due, so terms
that meet there cancel before the rule is applied.  Most insertions start
from one term (a pair product, a normal form, a rule word into the rest of
a monomial), and :meth:`AlgebraSignature._insert_term` walks that term
alone to its first cross rule, with no stage dicts; only the rule's result
terms, which may meet, take the rest of the word through the stages.  The
group and Clifford moves read two per-signature tables, each entry built
once: (p, grp) -> (beta, p grp) and (grp, bits, cliff) -> (sign, bits').
A power of one slot atom, such as x_2^6 or e^(2 eps_1 - eps_2), is that atom
with its exponent or weight times k, inserted into 1 by one move, not built
by square-and-multiply; a letter meets only copies of itself, so no sign
arises.

Only the cross rules rewrite, and only their results are memoized, under
the key (atom, monomial); their rule words are built once per (atom,
leading atom of the monomial), kept in a third per-signature table, and
each inserted into the one result dict of the rule.
The cross rules are the Dunkl-type [y_i, x_j] (a right letter against a
nonzero left slot), the trigonometric [epsv_i, e^eta] and [zeta_i, e^eta],
and the affine Hecke-Clifford s_m a_m of Nazarov with its spin and
right-hand variants (s_m against a nonzero a or b slot, epsv_i or zeta_i
against a nonidentity group slot).  The first two carry one group-side
term T_ab, built once by :func:`_t_words`: (1 + c_a c_b) s_ab, or the odd
transposition [a, b] in the spin algebras.  The affine rules are one
coefficient table in :func:`_affine_words`, from s_m a_m = a_{m+1} s_m - 1 -
c_m c_{m+1}; a group element t_p meets the slot through the last (or, on
the right, first) letter s_m of its Lehmer word, and the rest of the word
follows as simple letters, so every affine cross is against one s_m.
Each rule swaps the pair and adds lower-degree correction terms, so the
procedure terminates; the confluence suite checks independence of the
result from association order.

A right-letter power meeting the left slot is inserted in Horner order,
r^k M = r (r^{k-1} M) and y^-k M = y^-1 (y^-(k-1) M), by one loop that
memoizes every (r^b, M) step.
Each rule crosses a whole power in one closed sum: r_i l_j^l = l_j^l r_i +
sum_{t<l} l_j^t [r_i, l_j] l_j^(l-1-t); r_i e^lam = e^lam r_i + [r_i,
e^lam], by the geometric sum of :func:`trig_comm_word_terms`; and s_m v_i^k
on the left slot, v_i^k s_m on the right, by the sums of
:func:`_affine_words`.  So the rewriting depth does not grow with the power
of the right letter.  y_i^-1 has no rule of its own: y_i^-1 M is the N with
y_i N = M, solved by :meth:`AlgebraSignature._divide`.

Every memo result (a cross rule, a Horner step, a division, or a pair
product of :meth:`AlgebraSignature.mul_mono`) is stored once, by
:meth:`AlgebraSignature._share`, as a flat tuple (m1, c1, m2, c2, ...), and
each of its monomials and slot tuples is the equal object already held in
the signature's ``_shared_cache``.  Equal monomials recur across results:
200 confluence probes (seed 1) in each of DaHCa, SDaHa, TrigDaHCa,
TrigSDaHa and AffineHC at n=3 store 404,588 terms, but only 96,901
distinct monomials and 358 distinct slot values.  So the tables keep every
entry, with no lifetime that would lose memo hits, and criterion 02 alone
peaks at 86 MB where a dict of unshared monomials per result took 193 MB.
"""

from __future__ import annotations

import operator
import weakref
from functools import lru_cache
from random import Random

from . import scalars as sc
from . import structure as st
from .reports import Report
from .scalars import ONE, ZERO, Scalar, QOmega, add_term

__all__ = [
    "AlgebraSignature",
    "Element",
    "AlgebraError",
    "generator_element",
    "element_from_terms",
    "monomial_element",
    "bracket",
    "super_bracket",
    "verify_relations",
    "confluence_probe",
    "random_monomial",
    "clear_caches",
]

_MINUS_ONE = Scalar.from_rational(-1)
_ODD_VARS = frozenset({"xi", "b", "zeta"})
# every signature and module with memo tables, each with a clear_memo()
_MEMO_OWNERS: weakref.WeakSet = weakref.WeakSet()


class AlgebraError(ValueError):
    """Unknown generator, index out of range, or algebra mismatch."""


class AlgebraSignature:
    """Slot layout, parity rule and rewrite behaviour of one presentation.

    Instances are created by the factories in :mod:`spinhecke.algebras` and
    interned there, so identity comparison is meaningful.
    """

    def __init__(
        self,
        name: str,
        family: str,
        n: int,
        *,
        spin: bool,
        has_clifford: bool,
        left_var: str | None,
        right_var: str | None,
        left_laurent: bool = False,
        right_laurent: bool = False,
        u_value: QOmega | None = None,
        relations_builder=None,
    ):
        if n < 2:
            raise AlgebraError("rank n must be at least 2")
        self.name = name
        self.family = family
        self.n = n
        self.spin = spin
        self.has_clifford = has_clifford
        self.left_var = left_var
        self.right_var = right_var
        self.left_laurent = left_laurent
        self.right_laurent = right_laurent
        self.u_value = u_value
        self.u_scalar = Scalar.u_power(1) if u_value is None else Scalar.from_qomega(u_value)
        self._relations_builder = relations_builder
        self._relations = None
        self._id = st.identity(n)
        self._zeros = tuple([0] * n)
        self._left_odd, self._right_odd = left_var in _ODD_VARS, right_var in _ODD_VARS
        # x, a and epsv anticommute with the c_i of their own index
        self._left_anti, self._right_anti = left_var in ("x", "a"), right_var in ("x", "epsv")
        self._norm_cache: dict = {}  # (atom, mono) -> cross-rule result
        self._mul_cache: dict = {}  # (mono, mono) -> product
        self._rule_cache: dict = {}  # (atom, leading atom) -> rule words
        self._group_moves: dict = {}  # (p, grp) -> (sign, p o grp)
        self._cliff_moves: dict = {}  # (grp, bits, cliff) -> (sign, bits')
        self._shared_cache: dict = {}  # monomial or slot tuple -> its one stored object
        _MEMO_OWNERS.add(self)

    def clear_memo(self) -> None:
        for table in (self._norm_cache, self._mul_cache, self._rule_cache,
                      self._group_moves, self._cliff_moves, self._shared_cache):
            table.clear()

    # -- basic monomial helpers ---------------------------------------------

    @property
    def one_mono(self) -> tuple:
        return (
            self._zeros if self.left_var else (),
            self._id,
            self._zeros if self.has_clifford else (),
            self._zeros if self.right_var else (),
        )

    def parity_mono(self, m: tuple) -> int:
        left, grp, cliff, right = m
        p = 0
        if cliff:
            p ^= sum(cliff) & 1
        if self.spin:
            p ^= st.perm_parity(grp)
        if self._left_odd:
            p ^= sum(left) & 1
        if self._right_odd:
            p ^= sum(right) & 1
        return p

    def _check_index(self, i: int, gen: str, top: int | None = None) -> None:
        hi = self.n if top is None else top
        if not 1 <= i <= hi:
            raise AlgebraError(f"index {i} out of range 1..{hi} for {gen!r} in {self.name}")

    # -- tokens ---------------------------------------------------------------

    def atomize(self, token: tuple) -> tuple:
        """Return (sign, atoms) for a single generator token."""
        kind = token[0]
        n = self.n
        if kind in ("x", "y", "a", "b", "xi", "epsv", "zeta"):
            i = token[1]
            self._check_index(i, kind)
            if self.left_var == kind:
                return 1, (("L", i, 1),)
            if self.right_var == kind:
                return 1, (("R", i, 1),)
            raise AlgebraError(f"generator {kind}{i} does not belong to {self.name}")
        if kind == "yinv":
            i = token[1]
            self._check_index(i, "y")
            if self.right_var == "y" and self.right_laurent:
                return 1, (("R", i, -1),)
            raise AlgebraError(f"y{i}^-1 needs the localized form of {self.name}")
        if kind in ("e", "einv"):
            i = token[1]
            self._check_index(i, "e")
            if not self.left_laurent:
                raise AlgebraError(f"generator e^(eps_{i}) does not belong to {self.name}")
            vec = [0] * n
            vec[i - 1] = 1 if kind == "e" else -1
            return 1, (("E", tuple(vec)),)
        if kind == "E":
            if not self.left_laurent:
                raise AlgebraError(f"Laurent weights do not belong to {self.name}")
            vec = tuple(token[1])
            return 1, ((("E", vec),) if any(vec) else ())
        if kind == "c":
            i = token[1]
            self._check_index(i, "c")
            if not self.has_clifford:
                raise AlgebraError(f"generator c{i} does not belong to {self.name}")
            return 1, (("C", _bits(self, i)),)
        if kind == "s":
            i = token[1]
            self._check_index(i, "s", self.n - 1)
            if self.spin:
                raise AlgebraError(f"{self.name} uses odd generators t{i}, not s{i}")
            return 1, (("G", st.transposition(i, i + 1, n)),)
        if kind == "t":
            i = token[1]
            self._check_index(i, "t", self.n - 1)
            if not self.spin:
                raise AlgebraError(f"{self.name} uses even generators s{i}, not t{i}")
            return 1, (("G", st.transposition(i, i + 1, n)),)
        if kind in ("sij", "oddtr"):
            i, j = token[1], token[2]
            gen = "s(i,j)" if kind == "sij" else "tr(i,j)"
            self._check_index(i, gen)
            self._check_index(j, gen)
            if self.spin != (kind == "oddtr"):
                parity = "even" if self.spin else "odd"
                raise AlgebraError(f"{self.name} has no {parity} transpositions")
            if i == j:
                raise AlgebraError(f"{gen!r} needs two different indices, got ({i},{j})")
            if kind == "sij":
                return 1, (("G", st.transposition(i, j, n)),)
            sgn, perm = st.spin_group(n).odd_transposition(i, j)
            return sgn, (("G", perm),)
        if kind == "perm":
            perm = tuple(token[1])
            if len(perm) != n:
                raise AlgebraError("permutation rank mismatch")
            return 1, ((("G", perm),) if perm != self._id else ())
        raise AlgebraError(f"unknown generator token {token!r} for {self.name}")

    def generator_tokens(self) -> list:
        """The defining generator alphabet, in a fixed order."""
        toks: list = []
        n = self.n
        if self.left_laurent:
            toks += [("e", i) for i in range(1, n + 1)]
            toks += [("einv", i) for i in range(1, n + 1)]
        elif self.left_var:
            toks += [(self.left_var, i) for i in range(1, n + 1)]
        if self.right_var:
            toks += [(self.right_var, i) for i in range(1, n + 1)]
            if self.right_laurent:
                toks += [("yinv", i) for i in range(1, n + 1)]
        if self.has_clifford:
            toks += [("c", i) for i in range(1, n + 1)]
        toks += [("t" if self.spin else "s", i) for i in range(1, n)]
        return toks

    def mono_tokens(self, m: tuple) -> tuple:
        """Decompose a basis monomial into its generator token word."""
        return self.letters(self.mono_atoms(m))

    def word_length(self, m: tuple) -> int:
        """The number of letters in ``mono_tokens(m)``, without spelling it."""
        left, grp, cliff, right = m
        return sum(map(abs, left + right)) + len(st.lehmer_word(grp)) + sum(cliff)

    def inverse_word(self, m: tuple) -> tuple:
        """An atom word of m^-1 up to a scalar: every atom is a unit,
        inverted in reverse order."""
        left, _, _, right = m
        if (any(left) and not self.left_laurent) or (any(right) and not self.right_laurent):
            raise AlgebraError("monomial is not invertible in this algebra")
        return tuple(_inverse_atom(a) for a in reversed(self.mono_atoms(m)))

    def letters(self, atoms) -> tuple:
        """The generator letters of an atom word: a power repeats its letter
        (``yinv`` for a negative one), a Laurent weight becomes ``e`` and
        ``einv`` letters, a group element its reduced word in ``s`` or ``t``,
        and a Clifford word its ``c_i`` by increasing i."""
        toks: list = []
        for atom in atoms:
            kind = atom[0]
            if kind in ("L", "R"):
                var = self.left_var if kind == "L" else self.right_var
                toks += [(var, atom[1]) if atom[2] > 0 else ("yinv", atom[1])] * abs(atom[2])
            elif kind == "E":
                for i, e in enumerate(atom[1], start=1):
                    toks += [("e" if e > 0 else "einv", i)] * abs(e)
            elif kind == "G":
                toks += [("t" if self.spin else "s", i) for i in st.lehmer_word(atom[1])]
            else:
                toks += [("c", i) for i, bit in enumerate(atom[1], start=1) if bit]
        return tuple(toks)

    def atom_parity(self, atom: tuple) -> int:
        """The Z/2 degree of one atom: odd powers of xi, b and zeta, odd
        group elements in the spin algebras, and odd Clifford words."""
        kind = atom[0]
        if kind in ("L", "R"):
            var = self.left_var if kind == "L" else self.right_var
            return atom[2] & 1 if var in _ODD_VARS else 0
        if kind == "G":
            return st.perm_parity(atom[1]) if self.spin else 0
        return sum(atom[1]) & 1 if kind == "C" else 0

    # -- text ------------------------------------------------------------------

    def mono_str(self, m: tuple) -> str:
        """Canonical text of a basis monomial, in PBW slot order.  Group
        elements are transposition products (``s13``) in the even algebras
        and canonical reduced words (``t1*t2*t1``) in the spin ones; both
        reparse to the same basis element."""
        left, grp, cliff, right = m
        texts = (
            _slot_str(self.left_var, self.left_laurent, left),
            _spin_group_str(grp) if self.spin else _plain_group_str(grp),
            _slot_str("c", False, cliff),
            _slot_str(self.right_var, self.right_var in ("epsv", "zeta"), right),
        )
        return "*".join(filter(None, texts)) or "1"

    def sort_key(self, m: tuple):
        """Terms print by falling polynomial degree, then by monomial."""
        left, _, _, right = m
        return (-(sum(map(abs, left)) + sum(map(abs, right))), m)

    # -- relations ------------------------------------------------------------

    def relations(self) -> list:
        if self._relations is None:
            if self._relations_builder is None:
                raise AlgebraError(f"no relation table attached to {self.name}")
            self._relations = self._relations_builder(self)
        return self._relations

    # -- multiplication -------------------------------------------------------

    def mono_atoms(self, m: tuple) -> tuple:
        left, grp, cliff, right = m
        atoms: list = []
        if self.left_laurent:
            if any(left):
                atoms.append(("E", left))
        else:
            atoms += [("L", i, e) for i, e in enumerate(left, start=1) if e]
        if grp != self._id:
            atoms.append(("G", grp))
        if cliff and any(cliff):
            atoms.append(("C", cliff))
        atoms += [("R", i, e) for i, e in enumerate(right, start=1) if e]
        return tuple(atoms)

    def mul_mono(self, m1: tuple, m2: tuple) -> tuple:
        """m1 * m2 as a flat term tuple ``(m, c, m', c', ...)``, memoized."""
        key = (m1, m2)
        out = self._mul_cache.get(key)
        if out is None:
            out = self._mul_cache[key] = self._share(
                self._insert_term(self.mono_atoms(m1), m2, ONE, {}))
        return out

    def normalize(self, word: tuple) -> dict:
        """Straighten an atom word; returns {monomial: Scalar}."""
        return self._insert_term(word, self.one_mono, ONE, {})

    def _share(self, terms: dict) -> tuple:
        """The one stored form of a memo value: ``terms`` as a flat tuple
        ``(m1, c1, m2, c2, ...)``, each monomial and each of its slot tuples
        the equal object already held in ``_shared_cache``, so equal
        monomials in different memo values are one object."""
        shared = self._shared_cache
        get, keep = shared.get, shared.setdefault
        flat: list = []
        for mono, c in terms.items():
            m = get(mono)
            if m is None:
                left, grp, cliff, right = mono
                m = (keep(left, left), keep(grp, grp), keep(cliff, cliff), keep(right, right))
                shared[m] = m
            flat += (m, c)
        return tuple(flat)

    def _insert_word(self, word: tuple, terms, out: dict | None = None) -> dict:
        """Add word * terms in normal form into ``out`` (a new dict if None)
        and return it; ``terms`` is an iterable of (monomial, coefficient)
        pairs, read once.

        ``stage[j]`` collects the terms that have received ``word[j:]``, and
        ``stage[0]`` is ``out``.  Each term walks the atoms right to left as
        one (sign, monomial) pair, by :meth:`_walk`, and joins the stage
        where a cross rule is due, so it meets, and may cancel against, every
        other term that needs that rule before :meth:`_cross` is applied once
        per monomial.  Slot
        moves are injective on monomials, so a walk past a stage loses no
        cancellation."""
        out = {} if out is None else out
        if not word:
            for mono, c in terms:
                add_term(out, mono, c)
            return out
        top = len(word)
        stage = [None] * top + [terms]  # every other stage dict is made on first use
        stage[0] = out
        walk, cross = self._walk, self._cross
        for j in range(top, 0, -1):
            cur = stage[j]
            if cur is None:
                continue
            for mono, c in (cur if j == top else cur.items()):
                sign, i, mono = walk(word, j, mono)
                if i < j:
                    dst = stage[i]
                    if dst is None:
                        dst = stage[i] = {}
                    add_term(dst, mono, -c if sign < 0 else c)
                    continue
                # the stage's own atom is a cross rule
                dst = stage[j - 1]
                if dst is None:
                    dst = stage[j - 1] = {}
                it = iter(cross(word[j - 1], mono))
                for m2, c2 in zip(it, it):
                    add_term(dst, m2, c2 if c is ONE else c * c2)
        return out

    def _walk(self, word: tuple, i: int, mono: tuple) -> tuple:
        """Move ``mono`` through ``word[:i]`` right to left by the slot moves
        of ``_MOVERS``: (sign, i', moved) with ``word[i' - 1]`` the first atom
        that needs a cross rule, or i' = 0 when every atom moved."""
        movers, sign = self._MOVERS, 1
        while i:
            atom = word[i - 1]
            hit = movers[atom[0]](self, atom, mono)
            if hit is None:
                break
            s, mono = hit
            sign *= s
            i -= 1
        return sign, i, mono

    def _insert_term(self, word: tuple, mono: tuple, c: Scalar, out: dict) -> dict:
        """Add word * (c mono) into ``out`` and return it: :meth:`_insert_word`
        for one term, with no stage dicts.  The term walks to its first cross
        rule alone; the rule's result terms take the rest of the word
        together, through :meth:`_insert_word`, so they meet before the next
        rule fires."""
        sign, i, mono = self._walk(word, len(word), mono)
        if sign < 0:
            c = -c
        if not i:
            add_term(out, mono, c)
            return out
        it = iter(self._cross(word[i - 1], mono))
        terms = zip(it, it) if c is ONE else ((m, c * d) for m, d in zip(it, it))
        return self._insert_word(word[:i - 1], terms, out)

    def _cross(self, atom: tuple, mono: tuple) -> tuple:
        """atom * mono by a cross rule as a flat term tuple, memoized under
        the key (atom, mono); each rule word is inserted straight into the one
        result dict, as the ``out`` of :meth:`_insert_term`.  A right power
        meets the left slot in Horner steps of r or y^-1 (only y is Laurent,
        so never the group slot), and :meth:`_divide` gives y_i^-1 M."""
        cache = self._norm_cache
        out = cache.get((atom, mono))
        if out is not None:
            return out
        left, grp, cliff, right = mono
        if not any(left):  # epsv_i or zeta_i against sigma
            first, rest = ("G", grp), (left, self._id, cliff, right)
        elif self.left_laurent:
            first, rest = ("E", left), (self._zeros, grp, cliff, right)
        else:
            j = next(j for j, e in enumerate(left) if e)
            first = ("L", j + 1, left[j])
            rest = (left[:j] + (0,) + left[j + 1:], grp, cliff, right)
        horner = atom[0] == "R" and first[0] != "G"
        unit = -1 if horner and atom[2] < 0 else 1
        base = ("R", atom[1], unit) if horner else atom
        # base is atom, whose key missed above, unless atom is a Horner power
        out = cache.get((base, mono)) if horner and atom[2] != unit else None
        if out is None and unit < 0:
            out = cache[base, mono] = self._share(self._divide(base, mono))
        elif out is None:
            rules = self._rule_cache.get((base, first))
            if rules is None:
                rules = tuple((c, w) for c, w in _rewrite_pair(self, base, first) if not c.is_zero)
                self._rule_cache[base, first] = rules
            out = {}
            for coeff, repl in rules:
                self._insert_term(repl, rest, coeff, out)
            out = cache[base, mono] = self._share(out)
        if horner:
            for b in range(2, abs(atom[2]) + 1):
                key = (("R", atom[1], b * unit), mono)
                step = cache.get(key)
                if step is None:
                    it = iter(out)
                    step = cache[key] = self._share(self._insert_word((base,), zip(it, it)))
                out = step
        return out

    def _divide(self, atom: tuple, mono: tuple) -> dict:
        """y_i^-1 M as the one N with y_i N = M: guess y_i^-1 past a zero left
        slot in each residual term, add the guess to N and subtract y_i times
        it; the leading terms cancel, so the residual's left degree falls."""
        up, out, rest = ("R", atom[1], 1), {}, {mono: ONE}
        while rest:
            guess: dict = {}
            for (left, grp, cliff, right), c in rest.items():
                sign, (_, *moved) = self._move_right(atom, (self._zeros, grp, cliff, right))
                add_term(guess, (left, *moved), -c if sign < 0 else c)
            for m, c in guess.items():
                add_term(out, m, c)
            self._insert_word((up,), ((m, -c) for m, c in guess.items()), rest)
        return out

    def _move_left(self, atom: tuple, mono: tuple):
        left, grp, cliff, right = mono
        i, k = atom[1], atom[2]
        new = list(left)
        new[i - 1] += k
        odd = self._left_odd and k & 1 and sum(left[: i - 1]) & 1
        return (-1 if odd else 1), (tuple(new), grp, cliff, right)

    def _move_weight(self, atom: tuple, mono: tuple):
        left, grp, cliff, right = mono
        return 1, (tuple(map(operator.add, atom[1], left)), grp, cliff, right)

    def _move_cliff(self, atom: tuple, mono: tuple):
        left, grp, cliff, right = mono
        bits = atom[1]
        move = self._cliff_moves.get((grp, bits, cliff))
        if move is None:
            sign, moved = (1, bits) if grp == self._id else st.cliff_conj(st.inverse(grp), bits)
            s, moved = st.cliff_mul(moved, cliff)
            move = self._cliff_moves[grp, bits, cliff] = (sign * s, moved)
        sign = move[0]
        if self._left_anti and sum(e for e, b in zip(left, bits) if b) & 1:
            sign = -sign
        return sign, (left, grp, move[1], right)

    def _move_group(self, atom: tuple, mono: tuple):
        left, grp, cliff, right = mono
        p = atom[1]
        sign = 1
        if any(left):
            if self.left_var in ("a", "b"):
                return None
            new = [0] * self.n
            for i, e in enumerate(left):
                new[p[i] - 1] = e
            if self.left_var == "xi":
                # each odd xi_i^k passes t_p with parity(p), and the odd
                # exponents are reordered by p
                odd = [p[i] for i, e in enumerate(left) if e & 1]
                flips = st.perm_parity(p) * len(odd)
                flips += sum(1 for a, v in enumerate(odd) for w in odd[a + 1:] if v > w)
                sign = -1 if flips & 1 else 1
            left = tuple(new)
        if grp == self._id:
            return sign, (left, p, cliff, right)
        move = self._group_moves.get((p, grp))
        if move is None:
            beta = st.spin_group(self.n).beta(p, grp) if self.spin else 1
            move = self._group_moves[p, grp] = (beta, st.compose(p, grp))
        return sign * move[0], (left, move[1], cliff, right)

    def _move_right(self, atom: tuple, mono: tuple):
        left, grp, cliff, right = mono
        if any(left):
            return None
        i, k = atom[1], atom[2]
        sign = 1
        if grp != self._id:
            if self.right_var in ("epsv", "zeta"):
                return None
            i = grp.index(i) + 1  # sigma^{-1}(i)
            if self.right_var == "xi" and k & 1 and st.perm_parity(grp):
                sign = -1
        if k & 1 and (
            (self._right_anti and cliff[i - 1])
            or (self._right_odd and sum(right[: i - 1]) & 1)
        ):
            sign = -sign
        new = list(right)
        new[i - 1] += k
        return sign, (left, grp, cliff, tuple(new))

    # atom * mono as (sign, monomial) when it is index arithmetic on the
    # slots; None for the cross rules: r_i against a nonzero left slot, s_m
    # against a nonzero a or b slot, and epsv_i or zeta_i against a group
    # slot that is not the identity
    _MOVERS = {"L": _move_left, "E": _move_weight, "C": _move_cliff, "G": _move_group,
               "R": _move_right}

    def __repr__(self) -> str:
        return f"<{self.name} n={self.n}>"


def clear_caches() -> None:
    """Empty every memo table: scalar products, sums, negatives and texts,
    the memoized permutation and Clifford word helpers, group and slot
    texts, the SpinGroup tables, and the tables of every signature and
    module.  Interned scalars, signatures and modules stay, since equality
    compares them by identity."""
    for table in (sc._MUL_CACHE, sc._ADD_CACHE, sc._NEG_CACHE, sc._RENDER_CACHE):
        table.clear()
    for fn in (st.inverse, st.perm_parity, st.transposition, st.lehmer_word, st._word,
               st.spin_group, _plain_group_str, _spin_group_str, _slot_str):
        fn.cache_clear()
    for owner in list(_MEMO_OWNERS):
        owner.clear_memo()


@lru_cache(maxsize=None)
def _slot_str(name: str, call: bool, exps: tuple) -> str:
    """The letters of one slot, ``""`` for an empty one: ``x1^2*x3``, ``c1*c3``
    for Clifford bits, ``epsv(2)`` when ``call``, ``einv(1)^2`` for a
    negative e weight and ``y1^-2`` for a localized y."""
    pieces = []
    for i, e in enumerate(exps, start=1):
        if e:
            if name == "e" and e < 0:
                base, e = f"einv({i})", -e
            else:
                base = f"{name}({i})" if call else f"{name}{i}"
            pieces.append(base if e == 1 else f"{base}^{e}")
    return "*".join(pieces)


@lru_cache(maxsize=None)
def _plain_group_str(p: tuple) -> str:
    n = len(p)
    q = list(p)
    factors = []
    while True:
        m = max((i for i in range(1, n + 1) if q[i - 1] != i), default=0)
        if not m:
            break
        k = q.index(m) + 1
        factors.append(f"s{k}{m}" if m <= 9 else f"s({k},{m})")
        q[k - 1], q[m - 1] = q[m - 1], q[k - 1]
    return "*".join(reversed(factors))


@lru_cache(maxsize=None)
def _spin_group_str(p: tuple) -> str:
    return "*".join(f"t{i}" for i in st.lehmer_word(p))


# ---------------------------------------------------------------------------
# Local rewriting rules
# ---------------------------------------------------------------------------

def _wd(*atoms) -> tuple:
    """Assemble a rule output word, dropping zero powers."""
    return tuple(a for a in atoms if a[0] not in ("L", "R") or a[2])


def _bits(sig, *indices) -> tuple:
    return tuple(1 if m in indices else 0 for m in range(1, sig.n + 1))


def _t_words(sig, coeff: Scalar, a: int, b: int, head: tuple = ()) -> list:
    """Rule words for coeff * head * T_ab, the group-side term of the Dunkl
    and trigonometric cross relations: the odd transposition [a, b] in the
    spin algebras, and (1 + c_a c_b) s_ab otherwise, c_a c_b put canonical."""
    if sig.spin:
        sgn, perm = st.spin_group(sig.n).odd_transposition(a, b)
        return [(coeff if sgn > 0 else -coeff, head + (("G", perm),))]
    g = ("G", st.transposition(a, b, sig.n))
    return [
        (coeff, head + (g,)),
        (coeff if a < b else -coeff, head + (("C", _bits(sig, a, b)), g)),
    ]


def _bracket_words(sig, i: int, j: int) -> list:
    """[y_i, l_j] (l = x or xi) as rule words: u T_ij for i != j, and
    -u sum_{k != i} T_ki for i = j.  In the y-first order, [l_i, y_j] is
    the same with i and j swapped and u negated."""
    u = sig.u_scalar
    if sig.right_var != "y":
        i, j, u = j, i, -u
    if i != j:
        return _t_words(sig, u, i, j)
    out = []
    for k in range(1, sig.n + 1):
        if k != i:
            out += _t_words(sig, -u, k, i)
    return out


def trig_comm_word_terms(sig, i: int, eta: tuple) -> list:
    """Rule words for the defining commutator [r_i, e^eta]: the divided
    difference against e^eta is expanded as an exact geometric sum,
    sum over k and m of +-u e^(eta + m s (eps_k - eps_i)) T_ki, s = +-1."""
    u = sig.u_scalar
    out = []
    for k in range(1, sig.n + 1):
        d = eta[i - 1] - eta[k - 1]
        if d == 0:  # also k == i
            continue
        s = 1 if k > i else -1
        coeff = u if d > 0 else -u
        for m in range(min(0, s * d), max(0, s * d)):
            vec = list(eta)
            vec[k - 1] += m * s
            vec[i - 1] -= m * s
            head = (("E", tuple(vec)),) if any(vec) else ()
            out += _t_words(sig, coeff, k, i, head)
    return out


def _affine_words(sig, left: bool, m: int, i: int, k: int) -> list:
    """s_m v_i^k (left slot, v = a or b) or v_i^k s_m (right slot, v = epsv
    or zeta) as rule words.  With j the other index of {m, m+1}, the unit
    rules are Nazarov's and its variants:

        s_m a_i    = a_j s_m -+ 1 - c_m c_{m+1}     (-+ : - at i = m)
        t_m b_i    = -b_j t_m + 1
        epsv_i s_m = s_m epsv_j -+ u + u c_m c_{m+1}
        zeta_i t_m = -t_m zeta_j + u

    and a far letter passes with the sign (-1)^k when v is odd.  The unit
    rule s_m v_i = sigma v_j s_m + eps + gamma C, C = c_m c_{m+1}, is applied
    k times in one step:

        s_m v_i^k = sigma^k v_j^k s_m
                    + sum_{t<k} sigma^t v_j^t (eps + gamma C) v_i^(k-1-t)

    (sigma = 1, eps = -+1, gamma = -1 for a; sigma = -1, eps = 1, gamma = 0
    for b), and the right slot is its mirror image, with eps = -+u and
    gamma = u for epsv, and eps = u for zeta:

        v_i^k s_m = sigma^k s_m v_j^k
                    + sum_{t<k} sigma^t v_i^(k-1-t) (eps + gamma C) v_j^t

    The words are built in left-slot order and reversed on the right."""
    slot, var = ("L", sig.left_var) if left else ("R", sig.right_var)
    odd = var in _ODD_VARS
    sm = ("G", st.transposition(m, m + 1, sig.n))
    j = 2 * m + 1 - i
    if i != m and i != m + 1:
        words = [(_MINUS_ONE if odd and k & 1 else ONE, ((slot, i, k), sm))]
    else:
        unit = ONE if left else sig.u_scalar
        eps = unit if odd or i > m else -unit
        gamma = _MINUS_ONE if left else unit
        cm = ("C", _bits(sig, m, m + 1))
        words = [(_MINUS_ONE if odd and k & 1 else ONE, ((slot, j, k), sm))]
        for t in range(k):
            head, tail = (slot, j, t), (slot, i, k - 1 - t)
            words.append((-eps if odd and t & 1 else eps, (head, tail)))
            if not odd:
                words.append((gamma, (head, cm, tail)))
    return [(c, _wd(*(w if left else reversed(w)))) for c, w in words]


def _rewrite_pair(sig, A: tuple, B: tuple) -> list:
    """The cross rules: A times the leading atom B of a monomial, for the
    pairs that the movers of ``AlgebraSignature._MOVERS`` leave to rewriting."""
    if "G" in (A[0], B[0]):
        # affine corrections: peel the letter s_m of the canonical word that
        # meets the polynomial slot; the rest q of the word stays outside,
        # spelled by its simple letters, since t_p is the product along its
        # Lehmer word
        left = A[0] == "G"
        p, (_, i, k) = (A[1], B) if left else (B[1], A)
        word = st.lehmer_word(p)
        m, outer = (word[-1], word[:-1]) if left else (word[0], word[1:])
        q = tuple(("G", st.transposition(r, r + 1, sig.n)) for r in outer)
        words = _affine_words(sig, left, m, i, k)
        return [(c, q + w) if left else (c, w + q) for c, w in words]
    i = A[1]
    # Against L and E only k = 1 arrives here: _cross inserts a higher power
    # in Horner order, and divides by a negative one.
    if B[0] == "E":
        # r_i e^lam = e^lam r_i + [r_i, e^lam], the closed form for the whole weight
        return [(ONE, (B, A))] + trig_comm_word_terms(sig, i, B[1])
    # B is an L atom: the rational double affine cross relation
    # r_i l_j^l = l_j^l r_i + sum_{t<l} l_j^t [r_i, l_j] l_j^(l-1-t)
    j, l = B[1], B[2]
    bracket = _bracket_words(sig, i, j)
    out = [(ONE, (B, A))]
    for t in range(l):
        head, tail = _wd(("L", j, t)), _wd(("L", j, l - 1 - t))
        out += [(c, head + w + tail) for c, w in bracket]
    return out


# ---------------------------------------------------------------------------
# Elements
# ---------------------------------------------------------------------------

class Element:
    """A finite Scalar-linear combination of basis monomials of one algebra."""

    __slots__ = ("sig", "terms")

    def __init__(self, sig, terms: dict | None = None):
        self.sig = sig
        self.terms = {m: c for m, c in (terms or {}).items() if c is not ZERO}

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls, sig) -> "Element":
        return cls(sig)

    @classmethod
    def one(cls, sig) -> "Element":
        return cls(sig, {sig.one_mono: ONE})

    @classmethod
    def scalar(cls, sig, c: Scalar) -> "Element":
        return cls(sig, {sig.one_mono: c})

    # -- ring operations ------------------------------------------------------

    def _compatible(self, other: "Element") -> None:
        if self.sig is not other.sig:
            raise AlgebraError(
                f"algebra mismatch: {self.sig.name}(n={self.sig.n}) vs "
                f"{other.sig.name}(n={other.sig.n})"
            )

    def __add__(self, other: "Element") -> "Element":
        self._compatible(other)
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(out, m, c)
        return Element(self.sig, out)

    def __sub__(self, other: "Element") -> "Element":
        return self + (-other)

    def __neg__(self) -> "Element":
        return Element(self.sig, {m: -c for m, c in self.terms.items()})

    def scale(self, c: Scalar) -> "Element":
        if c.is_zero:
            return Element(self.sig)
        return Element(self.sig, {m: c * v for m, v in self.terms.items()})

    def __mul__(self, other: "Element") -> "Element":
        self._compatible(other)
        sig = self.sig
        out: dict = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c12 = c1 * c2
                it = iter(sig.mul_mono(m1, m2))
                for m, c in zip(it, it):
                    add_term(out, m, c if c12 is ONE else c12 * c)
        return Element(sig, out)

    def __pow__(self, k: int) -> "Element":
        if k < 0:
            return self._invert_monomial() ** (-k)
        sig = self.sig
        if k > 1 and len(self.terms) == 1 and isinstance(sig, AlgebraSignature):
            # one letter of a polynomial slot, x_i^e or e^lam: its k-th power
            # is the one atom with the exponent times k, by one move
            ((mono, c),) = self.terms.items()
            atoms = sig.mono_atoms(mono)
            if c is ONE and len(atoms) == 1 and atoms[0][0] in ("L", "R", "E"):
                (atom,) = atoms
                if atom[0] == "E":
                    atom = ("E", tuple(e * k for e in atom[1]))
                else:
                    atom = (atom[0], atom[1], atom[2] * k)
                return Element(sig, sig.normalize((atom,)))
        return sc.power(self, k, Element.one(sig))

    def _invert_monomial(self) -> "Element":
        if not self.terms:
            raise AlgebraError("division by zero")
        if len(self.terms) != 1:
            raise AlgebraError("only invertible monomials can be raised to negative powers")
        (mono,) = self.terms
        sig = self.sig
        cand = Element(sig, sig.normalize(sig.inverse_word(mono)))
        ((_, c),) = (self * cand).terms.items()
        return cand.scale(ONE / c)

    # -- inspection -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Element)
            and self.sig is other.sig
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((id(self.sig), tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    def parity(self) -> str:
        seen = {self.sig.parity_mono(m) for m in self.terms}
        if seen <= {0}:
            return "even"
        if seen == {1}:
            return "odd"
        return "mixed"

    def specialize_coefficients(self, u0: QOmega, target_sig) -> "Element":
        out: dict = {}
        for m, c in self.terms.items():
            val = c.eval(u0)
            if val:
                out[m] = Scalar.from_qomega(val)
        return Element(target_sig, out)

    def __repr__(self) -> str:
        from .render import element_str  # local import to keep layering simple

        return f"<{self.sig.name} element {element_str(self)}>"


def _inverse_atom(atom: tuple) -> tuple:
    """The inverse of a unit atom, up to the sign that c^b and t_p carry."""
    kind = atom[0]
    if kind == "E":
        return ("E", tuple(-e for e in atom[1]))
    if kind == "R":
        return ("R", atom[1], -atom[2])
    if kind == "G":
        return ("G", st.inverse(atom[1]))
    return atom


def monomial_element(sig, mono: tuple, coeff: Scalar = ONE) -> Element:
    return Element(sig, {mono: coeff})


def generator_element(sig, token: tuple) -> Element:
    sgn, atoms = sig.atomize(token)
    terms = sig.normalize(atoms)
    out = Element(sig, dict(terms))
    return out if sgn > 0 else -out


def element_from_terms(sig, terms) -> Element:
    """Evaluate [(Scalar, token word), ...] to a normal-form Element."""
    out: dict = {}
    for coeff, word in terms:
        sgn = 1
        atoms: tuple = ()
        for tok in word:
            s, a = sig.atomize(tok)
            sgn *= s
            atoms += a
        eff = coeff if sgn > 0 else -coeff
        if eff.is_zero:
            continue
        for m, c in sig.normalize(atoms).items():
            add_term(out, m, eff * c)
    return Element(sig, out)


def bracket(a: Element, b: Element) -> Element:
    """The commutator ab - ba."""
    return a * b - b * a


def super_bracket(a: Element, b: Element, plus: bool | None = None) -> Element:
    """ab + ba when ``plus`` (default: both arguments homogeneous odd)."""
    if plus is None:
        plus = a.parity() == "odd" and b.parity() == "odd"
    return a * b + b * a if plus else a * b - b * a


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------

def check_relations(title: str, relations, evaluate) -> Report:
    """Evaluate both sides of every (id, lhs, rhs) relation; the difference
    must vanish.  Shared by the relation and the homomorphism checks."""
    from .render import element_str

    report = Report(title)
    for rel_id, lhs, rhs in relations:
        diff = evaluate(lhs) - evaluate(rhs)
        report.add(rel_id, diff.is_zero, None if diff.is_zero else element_str(diff))
    return report


def verify_relations(sig) -> Report:
    """Normalize LHS - RHS of every defining relation instance."""
    title = f"relations[{sig.name}, n={sig.n}]"
    return check_relations(title, sig.relations(), lambda terms: element_from_terms(sig, terms))


def _random_exps(rng: Random, n: int, degree_bound: int, laurent: bool) -> tuple:
    """Up to ``degree_bound`` steps of +1, or of -1 or +1 in a Laurent slot."""
    vec = [0] * n
    for _ in range(rng.randint(0, degree_bound)):
        vec[rng.randrange(n)] += rng.choice((-1, 1)) if laurent else 1
    return tuple(vec)


def random_monomial(sig, rng: Random, degree_bound: int) -> tuple:
    n = sig.n
    laurent = sig.left_laurent
    left = _random_exps(rng, n, degree_bound, laurent) if laurent or sig.left_var else ()
    perm = list(range(1, n + 1))
    rng.shuffle(perm)
    cliff = tuple(rng.randint(0, 1) for _ in range(n)) if sig.has_clifford else ()
    right = _random_exps(rng, n, degree_bound, False) if sig.right_var else ()
    return (left, tuple(perm), cliff, right)


def confluence_probe(sig, trials: int, degree_bound: int, seed: int) -> Report:
    """Random associativity and re-normalization idempotence probes."""
    rng = Random(seed)
    report = Report(f"confluence[{sig.name}, n={sig.n}]")
    for trial in range(trials):
        a = random_monomial(sig, rng, degree_bound)
        b = random_monomial(sig, rng, degree_bound)
        c = random_monomial(sig, rng, degree_bound)
        ea, eb, ec = (monomial_element(sig, m) for m in (a, b, c))
        left = (ea * eb) * ec
        right = ea * (eb * ec)
        ok = left == right
        report.add(
            f"assoc[{trial:04d}]",
            ok,
            None if ok else f"({sig.mono_str(a)})({sig.mono_str(b)})({sig.mono_str(c)})",
        )
        again = {}
        for m, coeff in left.terms.items():
            for m2, c2 in sig.normalize(sig.mono_atoms(m)).items():
                add_term(again, m2, coeff * c2)
        ok2 = Element(sig, again) == left
        report.add(f"idem[{trial:04d}]", ok2, None if ok2 else sig.mono_str(a))
    return report
