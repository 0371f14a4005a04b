"""Permutations, Clifford words, the spin cocycle and its oracle."""

import random

from spinhecke import algebras as alg
from spinhecke.engine import element_from_terms, generator_element
from spinhecke.scalars import ONE, add_term
from spinhecke.structure import (
    SpinGroup,
    all_perms,
    cliff_conj,
    cliff_mul,
    compose,
    identity,
    inverse,
    koszul_sign,
    lehmer_word,
    length,
    perm_parity,
    spin_group,
    transposition,
    word_to_perm,
)


def test_compose_examples():
    s1 = transposition(1, 2, 3)
    s2 = transposition(2, 3, 3)
    assert compose(s1, s1) == identity(3)
    assert compose(s1, compose(s2, s1)) == compose(s2, compose(s1, s2)) == (3, 2, 1)
    assert transposition(1, 3, 3) == (3, 2, 1)


def test_inverse_and_length():
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(2, 6)
        p = list(range(1, n + 1))
        rng.shuffle(p)
        p = tuple(p)
        assert compose(p, inverse(p)) == identity(n)
        for i in range(1, n):
            q = compose(p, transposition(i, i + 1, n))
            assert abs(length(q) - length(p)) == 1
        assert length(p) % 2 == perm_parity(p)


def test_lehmer_word_reconstructs():
    for n in (2, 3, 4, 5):
        for p in all_perms(n):
            word = lehmer_word(p)
            assert len(word) == length(p)
            assert word_to_perm(word, n) == p


def test_clifford_products():
    assert cliff_mul((1, 0), (1, 0)) == (1, (0, 0))
    assert cliff_mul((0, 1), (1, 0)) == (-1, (1, 1))
    # (c1 c2)(c2 c3) = c1 c3
    assert cliff_mul((1, 1, 0), (0, 1, 1)) == (1, (1, 0, 1))


def test_clifford_conjugation():
    s12 = transposition(1, 2, 2)
    assert cliff_conj(identity(3), (1, 0, 1)) == (1, (1, 0, 1))
    # s_12 c1 = c2 s_12, and permuting the pair c1 c2 costs a sort sign
    assert cliff_conj(s12, (1, 0)) == (1, (0, 1))
    assert cliff_conj(s12, (1, 1)) == (-1, (1, 1))


def test_koszul_sign_table():
    assert koszul_sign(0, 1) == 1
    assert koszul_sign(1, 1) == -1
    assert koszul_sign(0, 0) == 1


def test_cocycle_basic_values():
    sg = spin_group(4)
    for p in all_perms(4):
        assert sg.beta(identity(4), p) == 1
        assert sg.beta(p, identity(4)) == 1
    s1 = transposition(1, 2, 4)
    s3 = transposition(3, 4, 4)
    assert sg.beta(s1, s1) == 1
    assert sg.beta(s1, s3) == -sg.beta(s3, s1)


def test_cocycle_identity_random_n5():
    sg = spin_group(5)
    rng = random.Random(41)
    perms = list(all_perms(5))
    for _ in range(1000):
        s, t, r = (rng.choice(perms) for _ in range(3))
        assert sg.beta(s, t) * sg.beta(compose(s, t), r) == sg.beta(
            s, compose(t, r)
        ) * sg.beta(t, r)


def test_cocycle_matches_word_oracle_small():
    # every pair up to n=5: 14,400 pairs at n=5
    for n in (2, 3, 4, 5):
        sg = spin_group(n)
        for p in all_perms(n):
            for q in all_perms(n):
                assert sg.beta(p, q) == sg.beta_by_words(p, q), (p, q)


def test_cocycle_matches_word_oracle_random():
    rng = random.Random(59)
    for n, trials in ((5, 2000), (6, 200)):
        sg = spin_group(n)
        perms = list(all_perms(n))
        for _ in range(trials):
            p, q = rng.choice(perms), rng.choice(perms)
            assert sg.beta(p, q) == sg.beta_by_words(p, q), (p, q)


def test_cocycle_and_word_oracle_are_independent(monkeypatch):
    """Each side of the cocycle oracle pair covers every pair at n=4 with
    the other side switched off."""
    perms = list(all_perms(4))
    pairs = [(p, q) for p in perms for q in perms]

    def refuse(*args, **kwargs):
        raise AssertionError("one side of the cocycle oracle pair reached the other")

    with monkeypatch.context() as m:
        m.setattr(SpinGroup, "beta", refuse)
        m.setattr(SpinGroup, "_kappa", refuse)
        sg = SpinGroup(4)
        by_words = [sg.beta_by_words(p, q) for p, q in pairs]
    with monkeypatch.context() as m:
        m.setattr(SpinGroup, "_sign_between", refuse)
        m.setattr(SpinGroup, "_mult_gen_by_words", refuse)
        sg = SpinGroup(4)
        model = [sg.beta(p, q) for p, q in pairs]
    assert model == by_words
    assert set(model) == {1, -1}


def _clifford_product(A: dict, B: dict) -> dict:
    out = {}
    for wa, ca in A.items():
        for wb, cb in B.items():
            sgn, word = cliff_mul(wa, wb)
            add_term(out, word, ca * cb if sgn > 0 else -(ca * cb))
    return out


def _clifford_conjugate(p: tuple, A: dict) -> dict:
    out = {}
    for word, coeff in A.items():
        sgn, image = cliff_conj(p, word)
        out[image] = coeff if sgn > 0 else -coeff
    return out


def test_clifford_model_full_equality():
    # K_p * (p K_q p^{-1}) equals beta * K_{pq} as full Clifford elements
    for n in (2, 3, 4):
        sg = spin_group(n)
        for p in all_perms(n):
            for q in all_perms(n):
                prod = _clifford_product(
                    sg.kappa_table(p), _clifford_conjugate(p, sg.kappa_table(q)))
                target = sg.kappa_table(compose(p, q))
                beta = sg.beta(p, q)
                scaled = {w: (c if beta > 0 else -c) for w, c in target.items()}
                assert prod == scaled


def test_odd_transposition_values():
    sg = spin_group(3)
    sgn, perm = sg.odd_transposition(1, 2)
    assert (sgn, perm) == (1, transposition(1, 2, 3))
    sgn, perm = sg.odd_transposition(2, 1)
    assert (sgn, perm) == (-1, transposition(1, 2, 3))
    # [1,3] = -t2 t1 t2: reduce the word to the canonical section
    sgn13, perm13 = sg.odd_transposition(1, 3)
    assert perm13 == transposition(1, 3, 3)
    word_sign, acc = 1, identity(3)
    for m in (2, 1, 2):
        word_sign, acc = sg.mult_gen(word_sign, acc, m)
    assert (sgn13, perm13) == (-word_sign, acc)


def test_odd_transposition_squares_to_one():
    s4 = alg.spin_sym(4)
    from spinhecke.spin_family import odd_transposition

    for i in range(1, 5):
        for j in range(1, 5):
            if i == j:
                continue
            tr = odd_transposition(i, j, s4)
            assert (tr * tr) == element_from_terms(s4, [(ONE, ())])
            assert tr == -odd_transposition(j, i, s4)


def test_odd_transposition_conjugation():
    # t_i [i,j] t_i = -[i+1, j] for j != i, i+1
    from spinhecke.spin_family import odd_transposition

    s4 = alg.spin_sym(4)
    for i in range(1, 4):
        for j in range(1, 5):
            if j in (i, i + 1):
                continue
            ti = generator_element(s4, ("t", i))
            lhs = ti * odd_transposition(i, j, s4) * ti
            assert lhs == -odd_transposition(i + 1, j, s4)


def test_lehmer_product_has_positive_sign():
    # folding the canonical word through the cocycle never picks up a sign
    for n in (3, 4):
        sg = spin_group(n)
        for p in all_perms(n):
            sign, acc = 1, identity(n)
            for m in lehmer_word(p):
                sign, acc = sg.mult_gen(sign, acc, m)
            assert (sign, acc) == (1, p)
