"""Permutation core: composition, words, Bruhat order."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hesspin.permutations import (
    all_permutations,
    bruhat_key,
    bruhat_keys,
    bruhat_leq,
    bruhat_table,
    canonical_word,
    compose,
    descents,
    from_word,
    set_bits,
    identity,
    inverse,
    inversions,
    is_reduced_word,
    simple,
    validate,
)

from oracles import (
    brute_inversions,
    bruhat_leq_oracle,
    bruhat_leq_tableau,
    random_reduced_word,
)


@st.composite
def perms(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    return tuple(draw(st.permutations(tuple(range(1, n + 1)))))


@st.composite
def perm_pairs(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    u = tuple(draw(st.permutations(tuple(range(1, n + 1)))))
    v = tuple(draw(st.permutations(tuple(range(1, n + 1)))))
    return u, v


class TestBasics:
    def test_identity(self):
        assert identity(4) == (1, 2, 3, 4)
        assert identity(1) == (1,)

    def test_validate_rejects(self):
        with pytest.raises(ValueError):
            validate((1, 1, 2))
        with pytest.raises(ValueError):
            validate((0, 1, 2))
        with pytest.raises(ValueError):
            validate((2, 3, 4))
        with pytest.raises(ValueError):
            validate(())

    def test_simple(self):
        assert simple(1, 4) == (2, 1, 3, 4)
        assert simple(3, 4) == (1, 2, 4, 3)
        with pytest.raises(ValueError):
            simple(4, 4)

    @given(perm_pairs())
    def test_compose_acts_right_to_left(self, pair):
        u, v = pair
        w = compose(u, v)
        assert all(w[i] == u[v[i] - 1] for i in range(len(u)))

    @given(perms())
    def test_inverse_round_trip(self, w):
        assert compose(w, inverse(w)) == identity(len(w))
        assert compose(inverse(w), w) == identity(len(w))
        assert inverse(inverse(w)) == w

    @given(perms())
    def test_descents_definition(self, w):
        expected = {i for i in range(1, len(w)) if w[i - 1] > w[i]}
        assert set(descents(w)) == expected

    def test_all_permutations_lexicographic(self):
        got = all_permutations(4)
        assert got == tuple(sorted(itertools.permutations(range(1, 5))))
        assert len(got) == 24


class TestWords:
    def test_from_word_left_to_right(self):
        assert from_word(3, ()) == (1, 2, 3)
        assert from_word(3, (1,)) == (2, 1, 3)
        # s_1 s_2 sends 3 -> 1 via position swaps applied in order
        assert from_word(3, (1, 2)) == (2, 3, 1)
        assert from_word(5, (1, 2, 1, 3)) == (3, 2, 4, 1, 5)

    def test_from_word_matches_group_product(self):
        rng = random.Random(7)
        for _ in range(100):
            n = rng.randrange(2, 7)
            word = tuple(rng.randrange(1, n) for _ in range(rng.randrange(8)))
            prod = identity(n)
            for i in word:
                prod = compose(prod, simple(i, n))
            assert from_word(n, word) == prod

    @given(perms())
    def test_canonical_word_reduced(self, w):
        word = canonical_word(w)
        assert len(word) == inversions(w)
        assert is_reduced_word(len(w), word)
        assert from_word(len(w), word) == w

    @given(perms(), st.integers(0, 2**32 - 1))
    def test_random_reduced_word(self, w, seed):
        word = random_reduced_word(w, random.Random(seed))
        assert len(word) == inversions(w)
        assert from_word(len(w), word) == w

    def test_inversions_match_pairwise_count(self):
        for n in range(1, 8):
            for w in itertools.permutations(range(1, n + 1)):
                assert inversions(w) == brute_inversions(w)
        rng = random.Random(16)
        for n in (16, 64):
            for _ in range(50):
                w = rng.sample(range(1, n + 1), n)
                assert inversions(w) == brute_inversions(w)
        assert inversions(tuple(range(64, 0, -1))) == 64 * 63 // 2

    def test_is_reduced_word(self):
        assert is_reduced_word(3, (1, 2, 1))
        assert not is_reduced_word(3, (1, 1))
        assert not is_reduced_word(3, (1, 2, 1, 2, 1, 2))


class TestBruhat:
    def test_matches_subword_oracle_exhaustively(self):
        for n in (2, 3, 4, 5):
            for v in all_permutations(n):
                for w in all_permutations(n):
                    assert bruhat_leq(v, w) == bruhat_leq_oracle(v, w), (v, w)

    @pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 15, 16, 17])
    def test_matches_tableau_criterion_at_field_widths(self, n):
        # n = 7, 8 / 15, 16 / 16, 17 straddle a change of key field width
        rng = random.Random(1000 + n)
        pairs = []
        for _ in range(200):
            v = tuple(rng.sample(range(1, n + 1), n))
            w = tuple(rng.sample(range(1, n + 1), n))
            # a subword of a reduced word of w multiplies to some u <= w
            b = random_reduced_word(w, rng)
            u = from_word(n, [i for i in b if rng.random() < 0.7])
            # moving one value changes w by a transposition, near the order
            if n > 1:
                p, q = sorted(rng.sample(range(n), 2))
                t = list(w)
                t[p], t[q] = t[q], t[p]
                pairs.append((tuple(t), w))
                pairs.append((w, tuple(t)))
            pairs += [(v, w), (u, w), (w, u)]
        outcomes = {bruhat_leq(v, w) for v, w in pairs}
        for v, w in pairs:
            assert bruhat_leq(v, w) == bruhat_leq_tableau(v, w), (v, w)
        assert outcomes == ({True} if n == 1 else {True, False})

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_leq((1, 2), (1, 2, 3))

    def test_keys_are_injective(self):
        # the rank counts determine the permutation
        perms = all_permutations(5)
        assert len({bruhat_key(w) for w in perms}) == len(perms)

    @pytest.mark.parametrize("n", [1, 2, 5, 6])
    def test_key_and_length_in_one_loop(self, n):
        keys = bruhat_keys(n)
        for w in all_permutations(n):
            assert keys.key_and_length(w) == (keys.key(w), brute_inversions(w))
        with pytest.raises(ValueError, match="size mismatch"):
            keys.key_and_length(identity(n + 1))

    def test_tableau_criterion_large_example(self):
        v = (3, 6, 8, 4, 7, 5, 9, 1, 2)
        w = (6, 9, 4, 2, 8, 7, 5, 3, 1)
        assert not bruhat_leq(v, w)

    @given(perms())
    def test_reflexive_and_bounded(self, w):
        n = len(w)
        assert bruhat_leq(w, w)
        assert bruhat_leq(identity(n), w)
        longest = tuple(range(n, 0, -1))
        assert bruhat_leq(w, longest)

    @given(perm_pairs(max_n=5))
    def test_length_monotone_and_antisymmetric(self, pair):
        v, w = pair
        if bruhat_leq(v, w) and v != w:
            assert inversions(v) < inversions(w)
        if bruhat_leq(v, w) and bruhat_leq(w, v):
            assert v == w

    def test_covers_from_length_one(self):
        # s_i <= w exactly when some reduced word of w uses the letter i
        for w in all_permutations(4):
            letters = set(canonical_word(w))
            for i in (1, 2, 3):
                assert bruhat_leq(simple(i, 4), w) == (i in letters)


class TestBruhatTable:
    """Bitmask rows against the tableau criterion, which shares no code."""

    @staticmethod
    def assert_matches_tableau(rows, cols):
        table = bruhat_table(rows, cols)
        assert len(table) == len(rows)
        for v, mask in zip(rows, table):
            assert 0 <= mask < 1 << len(cols)
            assert [mask >> b & 1 for b in range(len(cols))] == [
                bruhat_leq_tableau(v, w) for w in cols
            ], v

    def test_matches_bruhat_leq_on_rectangles(self):
        rng = random.Random(5)
        perms = all_permutations(4)
        lower = rng.sample(perms, 7)
        for rows, cols in ((lower, perms), (perms, lower)):
            table = bruhat_table(rows, cols)
            assert len(table) == len(rows)
            for v, mask in zip(rows, table):
                assert list(set_bits(mask)) == [
                    b for b, w in enumerate(cols) if bruhat_leq(v, w)
                ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_tableau_exhaustively(self, n):
        perms = all_permutations(n)
        self.assert_matches_tableau(perms, perms)

    @pytest.mark.parametrize("n", [6, 7])
    def test_matches_tableau_on_random_rectangles(self, n):
        rng = random.Random(7800 + n)
        perms = all_permutations(n)
        for rows, cols in ((40, 90), (90, 40), (1, 200), (200, 1)):
            self.assert_matches_tableau(rng.sample(perms, rows), rng.sample(perms, cols))

    def test_empty_inputs(self):
        perms = all_permutations(3)
        assert bruhat_table([], []) == ()
        assert bruhat_table([], perms) == ()
        assert bruhat_table(perms[:2], []) == (0, 0)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_table([(1, 2)], [(1, 2, 3)])
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_table([(1, 2), (1, 2, 3)], [])


class TestSetBits:
    def test_ascending_positions(self):
        assert list(set_bits(0)) == []
        for mask in (1, 0b1011, 1 << 200 | 1 << 3, (1 << 70) - 1):
            bits = list(set_bits(mask))
            assert bits == sorted(bits)
            assert sum(1 << b for b in bits) == mask
