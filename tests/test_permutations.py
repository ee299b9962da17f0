"""Permutation core: composition, words, Bruhat order."""

import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hesspin import permutations
from hesspin.permutations import (
    bruhat_keys,
    bruhat_leq,
    bruhat_table,
    canonical_word,
    compose,
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
    all_permutations,
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

    # a repeated value, a value out of range below and above (the last
    # used to index past the key's tables), and the empty tuple
    NOT_PERMUTATIONS = [(2, 2, 2), (0, 1, 2), (5, 1, 2), ()]

    @pytest.mark.parametrize("bad", NOT_PERMUTATIONS)
    def test_rejects_non_permutations(self, bad):
        w = tuple(range(1, len(bad) + 1))
        for args in ((bad, w), (w, bad)):
            with pytest.raises(ValueError, match="not a permutation"):
                bruhat_leq(*args)

    # unchecked, (1, 2, 4) and (0, 1, 2) would pack the keys of (1, 2, 3)
    # and (3, 1, 2): a last value is never read, and 0 adds what n does
    @pytest.mark.parametrize("bad", [(1, 2, 4), (0, 1, 2), (2, 2, 3), (1, 2, -1)])
    def test_keys_reject_non_permutations(self, bad):
        with pytest.raises(ValueError, match="not a permutation of 1..3"):
            bruhat_keys(3).key(bad)

    def test_trusted_callers_skip_the_key_check(self, monkeypatch):
        # callers whose points are already known permutations pack keys
        # without the public key's check
        from hesspin.billey import check_upper_triangular
        from hesspin.fillings import hessenberg_334, single_row
        from hesspin.hess334 import verify_334_theorem
        from hesspin.pinball import rolldown_table, verify_pinball

        checked, packed = [], []
        real_key, real_pack = permutations.BruhatKeys.key, permutations.BruhatKeys._pack

        def counted_key(keys, w):
            checked.append(w)
            return real_key(keys, w)

        def counted_pack(keys, w):
            packed.append(w)
            return real_pack(keys, w)

        monkeypatch.setattr(permutations.BruhatKeys, "key", counted_key)
        monkeypatch.setattr(permutations.BruhatKeys, "_pack", counted_pack)
        h = hessenberg_334(6)
        assert verify_pinball((6,), h).passed
        assert verify_334_theorem(6).passed
        assert check_upper_triangular(rolldown_table(single_row(6), h)).passed
        perms = all_permutations(4)
        assert bruhat_leq(perms[1], perms[-1])
        assert len(list(bruhat_table(perms, perms))) == len(perms)
        assert checked == [] and packed
        # the public key keeps its check
        with pytest.raises(ValueError, match="not a permutation"):
            bruhat_keys(3).key((1, 1, 3))
        assert checked == [(1, 1, 3)]

    def test_keys_are_injective(self):
        # the rank counts determine the permutation
        perms = all_permutations(5)
        assert len(set(map(bruhat_keys(5).key, perms))) == len(perms)

    @pytest.mark.parametrize("n", [127, 128, 129])
    def test_byte_width_boundary(self, n):
        # a key's fields grow from 1 byte to 2 at n = 128, and at n = 129
        # the identity's counts reach 128, which leaves a 1-byte field no
        # guard bit; the identity's key holds the largest counts
        rng = random.Random(9300 + n)
        e = identity(n)
        w0 = e[::-1]
        pairs = [(e, e), (w0, w0), (e, w0), (w0, e)]
        for _ in range(4):
            v, w = (tuple(rng.sample(range(1, n + 1), n)) for _ in range(2))
            # swapping an ascent of w moves w up in Bruhat order
            p, q = sorted(rng.sample(range(n), 2))
            t = list(w)
            t[p], t[q] = t[q], t[p]
            up, down = (tuple(t), w) if w[p] < w[q] else (w, tuple(t))
            pairs += [(v, w), (e, w), (w, w0), (w, w), (down, up), (up, down)]
        for v, w in pairs:
            assert bruhat_leq(v, w) == bruhat_leq_tableau(v, w), (v, w)
        assert {bruhat_leq(v, w) for v, w in pairs} == {True, False}
        lower = [pairs[-1][0], e]
        assert tuple(bruhat_table(lower, [w0, e])) == tuple(
            bruhat_leq(v, w0) | bruhat_leq(v, e) << 1 for v in lower
        )

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
        table = tuple(bruhat_table(rows, cols))
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
            table = tuple(bruhat_table(rows, cols))
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

    @pytest.mark.parametrize("n", range(1, 10))
    def test_matches_packed_keys_on_random_pairs(self, n):
        """``bruhat_table`` and ``bruhat_leq`` share the packed keys: the
        table reads the counts off the keys' bytes, ``leq`` subtracts whole
        keys.  So this checks the byte reading and the threshold masks;
        the tableau tests above stay the independent reference."""
        rng = random.Random(9100 + n)
        keys = bruhat_keys(n)
        lower, upper = (
            [tuple(rng.sample(range(1, n + 1), n)) for _ in range(size)]
            for size in (30, 25)
        )
        table = tuple(bruhat_table(lower, upper))
        assert len(table) == len(lower)
        for v, mask in zip(lower, table):
            kv = keys.key(v)
            assert mask == sum(
                1 << b for b, w in enumerate(upper) if keys.leq(kv, keys.key(w))
            ), v

    @staticmethod
    def key_fields(n, w):
        """The fields of w's key, each a whole number of bytes, in the
        key's order."""
        keys = bruhat_keys(n)
        size = keys.size
        data = keys.key(w).to_bytes(size * (n - 1) ** 2, "big")
        return [
            int.from_bytes(data[i : i + size], "big")
            for i in range(0, len(data), size)
        ]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_rank_counts_follow_the_definition(self, n):
        # c_w(k, j) = #{a <= k : w(a) <= j}, row k = 1..n-1 in turn, each
        # row's fields from j = n - 1 down to j = 1
        rng = random.Random(9200 + n)
        for _ in range(20):
            w = tuple(rng.sample(range(1, n + 1), n))
            assert self.key_fields(n, w) == [
                sum(1 for a in range(k) if w[a] <= j)
                for k in range(1, n)
                for j in range(n - 1, 0, -1)
            ], w

    def test_rank_counts_at_256_entries(self):
        # two bytes per field, the count in the last; the counts of w0
        # are max(0, k + j - n) and those of the identity min(k, j)
        n = 256
        assert bruhat_keys(n).size == 2
        pairs = [(k, j) for k in range(1, n) for j in range(n - 1, 0, -1)]
        assert self.key_fields(n, identity(n)[::-1]) == [
            max(0, k + j - n) for k, j in pairs
        ]
        assert self.key_fields(n, identity(n)) == [min(k, j) for k, j in pairs]

    def test_empty_inputs(self):
        perms = all_permutations(3)
        assert tuple(bruhat_table([], [])) == ()
        assert tuple(bruhat_table([], perms)) == ()
        assert tuple(bruhat_table(perms[:2], [])) == (0, 0)

    def test_rows_are_computed_as_they_are_read(self, monkeypatch):
        # the upper points' keys are taken at the call, and a lower
        # point's only when its row is read
        perms = all_permutations(4)
        lower, upper = perms[:5], perms[5:]
        expected = [
            [b for b, w in enumerate(upper) if bruhat_leq(v, w)] for v in lower
        ]
        real = permutations.BruhatKeys._pack
        seen = []

        def counted(self, w):
            seen.append(w)
            return real(self, w)

        monkeypatch.setattr(permutations.BruhatKeys, "_pack", counted)
        rows = bruhat_table(lower, upper)
        assert seen == list(reversed(upper))
        for k, (mask, bits) in enumerate(zip(rows, expected), 1):
            assert seen[len(upper) :] == list(lower[:k])
            assert list(set_bits(mask)) == bits
        assert next(rows, None) is None

    def test_refuses_more_than_256_entries(self, monkeypatch):
        # a rank count must fit in one byte; the limit is named before
        # any key is built
        def refuse(n):
            raise AssertionError("bruhat_table started work")

        monkeypatch.setattr(permutations, "bruhat_keys", refuse)
        e = identity(257)
        with pytest.raises(ValueError, match="n <= 256, got n = 257"):
            bruhat_table([e], [e[::-1]])
        with pytest.raises(ValueError, match="n <= 256"):
            bruhat_table([], [e])

    def test_takes_256_entries(self):
        # the identity's counts reach 255, the largest a count can be at
        # this n; a key is big, so the table is kept to one entry
        e = identity(256)
        assert tuple(bruhat_table([e], [e[::-1]])) == (1,)

    def test_rejects_size_mismatch(self):
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_table([(1, 2)], [(1, 2, 3)])
        with pytest.raises(ValueError, match="size mismatch"):
            bruhat_table([(1, 2), (1, 2, 3)], [])

    @pytest.mark.parametrize("bad", TestBruhat.NOT_PERMUTATIONS)
    def test_rejects_non_permutations(self, bad):
        # at the call, before any row is read
        w = tuple(range(1, len(bad) + 1))
        for lower, upper in (([bad], [w]), ([w], [w, bad]), ([], [bad])):
            with pytest.raises(ValueError, match="not a permutation"):
                bruhat_table(lower, upper)


class TestSetBits:
    def test_rejects_negative_masks(self):
        # a negative mask has infinitely many set bits
        with pytest.raises(ValueError, match="nonnegative mask, got -1"):
            next(set_bits(-1))

    def test_ascending_positions(self):
        assert list(set_bits(0)) == []
        for mask in (1, 0b1011, 1 << 200 | 1 << 3, (1 << 70) - 1):
            bits = list(set_bits(mask))
            assert bits == sorted(bits)
            assert sum(1 << b for b in bits) == mask
