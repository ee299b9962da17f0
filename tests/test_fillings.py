"""Fillings, permissibility, dimension pairs, and the omega map."""

import functools
import itertools
import math
import random
import tracemalloc
from array import array

import pytest

from hesspin import fillings, hess334, pinball
from hesspin.fillings import (
    column_lengths,
    diagram_size,
    dimension_pairs,
    enumerate_permissible,
    filling_from_word,
    filling_of_fixed_point,
    hessenberg_334,
    hessenberg_full,
    hessenberg_identity,
    hessenberg_peterson,
    is_permissible,
    omega,
    omega_inverse,
    omega_word,
    permissibility_error,
    permissibility_violation,
    reading_order,
    reading_word,
    top_parts,
    validate_diagram,
    validate_hessenberg,
)
from hesspin.permutations import from_word, inversions

from oracles import (
    all_diagram_h,
    all_diagrams,
    all_hessenberg,
    all_permutations,
    brute_dimension_pairs,
    omega_of_word,
    brute_fillings,
    brute_records,
    inversion_tops,
)


class TestHessenbergFunctions:
    def test_families(self):
        assert hessenberg_334(4) == (3, 3, 4, 4)
        assert hessenberg_334(5) == (3, 3, 4, 5, 5)
        assert hessenberg_peterson(5) == (2, 3, 4, 5, 5)
        assert hessenberg_peterson(1) == (1,)
        assert hessenberg_identity(4) == (1, 2, 3, 4)
        assert hessenberg_full(4) == (4, 4, 4, 4)

    def test_334_needs_four(self):
        with pytest.raises(ValueError):
            hessenberg_334(3)

    def test_validate_names_failing_index(self):
        with pytest.raises(ValueError, match=r"h\(2\) = 1 violates h\(i\) >= i"):
            validate_hessenberg((1, 1, 3))
        with pytest.raises(ValueError, match=r"h\(3\) = 4 exceeds n = 3"):
            validate_hessenberg((1, 2, 4))
        with pytest.raises(ValueError, match=r"h\(2\) = 2 violates weak increase"):
            validate_hessenberg((3, 2, 3))
        assert validate_hessenberg([2, 3, 3]) == (2, 3, 3)


class TestDiagrams:
    def test_validate(self):
        assert validate_diagram([3, 2]) == (3, 2)
        with pytest.raises(ValueError):
            validate_diagram((2, 3))
        with pytest.raises(ValueError):
            validate_diagram(())

    def test_columns_and_size(self):
        assert column_lengths((3, 2, 1)) == (3, 2, 1)
        assert column_lengths((4, 1)) == (2, 1, 1, 1)
        assert diagram_size((3, 2, 1)) == 6

    def test_reading_order_single_row(self):
        assert reading_order((3,)) == ((1, 1), (1, 2), (1, 3))

    def test_column_lengths_rejects_shapes_that_are_not_diagrams(self):
        with pytest.raises(ValueError, match="row lengths must weakly decrease: row 2 = 2"):
            column_lengths((1, 2))
        with pytest.raises(ValueError, match="at least one row"):
            column_lengths(())

    def test_reading_order_rejects_shapes_that_are_not_diagrams(self):
        with pytest.raises(ValueError, match="row lengths must weakly decrease: row 2 = 2"):
            reading_order((1, 2))
        with pytest.raises(ValueError, match="row 2 has invalid length 0"):
            reading_order((2, 0))


class TestReadingWords:
    def test_reading_word_example(self):
        filling = ((1, 2, 3), (4, 5), (6,))
        assert reading_word(filling) == (6, 4, 1, 5, 2, 3)

    def test_round_trip(self):
        for diagram in ((3, 2, 1), (2, 2), (4,), (1, 1, 1)):
            n = diagram_size(diagram)
            for word in itertools.permutations(range(1, n + 1)):
                f = filling_from_word(word, diagram)
                assert reading_word(f) == word

    def test_reading_word_rejects_shapes_that_are_not_diagrams(self):
        with pytest.raises(ValueError, match="row lengths must weakly decrease: row 2 = 3"):
            reading_word(((1, 2), (3, 4, 5)))
        with pytest.raises(ValueError, match="row 2 has invalid length 0"):
            reading_word(((1, 2), ()))
        with pytest.raises(ValueError, match="at least one row"):
            reading_word(())

    def test_fixed_point_filling_inverts(self):
        w = (2, 4, 3, 1, 5)
        assert filling_of_fixed_point(w, (5,)) == ((4, 1, 3, 2, 5),)

    def test_reading_order_built_once_per_shape(self, monkeypatch):
        calls = []
        real = fillings.column_lengths

        def counted(diagram):
            calls.append(diagram)
            return real(diagram)

        monkeypatch.setattr(fillings, "column_lengths", counted)
        reading_order.cache_clear()
        try:
            for word in itertools.permutations(range(1, 7)):
                f = filling_from_word(word, (3, 2, 1))
                assert reading_word(f) == word
                assert reading_word(((1, 2), (3,))) == (3, 1, 2)
        finally:
            reading_order.cache_clear()
        assert calls == [(3, 2, 1), (2, 1)]


class TestPermissibility:
    def test_worked_examples(self):
        h = (3, 3, 4, 5, 5)
        assert is_permissible(((2, 4, 3, 1, 5),), h)
        assert not is_permissible(((2, 3, 4, 1, 5),), h)
        violation = permissibility_violation(((2, 3, 4, 1, 5),), h)
        assert violation == (1, 3, 4, 1)
        assert "adjacency 4|1" in permissibility_error(((2, 3, 4, 1, 5),), h)

    @pytest.mark.parametrize(
        "filling, h, message",
        [
            # 0 would read h(0) = h[-1], past the front of h
            (((3, 0),), (1, 2, 3), r"not a permutation of 1\.\.2: \(3, 0\)"),
            # 5 would read h(5), past the end of h
            (((1, 5),), (2, 2), r"not a permutation of 1\.\.2: \(1, 5\)"),
            (((1, 2),), (0, 0), r"h\(1\) = 0 violates h\(i\) >= i"),
            (((2, 1),), (3, 3, 3), "h has length 3, filling has 2 boxes"),
            (((1,), (2, 3)), (3, 3, 3), "row lengths must weakly decrease"),
        ],
    )
    def test_bad_arguments_are_refused(self, filling, h, message):
        for fn in (is_permissible, permissibility_violation, permissibility_error):
            with pytest.raises(ValueError, match=message):
                fn(filling, h)

    def test_checked_callers_skip_the_argument_checks(self, monkeypatch):
        # dimension_pairs checks its arguments once; the per-point functions
        # of pinball and hess334 check theirs before reading permissibility
        calls = []
        real = fillings._checked

        def counted(filling, h):
            calls.append(filling)
            return real(filling, h)

        monkeypatch.setattr(fillings, "_checked", counted)
        h = hessenberg_334(5)
        assert dimension_pairs(((2, 4, 3, 1, 5),), h)
        assert calls == [((2, 4, 3, 1, 5),)]
        calls.clear()
        assert pinball.is_fixed_point((4, 1, 3, 2, 5), (5,), h)
        assert not pinball.is_fixed_point((2, 3, 4, 1, 5), (5,), h)
        assert hess334.classify((4, 1, 3, 2, 5))
        with pytest.raises(ValueError, match=r"adjacency 4\|1"):
            hess334.classify((4, 1, 2, 3, 5))
        assert hess334.verify_334_theorem(5).passed
        assert calls == []

    def test_per_point_functions_check_once(self, monkeypatch):
        # rolldown, rolldown_word and degree check their arguments once, in
        # pinball, and then read the pairs without checking them again
        calls = []
        real = fillings._checked

        def counted(filling, h):
            calls.append(filling)
            return real(filling, h)

        monkeypatch.setattr(fillings, "_checked", counted)
        w, h = (4, 3, 2, 1, 5), hessenberg_334(5)
        assert pinball.rolldown(w, (5,), h) == (4, 2, 1, 3, 5)
        assert pinball.rolldown_word(w, (5,), h) == (3, 1, 2, 1)
        assert pinball.degree(w, (5,), h) == 4
        for fn in (pinball.rolldown, pinball.rolldown_word, pinball.degree):
            with pytest.raises(ValueError, match=r"not permissible: adjacency 4\|1"):
                fn((2, 3, 4, 1, 5), (5,), h)
        assert calls == []

    @pytest.mark.parametrize(
        "diagram,h",
        [
            ((4,), (3, 3, 4, 4)),
            ((5,), (3, 3, 4, 5, 5)),
            ((5,), (2, 3, 4, 5, 5)),
            ((2, 2), (1, 2, 3, 4)),
            ((2, 1), (2, 3, 3)),
            ((3, 2, 1), (2, 3, 4, 5, 6, 6)),
            ((3, 1), (1, 2, 3, 4)),
        ],
    )
    def test_enumeration_matches_brute_filter(self, diagram, h):
        got = enumerate_permissible(diagram, h)
        assert sorted(got) == sorted(brute_fillings(diagram, h))
        words = [reading_word(f) for f in got]
        assert words == sorted(words)

    def test_fixed_point_counts(self):
        for n in range(4, 8):
            assert len(enumerate_permissible((n,), hessenberg_334(n))) == 3 * 2 ** (n - 2)
        for n in range(2, 8):
            assert (
                len(enumerate_permissible((n,), hessenberg_peterson(n)))
                == 2 ** (n - 1)
            )
        assert len(enumerate_permissible((4,), hessenberg_full(4))) == 24

    def test_larger_h_admits_more(self):
        h_small, h_big = (2, 3, 4, 4), (3, 3, 4, 4)
        small = set(enumerate_permissible((4,), h_small))
        big = set(enumerate_permissible((4,), h_big))
        assert small < big


class TestDimensionPairs:
    def test_worked_examples(self):
        h = (3, 3, 4, 5, 5)
        assert dimension_pairs(((2, 4, 3, 1, 5),), h) == {(1, 2), (1, 3), (1, 4)}
        assert dimension_pairs(((4, 3, 2, 1, 5),), h) == {
            (1, 2),
            (1, 3),
            (2, 3),
            (1, 4),
        }
        assert top_parts(dimension_pairs(((2, 4, 3, 1, 5),), h), 5) == (1, 1, 1, 0)
        assert top_parts(dimension_pairs(((4, 3, 2, 1, 5),), h), 5) == (1, 2, 1, 0)

    @pytest.mark.parametrize(
        "diagram,h",
        [
            ((4,), (3, 3, 4, 4)),
            ((5,), (3, 3, 4, 5, 5)),
            ((2, 2), (1, 2, 3, 4)),
            ((3, 2, 1), (2, 3, 4, 5, 6, 6)),
            ((4,), (4, 4, 4, 4)),
        ],
    )
    def test_matches_brute_oracle(self, diagram, h):
        n = diagram_size(diagram)
        for f in enumerate_permissible(diagram, h):
            assert set(dimension_pairs(f, h)) == brute_dimension_pairs(f, h)

    def test_top_parts_bound(self):
        h = hessenberg_334(5)
        for f in enumerate_permissible((5,), h):
            x = top_parts(dimension_pairs(f, h), 5)
            assert all(0 <= x[k] <= k + 1 for k in range(len(x)))


class TestPermissibleRecords:
    """The filling, reading word, sorted dimension pairs and x of every
    leaf state of the enumeration pass (``fillings._leaf_states``) against
    the definitions, on every (diagram, h) with n <= 6 (1,836 pairs) and on
    a few with n = 7.  The oracles share no code with the prefix state."""

    @staticmethod
    def _assert_fields_match(diagram, h, brute, word_of, tops_of):
        words = []
        values = range(1, diagram_size(diagram) + 1)
        for state in fillings._leaf_states(diagram, h):
            word = tuple(state.word)
            filling = state.filling(word)
            pairs = brute[filling]
            assert word == word_of(filling)
            assert state.point() == tuple(word.index(v) + 1 for v in values)
            assert state.pairs() == tuple(sorted(pairs)), (diagram, h, word)
            assert state.x() == tops_of(frozenset(pairs))
            words.append(word)
        # distinct words give distinct fillings, each one of the oracle's
        assert words == sorted(set(words))
        assert len(words) == len(brute)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_count_field_is_the_number_of_pairs(self, n):
        count = fillings._packing(n).count
        for diagram, h in all_diagram_h(n):
            for state in fillings._leaf_states(diagram, h):
                assert state.tops[-1] & count == len(state.pairs()), (diagram, h)
                assert state.degree() == sum(state.x())

    @pytest.mark.parametrize("n, width", [(255, 8), (256, 8), (257, 16)])
    def test_count_field_where_the_width_changes(self, n, width):
        # w0's filling under the full flag has every pair (a, b): the count
        # n(n - 1)/2 overflows one field but not the two of the count field
        assert fillings._packing(n).width == width
        w0 = tuple(range(n, 0, -1))
        state = pinball._state(w0, (n,), hessenberg_full(n))
        assert state.degree() == n * (n - 1) // 2 == len(state.pairs())
        assert state.x() == tuple(range(1, n))
        assert pinball.degree(w0, (n,), hessenberg_full(n)) == n * (n - 1) // 2

    @pytest.mark.parametrize(
        "n", [1, 2, 3, 4, 5, pytest.param(6, marks=pytest.mark.slow)]
    )
    def test_every_field_matches_oracles(self, n):
        # a filling recurs under many h, and a pair set under many fillings
        word_of = functools.cache(reading_word)
        tops_of = functools.cache(lambda pairs: top_parts(pairs, n))
        hs = all_hessenberg(n)
        for diagram in all_diagrams(n):
            oracle = brute_records(diagram)
            for h in hs:
                self._assert_fields_match(diagram, h, oracle(h), word_of, tops_of)

    # the tail the pass finishes from its table (fillings._tail_length):
    # three boxes after a head, (7,); three and no head, (1,) * 7; two,
    # (4, 3) and (3, 2, 2); one, its head far back, (3, 3, 1)
    @pytest.mark.parametrize("diagram", [(7,), (4, 3), (3, 2, 2), (1,) * 7, (3, 3, 1)])
    def test_fields_match_oracles_at_7(self, diagram):
        word_of = functools.cache(reading_word)
        tops_of = functools.cache(lambda pairs: top_parts(pairs, 7))
        oracle = brute_records(diagram)
        for h in (hessenberg_full(7), hessenberg_334(7), hessenberg_peterson(7)):
            self._assert_fields_match(diagram, h, oracle(h), word_of, tops_of)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_list_and_pair_functions_agree(self, n):
        for diagram, h in all_diagram_h(n):
            leaves = [
                (s.filling(tuple(s.word)), s.pairs())
                for s in fillings._leaf_states(diagram, h)
            ]
            assert enumerate_permissible(diagram, h) == [f for f, _ in leaves]
            for filling, pairs in leaves:
                assert dimension_pairs(filling, h) == set(pairs)

    @pytest.mark.parametrize(
        "diagram, length",
        [
            ((6,), 3), ((5, 2), 3), ((1,) * 6, 3), ((2, 1), 3), ((2,), 2), ((1,), 1),
            ((4, 3), 2), ((3, 2, 2), 2), ((2, 2), 1), ((3, 3, 1), 1),
        ],
    )
    def test_tail_length(self, diagram, length):
        assert fillings._tail_length(diagram) == length

    @pytest.mark.slow
    def test_tail_table_memory(self):
        # The tail table holds at most C(9, 3) * 3! = 504 orders, keyed by
        # the values left alone; the pass traces about 0.26 MB.  A table
        # keyed by the head's value as well, with the head settled in each
        # entry, traces over 0.8 MB.
        tracemalloc.start()
        try:
            leaves = sum(1 for _ in fillings._leaf_states((9,), hessenberg_full(9)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert leaves == math.factorial(9)
        assert peak < 400_000, peak

    def test_arguments_checked_before_iteration(self):
        with pytest.raises(ValueError, match="h has length 3, diagram has 4 boxes"):
            fillings._leaf_states((2, 2), (2, 3, 3))
        with pytest.raises(ValueError, match="weakly decrease"):
            fillings._leaf_states((1, 2), (2, 3, 3))
        with pytest.raises(ValueError, match="weakly decrease"):
            enumerate_permissible((1, 2), (2, 3, 3))

    def test_dimension_pairs_rejects_bad_input(self):
        with pytest.raises(ValueError, match="h has length 4, filling has 5 boxes"):
            dimension_pairs(((2, 4, 3, 1, 5),), (3, 3, 4, 4))
        with pytest.raises(ValueError, match="not a permutation"):
            dimension_pairs(((2, 2, 3),), (3, 3, 3))
        with pytest.raises(ValueError, match=r"h\(2\) = 1 violates h\(i\) >= i"):
            dimension_pairs(((1, 2, 3),), (1, 1, 3))
        # 3|1 breaks 3 <= h(1) = 1
        message = r"filling \(\(3, 1, 2\),\) is not permissible: adjacency 3\|1"
        with pytest.raises(ValueError, match=message):
            dimension_pairs(((3, 1, 2),), (1, 2, 3))


class TestOmega:
    @staticmethod
    def _vectors(n):
        return itertools.product(*(range(l) for l in range(2, n + 1)))

    @staticmethod
    def _assert_halves_multiply(n, vectors, record=bytes):
        """omega(x) from the two tables of ``fillings._halves``, for x
        packed with its count field, against the ``record`` encoding of
        the omega word's product: one byte an entry below n = 256."""
        packing = fillings._packing(n)
        m, low, high, omegas, gathers = fillings._halves(n)
        checked = 0
        for x in vectors:
            t = sum(xl << packing.width * l for l, xl in enumerate(x, 2)) + sum(x)
            assert gathers[t & high](omegas[t & low]) == record(omega_of_word(x)), x
            checked += 1
        assert checked
        # each table holds at most the distinct halves
        assert len(omegas) <= math.factorial(m)
        assert len(gathers) <= math.factorial(n) // math.factorial(m)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_halves_multiply_to_omega(self, n):
        # every x in the box; at n = 1 both halves are empty, at n = 2 the
        # low one is
        self._assert_halves_multiply(n, self._vectors(n))

    @pytest.mark.parametrize("n", range(8, 13))
    def test_halves_multiply_to_omega_at_random(self, n):
        rng = random.Random(n)
        vectors = [
            tuple(rng.randrange(l) for l in range(2, n + 1)) for _ in range(500)
        ]
        self._assert_halves_multiply(n, vectors)

    def test_halves_give_wide_records_past_n_255(self):
        # 256 does not fit a byte: omega(x) comes out as 16-bit entries
        n = 256
        rng = random.Random(n)
        vectors = [
            tuple(rng.randrange(l) for l in range(2, n + 1)) for _ in range(3)
        ]
        self._assert_halves_multiply(
            n, vectors, record=lambda w: array("H", w).tobytes()
        )

    def test_word_and_examples(self):
        assert omega_word((1, 1, 1, 0)) == (1, 2, 3)
        assert omega_word((1, 2, 1, 0)) == (1, 2, 1, 3)
        assert omega((1, 2, 1, 0)) == (3, 2, 4, 1, 5)

    def test_rejects_entries_that_are_not_integers(self):
        with pytest.raises(ValueError, match=r"x_2 = 0\.5 is not an integer in 0\.\.1"):
            omega((0.5,))
        with pytest.raises(ValueError, match=r"x_2 = 0\.0 is not an integer in 0\.\.1"):
            omega_word((0.0,))
        with pytest.raises(ValueError, match=r"x_3 = 3 is not an integer in 0\.\.2"):
            omega((1, 3))

    def test_bijective_up_to_n5(self):
        for n in range(2, 6):
            image = {omega(x) for x in self._vectors(n)}
            assert len(image) == len(list(self._vectors(n)))
            assert image == set(all_permutations(n))

    def test_length_is_sum(self):
        for n in range(2, 6):
            for x in self._vectors(n):
                assert inversions(omega(x)) == sum(x)

    @pytest.mark.parametrize(
        "diagram, h",
        [((n,), hessenberg_full(n)) for n in range(1, 8)]
        + [((6,), hessenberg_334(6)), ((3, 2), (3, 3, 4, 5, 5))],
    )
    def test_rolldowns_are_reversed_word_products(self, diagram, h):
        # the full flag's leaves carry every x, each once
        n = diagram_size(diagram)
        table = pinball.rolldown_table(diagram, h)
        for state in fillings._leaf_states(diagram, h):
            w, x = state.point(), state.x()
            roll = from_word(n, tuple(reversed(omega_word(x))))
            assert table[w] == roll
            if n <= 5:
                assert pinball.rolldown(w, diagram, h) == roll

    def test_inversion_tops_characterize(self):
        for n in range(2, 6):
            for x in self._vectors(n):
                assert inversion_tops(omega(x)) == x

    def test_round_trip(self):
        for n in range(2, 6):
            for x in self._vectors(n):
                assert omega_inverse(omega(x)) == x
        for w in all_permutations(4):
            assert omega(omega_inverse(w)) == w
