"""Fixed point classes, catalog words, closed forms, and the basis theorem."""

import itertools
import random
import tracemalloc
import types
from collections import Counter

import pytest

from hesspin import billey, fillings, hess334, pinball
from hesspin.billey import S1_ZERO, S1Value, p_restriction, p_rows
from hesspin.hess334 import (
    FixedPointClass,
    Theorem334Report,
    associated_subset,
    catalog_reduced_word,
    classify,
    closed_form_restriction,
    consecutive_substrings,
    fixed_points_334,
    has_321_string,
    peterson_fixed_point,
    rolldown_closed_form,
    rolldown_closed_form_word,
    simple_summand_census,
    summand_census,
    type_231_fixed_point,
    type_312_fixed_point,
    verify_334_theorem,
)
from hesspin.fillings import hessenberg_334, omega, single_row
from hesspin.permutations import from_word, inverse, inversions, is_reduced_word
from hesspin.pinball import is_fixed_point, rolldown, rolldown_table

from oracles import (
    brute_inversions,
    brute_summand_table,
    bruhat_leq_tableau,
    bruhat_sweeps,
    relation_tables,
)

PET_NO = FixedPointClass.PETERSON_NO_321
PET_321 = FixedPointClass.PETERSON_321
T312 = FixedPointClass.TYPE_312
T231 = FixedPointClass.TYPE_231


def _subsets(n):
    items = range(1, n)
    for k in range(n):
        yield from (frozenset(c) for c in itertools.combinations(items, k))


def _leading_subsets(n):
    return (s for s in _subsets(n) if {1, 2} <= s and min(s, default=0) == 1)


class TestMembership:
    def test_counts(self):
        for n in range(4, 8):
            points = fixed_points_334(n)
            assert len(points) == 3 * 2 ** (n - 2)
            counts = Counter(classify(w) for w in points)
            assert counts[PET_NO] + counts[PET_321] == 2 ** (n - 1)
            assert counts[T312] == 2 ** (n - 3)
            assert counts[T231] == 2 ** (n - 3)

    def test_is_fixed_point(self):
        h = hessenberg_334(4)
        assert is_fixed_point((4, 3, 2, 1), single_row(4), h)
        assert not is_fixed_point((2, 3, 4, 1), single_row(4), h)
        with pytest.raises(ValueError, match="need n >= 4"):
            classify((3, 2, 1))

    def test_classify_rejects_non_fixed_points(self):
        with pytest.raises(ValueError, match="not a 334-type fixed point"):
            classify((2, 3, 4, 1))


class TestConstructorsPartition:
    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_classes_partition_fixed_points(self, n):
        built = {}
        for subset in _subsets(n):
            w = peterson_fixed_point(subset, n)
            built[w] = PET_321 if {1, 2} <= subset else PET_NO
        for subset in _leading_subsets(n):
            built[type_312_fixed_point(subset, n)] = T312
            built[type_231_fixed_point(subset, n)] = T231
        points = fixed_points_334(n)
        assert sorted(built) == list(points)
        for w in points:
            assert classify(w) == built[w], w

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_subsets_round_trip(self, n):
        for subset in _subsets(n):
            assert associated_subset(peterson_fixed_point(subset, n)) == subset
        for subset in _leading_subsets(n):
            assert associated_subset(type_312_fixed_point(subset, n)) == subset
            assert associated_subset(type_231_fixed_point(subset, n)) == subset

    def test_constructors_reject_bad_subsets(self):
        with pytest.raises(ValueError):
            peterson_fixed_point({0}, 4)
        with pytest.raises(ValueError):
            peterson_fixed_point({4}, 4)
        with pytest.raises(ValueError, match="n must be at least 1"):
            peterson_fixed_point(set(), 0)
        with pytest.raises(ValueError, match="must contain"):
            type_312_fixed_point({1, 3}, 5)
        with pytest.raises(ValueError, match="must contain"):
            type_231_fixed_point({2, 3}, 5)

    def test_named_gives_none_without_leading_run(self):
        # classification feeds _named any subset; it must not raise
        for cls in (T312, T231):
            for runs in [(), ((2, 3),), ((1, 1), (3, 3))]:
                assert hess334._named(cls, runs, 5) is None

    def test_321_string_matches_subset(self):
        for n in (4, 5, 6):
            for subset in _subsets(n):
                w = peterson_fixed_point(subset, n)
                assert has_321_string(w) == ({1, 2} <= subset)


class TestAssociatedSubsets:
    def test_worked_examples(self):
        expected = frozenset({1, 2, 3, 4, 6, 7})
        assert associated_subset((5, 4, 3, 2, 1, 8, 7, 6)) == expected
        assert associated_subset((4, 5, 3, 2, 1, 8, 7, 6)) == expected
        assert associated_subset((5, 1, 4, 3, 2, 8, 7, 6)) == expected

    def test_substring_decomposition(self):
        subset = frozenset({1, 2, 3, 4, 6, 7})
        runs = consecutive_substrings(subset)
        assert runs == ((1, 4), (6, 7))
        # each element's run as (smallest, largest); 5 is in none
        run_of = {j: (a, b) for a, b in runs for j in range(a, b + 1)}
        assert run_of[1] == run_of[4] == (1, 4)
        assert run_of[6] == (6, 7)
        assert sorted(run_of) == sorted(subset)


class TestCatalogWords:
    def test_worked_examples(self):
        assert catalog_reduced_word((4, 3, 2, 1, 7, 6, 5)) == (1, 2, 1, 3, 2, 1, 5, 6, 5)
        assert catalog_reduced_word((3, 4, 2, 1, 7, 6, 5)) == (1, 2, 1, 3, 2, 5, 6, 5)
        assert catalog_reduced_word((4, 1, 3, 2, 7, 6, 5)) == (2, 3, 2, 1, 5, 6, 5)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_words_are_reduced_for_their_point(self, n):
        for w in fixed_points_334(n):
            word = catalog_reduced_word(w)
            assert is_reduced_word(n, word)
            assert from_word(n, word) == w
            assert len(word) == inversions(w)


class TestRolldownClosedForms:
    def test_worked_examples_n8(self):
        assert rolldown_closed_form_word((5, 4, 3, 2, 1, 8, 7, 6)) == (7, 6, 4, 3, 1, 2, 1)
        assert rolldown_closed_form_word((4, 5, 3, 2, 1, 8, 7, 6)) == (7, 6, 4, 3, 1, 2)
        assert rolldown_closed_form_word((5, 1, 4, 3, 2, 8, 7, 6)) == (7, 6, 4, 3, 2, 1)

    def test_matches_dimension_pair_rolldown_n8_examples(self):
        h = hessenberg_334(8)
        for w in [
            (5, 4, 3, 2, 1, 8, 7, 6),
            (4, 5, 3, 2, 1, 8, 7, 6),
            (5, 1, 4, 3, 2, 8, 7, 6),
        ]:
            assert rolldown_closed_form(w) == rolldown(w, (8,), h)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_matches_dimension_pair_rolldown(self, n):
        h = hessenberg_334(n)
        for w in fixed_points_334(n):
            assert rolldown_closed_form(w) == rolldown(w, (n,), h)

    def test_one_line_prefixes_n8(self):
        assert rolldown_closed_form((5, 4, 3, 2, 1, 8, 7, 6))[:5] == (5, 2, 1, 3, 4)
        assert rolldown_closed_form((4, 5, 3, 2, 1, 8, 7, 6))[:5] == (2, 5, 1, 3, 4)
        assert rolldown_closed_form((5, 1, 4, 3, 2, 8, 7, 6))[:5] == (5, 1, 2, 3, 4)

    def test_peterson_no_321_is_descending_word(self):
        for n in (4, 5, 6):
            for w in fixed_points_334(n):
                if classify(w) is PET_NO:
                    word = tuple(sorted(associated_subset(w), reverse=True))
                    assert rolldown_closed_form_word(w) == word


class TestClosedFormRestrictions:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_matches_subword_evaluation(self, n):
        # canonical words here, independent of the catalog-word path
        for w in fixed_points_334(n):
            value = p_restriction(rolldown_closed_form(w), w)
            assert value == closed_form_restriction(w), w

    def test_degree_by_class(self):
        for n in (4, 5, 6):
            for w in fixed_points_334(n):
                size = len(associated_subset(w))
                expected = size + 1 if classify(w) is PET_321 else size
                assert closed_form_restriction(w).degree == expected

    def test_identity_restriction(self):
        assert closed_form_restriction((1, 2, 3, 4)) == S1Value(1, 0)

    def test_worked_value(self):
        assert closed_form_restriction((5, 4, 3, 2, 1, 8, 7, 6)) == S1Value(144, 7)


class TestSummandCensuses:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_rolldown_summands(self, n):
        for w in fixed_points_334(n):
            census = summand_census(w)
            assert census.passed, (w, census)
            if classify(w) in (PET_321, T312):
                # the subset holds 1, so its first run is [1, H1]
                first = consecutive_substrings(associated_subset(w))[0]
                assert first[0] == 1, w
                expected = first[1] - 1
            else:
                expected = 1
            assert census.count == expected

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_simple_reflection_summands(self, n):
        for w in fixed_points_334(n):
            for row in simple_summand_census(w):
                assert row.passed, (w, row)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_summands_match_brute_force(self, n):
        # the prefix recurrence against plain position combinations of the
        # catalog word, point by point
        for w in fixed_points_334(n):
            census = summand_census(w)
            roll = rolldown_closed_form(w)
            size = brute_inversions(roll)
            table = brute_summand_table(catalog_reduced_word(w), n, [size])
            assert Counter(census.summands) == table[roll], w
            assert list(census.summands) == sorted(census.summands), w

    def test_worked_example_counts(self):
        assert summand_census((5, 4, 3, 2, 1, 8, 7, 6)).count == 3
        assert summand_census((4, 5, 3, 2, 1, 8, 7, 6)).count == 3
        assert summand_census((5, 1, 4, 3, 2, 8, 7, 6)).count == 1
        census = summand_census((4, 3, 2, 1, 7, 6, 5))
        assert census.count == 2
        assert census.common == S1Value(12, 6)
        assert census.total == S1Value(24, 6)


def assert_checked_every_point(report, n):
    # a theorem that checked no point would pass every other assertion
    assert len(report.points) == report.pinball.points == 3 * 2 ** (n - 2)
    assert report.points == fixed_points_334(n)
    assert sum(report.pinball.betti) == report.pinball.points


class TestTheorem:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_passes(self, n):
        report = verify_334_theorem(n)
        assert isinstance(report, Theorem334Report)
        # the theorem checks its matrix and keeps only the verdicts
        assert "matrix" not in Theorem334Report._fields
        assert report.passed
        assert_checked_every_point(report, n)
        names = [c.name for c in report.checks()]
        for required in (
            "rolldowns-distinct",
            "rolldown-below-fixed-point",
            "betti-match",
            "rolldown-closed-form",
            "diagonal-nonzero",
            "bruhat-vanishing",
            "rolldown-bruhat-equivalence",
            "containment-criterion",
            "forbidden-relations",
            "initial-segment-criterion",
            "summand-census",
        ):
            assert required in names

    @pytest.mark.slow
    def test_passes_n7(self):
        report = verify_334_theorem(7)
        assert report.passed
        assert_checked_every_point(report, 7)

    @pytest.mark.slow
    def test_passes_n8(self):
        report = verify_334_theorem(8)
        assert report.passed
        assert_checked_every_point(report, 8)

    @pytest.mark.slow
    def test_passes_n9(self):
        assert verify_334_theorem(9).passed

    def test_classifies_each_point_once(self, monkeypatch):
        calls = []
        real = hess334._point

        def counted(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(hess334, "_point", counted)
        report = verify_334_theorem(6)
        assert report.passed
        assert sorted(calls) == list(report.points)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_streams_the_leaves_to_the_pinball_checks(self, monkeypatch, enumerations, n):
        # one enumeration pass, through one ``_leaf_states`` call in the
        # pinball checks, whose leaves are read one at a time, never made
        # into a list of all N of them
        calls = []
        real = pinball._leaf_states

        class Leaves:
            def __init__(self, states):
                self.states = states

            def __iter__(self):
                return self

            def __next__(self):
                return next(self.states)

            def __length_hint__(self):  # list(), tuple() and sorted() ask
                raise AssertionError("the leaf states were made into a list")

        def watched(diagram, h):
            calls.append((diagram, h))
            return Leaves(real(diagram, h))

        monkeypatch.setattr(pinball, "_leaf_states", watched)
        report = verify_334_theorem(n)
        assert calls == [(single_row(n), hessenberg_334(n))]
        assert len(enumerations) == 1
        assert report.pinball.points == len(report.points) == 3 * 2 ** (n - 2)
        assert report.passed

    def test_checks_the_rolldowns_the_pinball_checks_read(self, omega_by):
        # omega(x) with x_n dropped to 0, where the pinball leaves read it:
        # the theorem checks those faulty rolldowns, so rolldown-closed-form
        # lists exactly the points with x_n > 0
        n = 5

        def faulty(x):
            return omega(tuple(x[:-1]) + (0,))

        omega_by(faulty)
        report = verify_334_theorem(n)
        states = fillings._leaf_states(single_row(n), hessenberg_334(n))
        rolls = sorted((s.point(), inverse(faulty(s.x()))) for s in states)
        expected = tuple(
            (w, r, rolldown_closed_form(w))
            for w, r in rolls
            if r != rolldown_closed_form(w)
        )
        assert 0 < len(expected) < len(rolls)
        checks = {c.name: c for c in report.checks()}
        assert checks["rolldown-closed-form"].witnesses == expected
        assert not report.passed

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_shares_one_ideal(self, monkeypatch, n):
        # the rolldowns' weak-order ideal is numbered once, for the matrix
        # and the census, and the census it feeds matches plain position
        # combinations of each catalog word at every point
        tops, census = [], []
        real_init, real_counts = billey._Ideal.__init__, hess334._summand_counts

        def numbered(ideal, rows):
            rows = list(rows)
            tops.append(rows)
            real_init(ideal, rows)

        def recorded(ideal, v, column):
            counts = real_counts(ideal, v, column)
            census.append((v, tuple(i for _, i, _, _ in reversed(column)), counts))
            return counts

        monkeypatch.setattr(billey._Ideal, "__init__", numbered)
        monkeypatch.setattr(hess334, "_summand_counts", recorded)
        report = verify_334_theorem(n)
        assert report.passed
        table = rolldown_table(single_row(n), hessenberg_334(n))
        assert tops == [[table[w] for w in report.points]]
        assert len(census) == len(report.points)
        for w, (roll, word, counts) in zip(report.points, census):
            assert roll == table[w] and word == catalog_reduced_word(w), w
            assert counts == brute_summand_table(word, n, [brute_inversions(roll)])[roll], w

    def test_checks_each_catalog_word_once(self, monkeypatch):
        # _point checks each catalog word; the one pass over the points
        # builds each point's column when it reaches it, for the matrix and
        # both censuses, and keeps none
        calls = []
        real = billey._column

        def counted(w, word, unit):
            calls.append(w)
            assert word == catalog_reduced_word(w)
            return real(w, word, unit)

        monkeypatch.setattr(billey, "_column", counted)
        report = verify_334_theorem(6)
        assert report.passed
        assert len(report.points) == 48
        assert len(calls) == 48
        assert calls == list(report.points)

    @pytest.mark.parametrize("n", [5, 6])
    def test_vanishing_witnesses_follow_the_relation(self, monkeypatch, n):
        # the theorem passes, so bruhat-vanishing's witness path is reached
        # only by corrupting the relation the triangularity pass reads: the
        # packed keys' leq says False on a random ~30% of the pairs of points
        # and on every third diagonal pair.  The witnesses must be the
        # nonzero entries of the matrix outside the corrupted relation,
        # diagonal ones included, in row-major order
        rng = random.Random(8200 + n)
        points = fixed_points_334(n)
        size = len(points)
        cleared = {
            (a, b)
            for a in range(size)
            for b in range(size)
            if rng.random() < 0.3 or (a == b and a % 3 == 0)
        }
        keys = billey.bruhat_keys(n)
        index = {keys.key(w): a for a, w in enumerate(points)}

        def leq(kv, kw):
            return (index[kv], index[kw]) not in cleared and keys.leq(kv, kw)

        corrupted = types.SimpleNamespace(_pack=keys._pack, leq=leq)
        monkeypatch.setattr(billey, "bruhat_keys", lambda m: corrupted)
        report = verify_334_theorem(n)
        assert report.points == points
        table = rolldown_table(single_row(n), hessenberg_334(n))
        # restriction values do not depend on the reduced word
        expected = [
            (points[a], points[b], value)
            for a, row in enumerate(p_rows([table[w] for w in points], points))
            for b, value in enumerate(row)
            if value != S1_ZERO
            and ((a, b) in cleared or not bruhat_leq_tableau(points[a], points[b]))
        ]
        assert any(v == w for v, w, _ in expected)
        assert any(v != w for v, w, _ in expected)
        checks = {c.name: c for c in report.checks()}
        assert checks["bruhat-vanishing"].witnesses == tuple(expected)
        assert checks["diagonal-nonzero"].passed
        assert checks["closed-form-diagonal"].passed

    def test_reads_each_relation_row_once(self, monkeypatch):
        # both relation tables are read as streams: every row is drawn, and
        # none is drawn twice or from a second table over the same points
        real = hess334.bruhat_table
        sizes, drawn = [], []

        def counting(lower, upper):
            call = len(sizes)
            sizes.append(len(lower))
            for k, row in enumerate(real(lower, upper)):
                drawn.append((call, k))
                yield row

        monkeypatch.setattr(hess334, "bruhat_table", counting)
        report = verify_334_theorem(6)
        assert report.passed
        size = len(report.points)
        assert sizes == [2 * size + 5, 5]
        assert sorted(drawn) == [(c, k) for c, rows in enumerate(sizes) for k in range(rows)]

    def test_dropped_diagonal_entry_is_witnessed(self, monkeypatch):
        # the matrix recurrence loses the diagonal entry of one column
        n, k = 5, 7
        real = billey._column_entries

        def dropping(ideal, rolls):
            entries, seen = real(ideal, rolls), []

            def dropped(column):
                b = len(seen)
                seen.append(b)
                return [(a, c) for a, c in entries(column) if not a == b == k]

            return dropped

        monkeypatch.setattr(billey, "_column_entries", dropping)
        report = verify_334_theorem(n)
        w = report.points[k]
        failed = {c.name: c.witnesses for c in report.checks() if not c.passed}
        assert failed == {
            "diagonal-nonzero": (w,),
            "closed-form-diagonal": ((w, S1_ZERO, closed_form_restriction(w)),),
        }

    def test_builds_no_matrix(self, monkeypatch):
        # the theorem reads each column's entries as they are computed and
        # neither collects the matrix's rows nor checks a table
        def refuse(*args, **kwargs):
            raise AssertionError("the theorem built or checked a matrix")

        for name in ["p_rows", "check_upper_triangular"]:
            monkeypatch.setattr(billey, name, refuse)
            monkeypatch.setattr(hess334, name, refuse, raising=False)
        assert verify_334_theorem(6).passed

    @pytest.mark.slow
    def test_holds_no_matrix_in_memory(self):
        # at n = 10 the matrix has 43,739 nonzero entries; holding them as
        # row masks and coefficients took the traced peak to 3.4 MB, and the
        # one pass stays near 1.7 MiB
        tracemalloc.start()
        try:
            report = verify_334_theorem(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 2.2 * 2**20, peak

    @pytest.mark.slow
    def test_holds_no_rolldown_rows_in_memory(self):
        # at n = 12 (3,072 points) the pass stays near 7.6 MiB; holding the
        # points' or the rolldowns' rows of the Bruhat relation (1.2 MB each;
        # the points' rows took the peak to 8.85 MiB) or one list of 121 rank
        # counts per point in bruhat_table takes it past the bound
        tracemalloc.start()
        try:
            report = verify_334_theorem(12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed
        assert peak < 8.0 * 2**20, peak

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 4"):
            verify_334_theorem(3)


def _masks(table):
    return [sum(1 << b for b, x in enumerate(row) if x) for row in table]


class TestBruhatSweeps:
    """The theorem's mask sweeps against the pairwise loops of the oracle.

    The theorem passes for every n, so equal reports would never reach the
    witness paths; corrupted inputs do.  Both sides read the same inputs:
    the oracle dense tables from the tableau criterion, the sweeps the same
    tables as masks.
    """

    @staticmethod
    def inputs(n):
        table = rolldown_table(single_row(n), hessenberg_334(n))
        points = tuple(sorted(table))
        rolls = [table[w] for w in points]
        classes = [classify(w) for w in points]
        subsets = [associated_subset(w) for w in points]
        return points, classes, subsets, relation_tables(points, rolls)

    @staticmethod
    def assert_agree(points, classes, subsets, dense):
        expected = bruhat_sweeps(points, classes, subsets, *dense)
        # the sweeps read only each record's point, class, subset and runs
        facts = [
            hess334._Point(w, cls, s, consecutive_substrings(s), (), ())
            for w, cls, s in zip(points, classes, subsets)
        ]
        below, roll_below, simple_below, simple_below_roll = map(_masks, dense)
        got = hess334._bruhat_sweeps(
            facts, zip(below, roll_below), simple_below, simple_below_roll
        )
        assert got == expected
        # the rolldowns' rows are read once, in order, so one-shot iterators
        # give the same witnesses, and every row is read
        rows, simple_rows = iter(roll_below), iter(simple_below_roll)
        pairs = zip(below, rows)
        assert hess334._bruhat_sweeps(facts, pairs, simple_below, simple_rows) == got
        assert next(rows, None) is next(simple_rows, None) is None
        return sum(len(witnesses) for _, witnesses in expected)

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_true_inputs_have_no_witnesses(self, n):
        assert self.assert_agree(*self.inputs(n)) == 0

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_flipped_bruhat_bit(self, n):
        points, classes, subsets, dense = self.inputs(n)
        rng = random.Random(7500 + n)
        for _ in range(30):
            tables = [[list(row) for row in t] for t in dense]
            table = rng.choice(tables)
            row = rng.choice(table)
            k = rng.randrange(len(row))
            row[k] = not row[k]
            assert self.assert_agree(points, classes, subsets, tables) > 0

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_swapped_subsets(self, n):
        points, classes, subsets, dense = self.inputs(n)
        rng = random.Random(7600 + n)
        size, seen = len(points), 0
        for _ in range(30):
            a, b = rng.sample(range(size), 2)
            swapped = list(subsets)
            swapped[a], swapped[b] = subsets[b], subsets[a]
            # H1 must stay defined where the class reads it
            if any(
                classes[k] is not PET_NO and 1 not in swapped[k] for k in (a, b)
            ) or swapped == subsets:
                continue
            assert self.assert_agree(points, classes, swapped, dense) > 0
            seen += 1
        assert seen >= 10

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_relabelled_class(self, n):
        points, classes, subsets, dense = self.inputs(n)
        rng = random.Random(7700 + n)
        witnessed = 0
        for a in rng.sample(range(len(points)), 12):
            for cls in FixedPointClass:
                if cls is classes[a] or (cls is not PET_NO and 1 not in subsets[a]):
                    continue
                relabelled = list(classes)
                relabelled[a] = cls
                witnessed += self.assert_agree(points, relabelled, subsets, dense) > 0
        assert witnessed > 0
