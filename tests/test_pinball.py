"""Rolldowns and the pinball success conditions."""

import math
import time
import tracemalloc

import pytest

from hesspin.fillings import (
    hessenberg_334,
    hessenberg_full,
    hessenberg_identity,
    hessenberg_peterson,
)
from hesspin import fillings, hess334, pinball
from hesspin.permutations import (
    all_permutations,
    from_word,
    identity,
    inverse,
    inversions,
)
from hesspin.pinball import (
    betti_numbers,
    degree,
    fixed_points,
    is_fixed_point,
    rolldown,
    rolldown_table,
    rolldown_word,
    rolldown_words,
    verify_pinball,
)

from oracles import (
    all_diagram_h,
    bruhat_leq_oracle,
    brute_dimension_pairs,
    brute_fillings,
    brute_inversions,
)


def _oracle_report(diagram, h):
    """The fields of ``verify_pinball(diagram, h)`` from the oracles alone,
    with the rolldowns from ``rolldown_word``."""
    n = sum(diagram)
    degree, rolls = {}, {}
    for filling in brute_fillings(diagram, h):
        # the reading word reads each column bottom to top; w is its inverse
        word = [
            row[c]
            for c in range(diagram[0])
            for row in reversed(filling)
            if c < len(row)
        ]
        w = tuple(word.index(v) + 1 for v in range(1, n + 1))
        degree[w] = len(brute_dimension_pairs(filling, h))
        rolls[w] = from_word(n, rolldown_word(w, diagram, h))
    owners = {}
    for w in sorted(rolls):
        owners.setdefault(rolls[w], []).append(w)
    collisions = tuple(
        sorted((r, tuple(ws)) for r, ws in owners.items() if len(ws) > 1)
    )
    failures = tuple(
        (w, r) for w, r in sorted(rolls.items()) if not bruhat_leq_oracle(r, w)
    )
    degrees = list(degree.values())
    lengths = [brute_inversions(r) for r in rolls.values()]
    by_degree = [degrees.count(k) for k in range(n * (n - 1) // 2 + 1)]
    mismatches = tuple(
        (k, b, lengths.count(k))
        for k, b in enumerate(by_degree)
        if b != lengths.count(k)
    )
    while by_degree and not by_degree[-1]:
        by_degree.pop()
    return {
        "diagram": diagram,
        "h": h,
        "betti": tuple(by_degree),
        "points": len(rolls),
        "injective": not collisions,
        "collisions": collisions,
        "below_fixed_point": not failures,
        "bruhat_failures": failures,
        "betti_matched": not mismatches,
        "betti_mismatches": mismatches,
    }


class TestRolldown:
    def test_worked_example(self):
        h = (3, 3, 4, 5, 5)
        assert rolldown_word((4, 3, 2, 1, 5), (5,), h) == (3, 1, 2, 1)
        assert rolldown((4, 3, 2, 1, 5), (5,), h) == (4, 2, 1, 3, 5)
        assert degree((4, 3, 2, 1, 5), (5,), h) == 4

    def test_identity_rolls_to_identity(self):
        for n in (4, 5, 6):
            h = hessenberg_334(n)
            assert rolldown(identity(n), (n,), h) == identity(n)
            assert degree(identity(n), (n,), h) == 0

    def test_degree_is_rolldown_length(self):
        for n in (4, 5):
            h = hessenberg_334(n)
            for w in fixed_points((n,), h):
                assert degree(w, (n,), h) == inversions(rolldown(w, (n,), h))

    def test_full_flag_rolls_to_itself(self):
        h = hessenberg_full(4)
        for w in all_permutations(4):
            assert rolldown(w, (4,), h) == w

    def test_non_fixed_point_names_adjacency(self):
        h = hessenberg_334(4)
        for fn in (rolldown, rolldown_word, degree):
            with pytest.raises(ValueError, match=r"adjacency 4\|1"):
                fn((2, 3, 4, 1), (4,), h)
        assert not is_fixed_point((2, 3, 4, 1), (4,), h)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_table_matches_per_point_functions(self, n, enumerations):
        h = hessenberg_334(n)
        words = rolldown_words((n,), h)
        table = rolldown_table((n,), h)
        assert len(enumerations) == 2
        assert list(words) == list(table) == list(fixed_points((n,), h))
        for w, word in words.items():
            assert word == rolldown_word(w, (n,), h)
            assert table[w] == rolldown(w, (n,), h) == from_word(n, word)
            assert len(word) == degree(w, (n,), h)

    def test_tables_build_no_records(self, monkeypatch, enumerations):
        # the table functions read only the word and x of each leaf state
        def refuse(*args):
            raise AssertionError("record, filling or pairs built")

        monkeypatch.setattr(fillings, "PermissibleRecord", refuse)
        monkeypatch.setattr(fillings._PrefixState, "filling", refuse)
        monkeypatch.setattr(fillings._PrefixState, "pairs", refuse)
        for diagram, h in (((5,), hessenberg_334(5)), ((3, 2), (2, 3, 4, 5, 5))):
            assert fixed_points(diagram, h)
            assert rolldown_words(diagram, h)
            assert rolldown_table(diagram, h)
            assert betti_numbers(diagram, h)
            assert verify_pinball(diagram, h).passed
        assert len(enumerations) == 10
        with pytest.raises(AssertionError, match="record, filling or pairs"):
            next(fillings.permissible_records((5,), hessenberg_334(5)))

    def test_table_sorted(self):
        h = hessenberg_334(4)
        table = rolldown_table((4,), h)
        assert list(table) == sorted(table)
        assert len(table) == 12


class TestBetti:
    def test_peterson_betti_binomial(self):
        for n in (4, 5, 6):
            h = hessenberg_peterson(n)
            assert betti_numbers((n,), h) == tuple(
                math.comb(n - 1, k) for k in range(n)
            )

    def test_full_flag_betti_mahonian(self):
        h = hessenberg_full(4)
        betti = betti_numbers((4,), h)
        assert betti == (1, 3, 5, 6, 5, 3, 1)
        assert sum(betti) == 24

    def test_334_total(self):
        for n in (4, 5, 6):
            assert sum(betti_numbers((n,), hessenberg_334(n))) == 3 * 2 ** (n - 2)


class TestVerifyPinball:
    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_334_succeeds(self, n):
        report = verify_pinball((n,), hessenberg_334(n))
        assert report.passed
        assert report.injective
        assert report.below_fixed_point
        assert report.betti_matched
        assert [c.name for c in report.checks()] == [
            "rolldowns-distinct",
            "rolldown-below-fixed-point",
            "betti-match",
        ]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_peterson_succeeds(self, n):
        assert verify_pinball((n,), hessenberg_peterson(n)).passed

    @pytest.mark.parametrize(
        "diagram,n",
        [((2, 1), 3), ((2, 2), 4), ((3, 1), 4)],
    )
    def test_springer_shapes_succeed(self, diagram, n):
        report = verify_pinball(diagram, hessenberg_identity(n))
        assert report.passed
        points = fixed_points(diagram, hessenberg_identity(n))
        assert sum(report.betti) == report.points == len(points)

    def test_full_flag_succeeds(self):
        assert verify_pinball((4,), hessenberg_full(4)).passed

    # A run that checked no point would pass every check, so pin the count.
    @pytest.mark.parametrize("n", range(1, 8))
    def test_full_flag_checks_every_permutation(self, n):
        report = verify_pinball((n,), hessenberg_full(n))
        assert report.passed
        assert report.points == sum(report.betti) == math.factorial(n)

    @pytest.mark.parametrize("n", range(4, 9))
    def test_334_checks_every_point(self, n):
        report = verify_pinball((n,), hessenberg_334(n))
        assert report.passed
        assert report.points == sum(report.betti) == 3 * 2 ** (n - 2)

    @pytest.mark.slow
    def test_memory_per_point(self):
        # Each fixed point leaves one entry of the distinctness dict, not a
        # (w, rolldown) pair and its sort; the whole table took 347 B per
        # point at n = 8, the streamed checks about 117 B.
        n = 8
        tracemalloc.start()
        try:
            report = verify_pinball((n,), hessenberg_full(n))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.passed and report.points == 40320
        assert peak < 150 * report.points, peak

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_every_small_pair_passes(self, n):
        # no (diagram, h) is known to fail; see the pinball module docstring
        for diagram, h in all_diagram_h(n):
            report = verify_pinball(diagram, h)
            assert report.passed, (diagram, h, report.checks())

    @pytest.mark.parametrize("n", [1, 2, 3, 4, pytest.param(5, marks=pytest.mark.slow)])
    def test_report_matches_oracles(self, n):
        # every field rebuilt from brute-force fillings, pairs, Bruhat order
        # and lengths, with each rolldown multiplied out from its word
        for diagram, h in all_diagram_h(n):
            assert verify_pinball(diagram, h)._asdict() == _oracle_report(diagram, h)

    def test_one_enumeration_pass(self, enumerations):
        verify_pinball((2, 2), hessenberg_identity(4))
        assert enumerations == [((2, 2), (1, 2, 3, 4))]

    def test_theorem_enumerates_once(self, enumerations):
        report = hess334.verify_334_theorem(5)
        assert report.passed
        assert len(enumerations) == 1
        assert report.pinball.points == len(report.points) == 24
        assert report.points == fixed_points((5,), hessenberg_334(5))

    def test_rolldowns_match_per_point_functions(self):
        h = (2, 3, 3, 4)
        table = rolldown_table((2, 2), h)
        assert list(table) == list(fixed_points((2, 2), h))
        for w, r in table.items():
            assert r == rolldown(w, (2, 2), h)
        assert verify_pinball((2, 2), h).points == len(table)

    def test_checks_catch_colliding_rolldowns(self, monkeypatch):
        # every omega(x), so every rolldown, the identity: all collide,
        # lengths all 0
        monkeypatch.setattr(pinball, "_omega", lambda x: identity(len(x) + 1))
        report = verify_pinball((4,), hessenberg_334(4))
        assert not report.injective
        points = fixed_points((4,), hessenberg_334(4))
        assert report.collisions == ((identity(4), points),)
        assert report.below_fixed_point
        assert not report.betti_matched
        assert report.betti_mismatches[0] == (0, 1, 12)
        assert not report.passed

    def test_checks_catch_rolldowns_above(self, monkeypatch):
        # For the full flag the rolldown of w is w itself, so omega(x) is
        # w^{-1}.  Its inverse w in place of omega(x) makes the rolldown
        # w^{-1}: still distinct and of the right lengths, but not below w
        # unless w is an involution.
        monkeypatch.setattr(pinball, "_omega", fillings._roll)
        report = verify_pinball((4,), hessenberg_full(4))
        assert report.injective
        assert report.betti_matched
        assert not report.below_fixed_point
        assert report.bruhat_failures == tuple(
            (w, inverse(w)) for w in all_permutations(4) if w != inverse(w)
        )
        assert len(report.bruhat_failures) == 24 - 10

    def test_collisions_past_n_255(self):
        # entries above 255 do not fit a byte: rolldowns are keyed by tuple
        n = 256
        e, w1, w2 = identity(n), from_word(n, (1,)), from_word(n, (255,))
        # (point, rolldown, degree), taken to the reading-word frame
        leaves = [(w1, e, 1), (e, e, 0), (w2, e, 1)]
        leaves = [(inverse(w), inverse(r), d) for w, r, d in leaves]
        report = pinball._report((n,), hessenberg_full(n), leaves)
        assert report.points == 3
        assert report.collisions == ((e, tuple(sorted((e, w1, w2)))),)
        assert report.below_fixed_point

    def test_report_is_exhaustive(self):
        report = verify_pinball((4,), hessenberg_334(4))
        assert report.points == 12
        rolls = list(rolldown_table((4,), hessenberg_334(4)).values())
        assert len(set(rolls)) == len(rolls)
        lengths = sorted(inversions(r) for r in rolls)
        expected = sorted(
            k for k, b in enumerate(report.betti) for _ in range(b)
        )
        assert lengths == expected


class TestFixedPoints:
    def test_identity_prunes_dead_prefixes(self):
        # h = identity on the single row has one fixed point; a pass that
        # cut dead prefixes only at their first bad adjacency took 2^n
        # steps, 11 s at n = 24
        start = time.perf_counter()
        assert fixed_points((24,), hessenberg_identity(24)) == (identity(24),)
        assert time.perf_counter() - start < 0.5

    def test_peterson_points_are_staircase_concatenations(self):
        from hesspin.hess334 import peterson_fixed_point

        for n in (4, 5, 6, 7):
            points = fixed_points((n,), hessenberg_peterson(n))
            assert len(points) == 2 ** (n - 1)
            for w in points:
                subset = {i for i in range(1, n) if w[i - 1] == w[i] + 1}
                assert peterson_fixed_point(subset, n) == w

    def test_peterson_rolldown_is_descending_word(self):
        for n in (4, 5, 6, 7):
            h = hessenberg_peterson(n)
            for w in fixed_points((n,), h):
                subset = {i for i in range(1, n) if w[i - 1] == w[i] + 1}
                word = tuple(sorted(subset, reverse=True))
                assert rolldown(w, (n,), h) == from_word(n, word)
