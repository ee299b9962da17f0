"""Rolldowns and the pinball success conditions."""

import math
import random
import time
import tracemalloc
from array import array

import pytest

from hesspin.fillings import (
    hessenberg_334,
    hessenberg_full,
    hessenberg_identity,
    hessenberg_peterson,
    omega,
)
from hesspin import fillings, hess334, permutations, pinball
from hesspin.permutations import (
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
    all_diagrams,
    all_hessenberg,
    all_permutations,
    bruhat_leq_oracle,
    brute_dimension_pairs,
    brute_fillings,
    brute_inversions,
    regular_poincare,
    springer_poincare,
)


def _brute_points(diagram, h):
    """(fixed point, dimension pairs) of every brute-force filling."""
    n = sum(diagram)
    for filling in brute_fillings(diagram, h):
        # the reading word reads each column bottom to top; w is its inverse
        word = [
            row[c]
            for c in range(diagram[0])
            for row in reversed(filling)
            if c < len(row)
        ]
        w = tuple(word.index(v) + 1 for v in range(1, n + 1))
        yield w, brute_dimension_pairs(filling, h)


def _oracle_report(diagram, h):
    """The fields of ``verify_pinball(diagram, h)`` from the oracles alone,
    with the rolldowns from ``rolldown_word``."""
    n = sum(diagram)
    degree, rolls = {}, {}
    for w, pairs in _brute_points(diagram, h):
        degree[w] = len(pairs)
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

    @pytest.mark.parametrize(
        "h, message",
        [
            ((3, 3), r"h\(1\) = 3 exceeds n = 2"),
            ((2, 2), "h has length 2, diagram has 3 boxes"),
            ((3, 3, 3, 3), r"h\(4\) = 3 violates h\(i\) >= i"),
            ((1, 1, 3), r"h\(2\) = 1 violates h\(i\) >= i"),
        ],
    )
    def test_bad_h_is_refused_by_every_per_point_function(self, h, message):
        # is_fixed_point makes the argument checks the others make, so a
        # short h is not indexed past its end and a long or non-Hessenberg
        # h gets no answer
        for fn in (is_fixed_point, rolldown, rolldown_word, degree):
            with pytest.raises(ValueError, match=message):
                fn((2, 1, 3), (3,), h)

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
            raise AssertionError("filling or pairs built")

        monkeypatch.setattr(fillings._PrefixState, "filling", refuse)
        monkeypatch.setattr(fillings._PrefixState, "pairs", refuse)
        for diagram, h in (((5,), hessenberg_334(5)), ((3, 2), (2, 3, 4, 5, 5))):
            assert fixed_points(diagram, h)
            assert rolldown_words(diagram, h)
            assert rolldown_table(diagram, h)
            assert betti_numbers(diagram, h)
            assert verify_pinball(diagram, h).passed
        assert len(enumerations) == 10
        with pytest.raises(AssertionError, match="filling or pairs built"):
            fillings.enumerate_permissible((5,), hessenberg_334(5))

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

    def test_single_row_matches_poincare_product(self):
        # the regular nilpotent Hessenberg variety of h has Poincare
        # polynomial prod_j [h(j) - j + 1]_q; every h with n <= 7
        checked = 0
        for n in range(1, 8):
            for h in all_hessenberg(n):
                expected = regular_poincare(h)
                assert betti_numbers((n,), h) == expected, h
                assert verify_pinball((n,), h).betti == expected, h
                checked += 1
        assert checked == 625

    @pytest.mark.parametrize(
        "n", [*range(1, 7), pytest.param(7, marks=pytest.mark.slow)]
    )
    def test_springer_matches_kostka_foulkes(self, n):
        # h = identity gives the Springer fiber of Jordan type mu, whose
        # Poincare polynomial is sum_lam f^lam q^n(mu) K_(lam,mu)(1/q)
        for mu in all_diagrams(n):
            assert betti_numbers(mu, hessenberg_identity(n)) == springer_poincare(mu), mu

    @pytest.mark.slow
    def test_full_flag_n9(self):
        report = verify_pinball((9,), hessenberg_full(9))
        assert report.passed
        assert report.points == 362880
        # [9]_q!, the Mahonian numbers of S_9
        assert report.betti == regular_poincare(hessenberg_full(9))
        assert len(report.betti) == 37 and report.betti[:3] == (1, 8, 35)


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

    @staticmethod
    def _traced(n, h):
        """``verify_pinball((n,), h)`` and its traced peak in bytes."""
        tracemalloc.start()
        try:
            report = verify_pinball((n,), h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return report, peak

    @pytest.mark.slow
    def test_memory_per_point(self):
        # Each fixed point leaves one fixed-width (rolldown, point) record
        # of 2n bytes, not a pair of objects; the traced peak is about 25 B
        # per point.
        report, peak = self._traced(8, hessenberg_full(8))
        assert report.passed and report.points == 40320
        assert peak < 48 * report.points, peak

    @pytest.mark.slow
    def test_memory_per_point_when_h1_is_1(self):
        # With h(1) = 1 every omega(x) begins with 1, so one record bucket
        # per first entry of omega(x) would hold every point (135 B per
        # point traced); the buckets by degree spread as the Betti numbers,
        # and the traced peak is about 26 B per point.
        report, peak = self._traced(9, (1,) + hessenberg_full(9)[1:])
        assert report.passed and report.points == 40320
        assert peak < 48 * report.points, peak

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

    def test_checks_catch_colliding_rolldowns(self, omega_by):
        # every omega(x), so every rolldown, the identity: all collide,
        # lengths all 0
        omega_by(lambda x: identity(len(x) + 1))
        report = verify_pinball((4,), hessenberg_334(4))
        assert not report.injective
        points = fixed_points((4,), hessenberg_334(4))
        assert report.collisions == ((identity(4), points),)
        assert report.below_fixed_point
        assert not report.betti_matched
        assert report.betti_mismatches[0] == (0, 1, 12)
        assert not report.passed

    @pytest.mark.parametrize(
        "diagram, h",
        [
            ((5,), hessenberg_full(5)),
            ((6,), hessenberg_334(6)),
            ((3, 2), hessenberg_full(5)),
        ],
    )
    def test_collisions_in_many_buckets(self, omega_by, diagram, h):
        # omega(x) with x_n dropped to 0: points whose x differ only in x_n
        # share a rolldown, and the shared rolldowns have different lengths,
        # so the clashes fall in several of the report's buckets
        n = sum(diagram)

        def faulty(x):
            return omega(tuple(x[:-1]) + (0,))

        omega_by(faulty)
        report = verify_pinball(diagram, h)
        owners = {}
        for w, pairs in sorted(_brute_points(diagram, h)):
            x = [sum(1 for _, b in pairs if b == l) for l in range(2, n + 1)]
            owners.setdefault(inverse(faulty(x)), []).append(w)
        expected = tuple(
            sorted((r, tuple(ws)) for r, ws in owners.items() if len(ws) > 1)
        )
        assert report.collisions == expected
        assert len({inversions(r) for r, _ in expected}) >= 2
        assert not report.injective and not report.passed

    @staticmethod
    def _brute_mismatches(diagram, h, faulty):
        """``betti_mismatches`` when ``faulty(x)`` is every omega(x): the
        brute degrees against the brute lengths of the faulty rolldowns."""
        n = sum(diagram)
        degrees, lengths = [], []
        for w, pairs in _brute_points(diagram, h):
            x = [sum(1 for _, b in pairs if b == l) for l in range(2, n + 1)]
            degrees.append(len(pairs))
            lengths.append(brute_inversions(faulty(x)))
        return tuple(
            (k, degrees.count(k), lengths.count(k))
            for k in range(n * (n - 1) // 2 + 1)
            if degrees.count(k) != lengths.count(k)
        )

    @pytest.mark.parametrize(
        "diagram, h",
        [
            ((5,), hessenberg_full(5)),
            ((6,), hessenberg_334(6)),
            ((3, 2), (3, 3, 4, 5, 5)),
        ],
    )
    def test_moved_records_stay_distinct(self, omega_by, diagram, h):
        # omega(x) with its first two entries swapped is still injective but
        # one longer or shorter, so every record leaves its degree's bucket
        # and none of them collides; the lengths of the full flag and the
        # 334 family still match their Betti numbers, those of the last
        # pair do not
        def faulty(x):
            o = list(omega(x))
            o[0], o[1] = o[1], o[0]
            return tuple(o)

        omega_by(faulty)
        report = verify_pinball(diagram, h)
        assert report.injective and report.collisions == ()
        assert report.betti_mismatches == self._brute_mismatches(diagram, h, faulty)
        assert report.betti_matched == (diagram != (3, 2))

    def test_moved_record_collides_with_one_that_stayed(self, omega_by):
        # x = (1, 0, 0) has degree 1 but is sent to the identity, the
        # omega of x = 0: its record moves to the length-0 bucket, where
        # the record of the identity point stayed
        def faulty(x):
            return identity(4) if tuple(x) == (1, 0, 0) else omega(x)

        omega_by(faulty)
        h = hessenberg_full(4)
        report = verify_pinball((4,), h)
        e, s1 = identity(4), from_word(4, (1,))
        assert report.collisions == ((e, (e, s1)),)
        assert report.betti_mismatches == ((0, 1, 2), (1, 3, 2))
        assert report.betti_mismatches == self._brute_mismatches((4,), h, faulty)
        assert report.below_fixed_point and not report.passed

    def test_lengths_counted_in_bulk(self, monkeypatch):
        # the rolldown lengths come from ``_lengths`` once per bucket, not
        # from an inversion count per leaf
        calls = []

        def counted(w):
            calls.append(w)
            return inversions(w)

        monkeypatch.setattr(permutations, "inversions", counted)
        monkeypatch.setattr(pinball, "inversions", counted, raising=False)
        report = verify_pinball((7,), hessenberg_full(7))
        assert report.passed and report.points == 5040
        assert calls == []

    def test_checks_catch_rolldowns_above(self, omega_by):
        # For the full flag the rolldown of w is w itself, so omega(x) is
        # w^{-1}.  Its inverse w in place of omega(x) makes the rolldown
        # w^{-1}: still distinct and of the right lengths, but not below w
        # unless w is an involution.
        omega_by(lambda x: inverse(fillings._omega(x)))
        report = verify_pinball((4,), hessenberg_full(4))
        assert report.injective
        assert report.betti_matched
        assert not report.below_fixed_point
        assert report.bruhat_failures == tuple(
            (w, inverse(w)) for w in all_permutations(4) if w != inverse(w)
        )
        assert len(report.bruhat_failures) == 24 - 10

    @staticmethod
    def _count_keys(monkeypatch):
        """The permutations whose Bruhat keys are packed from now on."""
        packed = []
        real = permutations.BruhatKeys._pack

        def counted(self, w):
            packed.append(w)
            return real(self, w)

        monkeypatch.setattr(permutations.BruhatKeys, "_pack", counted)
        return packed

    def test_full_flag_packs_no_keys(self, monkeypatch):
        # every rolldown of the full flag is its own point, which Bruhat
        # order's reflexivity settles without keys
        packed = self._count_keys(monkeypatch)
        report = verify_pinball((6,), hessenberg_full(6))
        assert report.passed and report.points == 720
        assert packed == []

    @pytest.mark.parametrize(
        "diagram, h, moved",
        [
            ((6,), hessenberg_334(6), 26),
            ((3, 2), hessenberg_full(5), 0),
            ((3, 2), (3, 3, 4, 5, 5), 20),
        ],
    )
    def test_keys_packed_only_for_moved_points(self, monkeypatch, diagram, h, moved):
        # two keys for each point whose rolldown is not the point itself
        table = rolldown_table(diagram, h)
        assert sum(1 for w, r in table.items() if r != w) == moved
        packed = self._count_keys(monkeypatch)
        assert verify_pinball(diagram, h).passed
        assert len(packed) == 2 * moved

    def test_every_moved_point_is_key_tested(self, monkeypatch):
        # with a key comparison that always fails, exactly the points whose
        # rolldown differs from them fail, so none of them skips the keys
        monkeypatch.setattr(permutations.BruhatKeys, "leq", lambda self, kv, kw: False)
        full = verify_pinball((6,), hessenberg_full(6))
        assert full.checks()[1] == ("rolldown-below-fixed-point", True, ())
        h = hessenberg_334(6)
        report = verify_pinball((6,), h)
        moved = tuple(
            (w, r) for w, r in sorted(rolldown_table((6,), h).items()) if r != w
        )
        assert moved and report.bruhat_failures == moved
        assert not report.below_fixed_point and not report.passed

    def test_collisions_past_n_255(self, omega_by):
        # entries above 255 do not fit a byte: the records take a wider
        # type, through a real pass over the two points of h = (1, ...,
        # 254, 256, 256), the identity (degree 0) and s_255 (degree 1)
        n = 256
        h = tuple(range(1, n - 1)) + (n, n)
        e, s = identity(n), from_word(n, (n - 1,))
        report = verify_pinball((n,), h)
        assert report.passed and report.points == 2 and report.betti == (1, 1)
        # both rolldowns the identity
        omega_by(lambda x: e)
        report = verify_pinball((n,), h)
        assert report.points == 2
        assert report.collisions == ((e, (e, s)),)
        assert report.below_fixed_point
        # degrees 0 and 1 against two rolldowns of length 0
        assert report.betti_mismatches == ((0, 1, 2), (1, 1, 0))
        # the two rolldowns swapped: the identity's rolldown s_255 is not
        # below it, and its witness is decoded from the wide records
        omega_by(lambda x: e if any(x) else s)
        report = verify_pinball((n,), h)
        assert report.injective and report.betti_matched
        assert report.bruhat_failures == ((e, s),)

    def test_byte_records_gather_nothing(self, monkeypatch):
        # below n = 256 omega(x) is a bytes translation: the itemgetter
        # tables of ``fillings._gather`` are for wider records only
        def refused(w):
            raise AssertionError(f"_gather called for {w}")

        monkeypatch.setattr(fillings, "_gather", refused)
        fillings._halves.cache_clear()  # build the n = 7 tables afresh
        report = verify_pinball((7,), hessenberg_full(7))
        assert report.passed and report.points == 5040

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


class TestLengths:
    """``pinball._lengths`` record by record against ``brute_inversions``."""

    @staticmethod
    def _records(code, perms):
        """One (o, u) record per o in ``perms``, u its reverse."""
        records = array(code)
        for o in perms:
            records.fromlist([*o, *reversed(o)])
        return records

    def _check(self, code, perms, n):
        found = pinball._lengths(self._records(code, perms), n)
        assert list(found) == [brute_inversions(o) for o in perms]

    @pytest.mark.parametrize("n", range(1, 10))
    def test_random_buckets(self, n):
        rng = random.Random(n)
        perms = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(200)]
        self._check("B", perms, n)

    def test_longest_in_bytes(self):
        # n = 255 is the largest n held in bytes; w0's length 32,385 is the
        # largest in a 16-bit field below its guard bit
        n = 255
        e, w0 = identity(n), tuple(range(n, 0, -1))
        found = pinball._lengths(self._records("B", [e, w0, e]), n)
        assert list(found) == [0, n * (n - 1) // 2, 0] == [0, 32385, 0]

    def test_past_n_255(self):
        n = 256
        rng = random.Random(n)
        perms = [identity(n), tuple(range(n, 0, -1))]
        perms += [tuple(rng.sample(range(1, n + 1), n)) for _ in range(3)]
        self._check("H", perms, n)

    @pytest.mark.parametrize("count", [0, 1])
    def test_empty_and_single_buckets(self, count):
        perms = [(3, 1, 4, 5, 2)][:count]
        self._check("B", perms, 5)


class TestFixedPoints:
    def test_identity_prunes_dead_prefixes(self):
        # h = identity on the single row has one fixed point, and h = (2,
        # 3, 3, 4, ..., n) four; a pass that cut dead prefixes only at
        # their first bad adjacency took 2^n steps, 11 s at n = 24 on the
        # first, and one that tested only the smallest value left took
        # 71 s at n = 28 on the second
        start = time.perf_counter()
        assert fixed_points((24,), hessenberg_identity(24)) == (identity(24),)
        h = (2, 3) + tuple(range(3, 41))
        assert len(fixed_points((40,), h)) == 4
        assert betti_numbers((40,), h) == regular_poincare(h)
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
