"""Restrictions by Billey's formula and the circle projection."""

import functools
import random
import tracemalloc

import pytest

from hesspin import billey
from hesspin.billey import (
    S1_ZERO,
    Polynomial,
    Root,
    S1Value,
    _weak_ideal,
    check_upper_triangular,
    p_restriction,
    p_summand_counts,
    project_s1,
    restriction_matrix,
    roots_along_word,
    sigma_restriction,
    sigma_rows,
)
from hesspin.fillings import hessenberg_334, single_row
from hesspin.permutations import (
    BruhatKeys,
    all_permutations,
    bruhat_leq,
    canonical_word,
    compose,
    identity,
    inversions,
    simple,
)
from hesspin.pinball import rolldown_table

from oracles import (
    Poly,
    all_hessenberg,
    brute_inversions,
    brute_project,
    brute_sigma,
    brute_summand_table,
    bruhat_leq_tableau,
    gkm_edges,
    gkm_violations,
    random_reduced_word,
    vandermonde,
    weak_down_set,
)


class TestPolynomial:
    def test_arithmetic(self):
        # the oracles' arithmetic, which the package itself never does
        t1 = Poly.variable(1, 3)
        t2 = Poly.variable(2, 3)
        p = (t1 - t2) * (t1 + t2)
        assert p == t1 * t1 - t2 * t2
        assert p.degree() == 2
        assert p.is_homogeneous()
        assert not (p - p)
        assert (p - p).degree() is None

    def test_repr(self):
        t1, t2 = Poly.variable(1, 2), Poly.variable(2, 2)
        assert repr(t1 - t2) == "t1 - t2"
        assert repr(2 * t2 * t2 - t1) == "-t1 + 2*t2^2"
        assert repr(Polynomial(2)) == "0"

    def test_constants(self):
        one = Poly.one(2)
        assert one + one == Poly.constant(2, 2)
        assert one * 0 == Poly.zero(2) == Polynomial(2)

    def test_package_class_does_no_arithmetic(self):
        # the ring operations live in the oracles' subclass only
        names = ["zero", "one", "constant", "variable", "_coerce"]
        names += ["__add__", "__radd__", "__neg__", "__sub__", "__rsub__"]
        names += ["__mul__", "__rmul__", "degree"]
        for name in names:
            assert not hasattr(Polynomial, name), name
            assert hasattr(Poly, name), name
        # a Poly equals, and hashes like, the package value of its terms
        t1 = Poly.variable(1, 2)
        assert t1 == Polynomial(2, {(1, 0): 1})
        assert hash(t1) == hash(Polynomial(2, {(1, 0): 1}))


class TestRoots:
    def test_first_letters(self):
        assert roots_along_word((2, 1), 3)[0] == Root(2, 3)
        assert roots_along_word((1, 2), 3)[1] == Root(1, 3)

    def test_longest_word_roots(self):
        # along 1,2,1,3,2,1 every positive root appears exactly once
        roots = roots_along_word((1, 2, 1, 3, 2, 1), 4)
        assert roots == (
            Root(1, 2),
            Root(1, 3),
            Root(2, 3),
            Root(1, 4),
            Root(2, 4),
            Root(3, 4),
        )
        assert all(r.upper > r.lower for r in roots)

    def test_s1_weights(self):
        assert Root(1, 4).s1() == 3


class TestSubwords:
    # p_summand_counts counts the reduced subwords of b reaching v by their
    # projected root products; on b = 121 the roots are t1 - t2, t1 - t3 and
    # t2 - t3, of weights 1, 2 and 1
    def test_identity_has_empty_subword(self):
        assert p_summand_counts((1, 2, 3), (3, 2, 1), (1, 2, 1)) == {S1Value(1, 0): 1}

    def test_full_word(self):
        assert p_summand_counts((3, 2, 1), (3, 2, 1), (1, 2, 1)) == {S1Value(2, 3): 1}

    def test_repeated_letter_gives_two_subwords(self):
        # positions 0 and 2
        assert p_summand_counts((2, 1, 3), (3, 2, 1), (1, 2, 1)) == {S1Value(1, 1): 2}

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_brute_force_on_random_words(self, n):
        # the backward pass drops only states longer than the letters left;
        # dropping one too soon would silently lose subwords
        rng = random.Random(4000 + n)
        perms = all_permutations(n)
        targets = [tuple(range(n, 0, -1))] + rng.sample(perms, min(3, len(perms)))
        for w in targets:
            b = random_reduced_word(w, rng)
            table = brute_summand_table(b, n)
            for v in perms:
                assert p_summand_counts(v, w, b) == table.get(v, {}), (b, v)


class TestSigma:
    def test_identity_class(self):
        for w in all_permutations(3):
            assert sigma_restriction((1, 2, 3), w) == Poly.one(3)

    def test_vanishing_iff_not_below(self):
        for v in all_permutations(4):
            for w in all_permutations(4):
                value = sigma_restriction(v, w)
                assert bool(value) == bruhat_leq(v, w), (v, w)

    @pytest.mark.parametrize("n", [1, 2, 4, 5])
    def test_matches_brute_force_exhaustively(self, n):
        perms = all_permutations(n)
        nonzero = 0
        for w in perms:
            b = canonical_word(w)
            for v in perms:
                value = sigma_restriction(v, w, b)
                assert value == brute_sigma(v, w, b), (v, w)
                nonzero += bool(value)
        assert nonzero == sum(bruhat_leq(v, w) for v in perms for w in perms)

    def test_small_values(self):
        one = Poly.one(1)
        assert sigma_restriction((1,), (1,)) == one
        assert sigma_restriction((1,), (1,), ()) == one
        e, s = (1, 2), (2, 1)
        t1, t2 = Poly.variable(1, 2), Poly.variable(2, 2)
        assert sigma_restriction(e, e) == sigma_restriction(e, s) == Poly.one(2)
        assert sigma_restriction(s, e) == Poly.zero(2)
        assert sigma_restriction(s, s) == t1 - t2

    def test_matches_brute_force_on_random_words_s6(self):
        rng = random.Random(20261018)
        perms = all_permutations(6)
        nonzero = 0
        for k in range(30):
            w = tuple(range(6, 0, -1)) if k == 0 else rng.choice(perms)
            b = random_reduced_word(w, rng)
            # a subword product of b lies below w, so its value is nonzero
            v = identity(6)
            for letter in b:
                if rng.random() < 0.5:
                    v = compose(v, simple(letter, 6))
            for u in (v, rng.choice(perms)):
                value = sigma_restriction(u, w, b)
                assert value == brute_sigma(u, w, b), (u, w, b)
                nonzero += bool(value)
        assert nonzero > 30

    @pytest.mark.parametrize("n", [7, 8])
    def test_longest_element_is_root_product(self, n):
        # t_1 occurs in n - 1 roots: at n = 8 its exponent 7 fills a 3-bit
        # field, so a packed exponent field one bit short would carry
        w0 = tuple(range(n, 0, -1))
        expected = vandermonde(n)
        if n == 7:
            product = Poly.one(n)
            for i in range(1, n + 1):
                for j in range(i + 1, n + 1):
                    product = product * (
                        Poly.variable(i, n) - Poly.variable(j, n)
                    )
            assert product == expected
        assert sigma_restriction(w0, w0) == expected
        assert max(e for exps in expected.terms for e in exps) == n - 1

    def test_takes_only_the_backward_pass(self, monkeypatch):
        # no Polynomial product, root tuple or Bruhat comparison
        cases = [
            ((2, 1, 3, 4), (4, 3, 2, 1)),
            ((3, 1, 2, 4), (3, 4, 1, 2)),
            ((2, 1, 4, 3), (4, 2, 3, 1)),
        ]
        expected = [brute_sigma(v, w, canonical_word(w)) for v, w in cases]

        def refuse(*args, **kwargs):
            raise AssertionError("sigma_restriction took a refused path")

        for name in ["roots_along_word", "bruhat_table"]:
            monkeypatch.setattr(billey, name, refuse)
        for name in ["key", "leq"]:
            monkeypatch.setattr(BruhatKeys, name, refuse)
        # Polynomial has no product to take (TestPolynomial)
        assert [sigma_restriction(v, w) for v, w in cases] == expected
        assert all(expected)

    def test_rows_match_single_entries(self):
        perms = all_permutations(4)
        rows = [perms[k] for k in range(0, 24, 5)]
        table = list(sigma_rows(iter(rows), perms))
        assert table == [tuple(sigma_restriction(v, w) for w in perms) for v in rows]

    def test_rows_check_each_word_once(self, monkeypatch):
        # one canonical word per column, however many rows
        calls = []
        real = billey.canonical_word

        def counted(w):
            calls.append(w)
            return real(w)

        monkeypatch.setattr(billey, "canonical_word", counted)
        perms = all_permutations(4)
        assert len(list(sigma_rows(perms, perms))) == len(perms)
        assert sorted(calls) == list(perms)

    def test_rows_tabulate_each_column_once(self, monkeypatch):
        # one root table per column, however many rows
        calls = []
        real = billey._root_table

        def counted(ideal, w, b, unit):
            calls.append(w)
            return real(ideal, w, b, unit)

        monkeypatch.setattr(billey, "_root_table", counted)
        perms = all_permutations(4)
        for rows in [perms[:1], perms[::5], perms]:
            calls.clear()
            assert len(list(sigma_rows(rows, perms))) == len(rows)
            assert calls == list(perms)

    def test_values_keep_the_constructor_invariants(self):
        # values are built without Polynomial.__init__'s checks, so they
        # must keep its invariants themselves
        perms = all_permutations(4)
        values = [p for row in sigma_rows(perms, perms) for p in row]
        values += [sigma_restriction(v, w) for v in perms for w in perms]
        assert len(values) == 2 * 24 * 24
        for p in values:
            assert p.nvars == 4
            assert all(len(exps) == 4 and c != 0 for exps, c in p.terms.items())
            assert p == Polynomial(4, p.terms)
        # the public constructor keeps its checks
        with pytest.raises(ValueError, match="not length 3"):
            Polynomial(3, {(1, 0): 1})

    def test_rows_without_rows_yield_nothing(self):
        # no ideal or root table is built, but the points are still checked
        assert list(sigma_rows([], all_permutations(4))) == []
        with pytest.raises(ValueError, match="not a reduced word"):
            next(sigma_rows([], [(1, 1, 3)]))

    def test_rows_reject_size_mismatch(self):
        for rows in [
            sigma_rows([(2, 1, 3, 4)], all_permutations(3)),
            # rows of two sizes, even with no points to restrict to
            sigma_rows([(1, 2), (1, 2, 3)], []),
        ]:
            with pytest.raises(ValueError, match="size mismatch"):
                next(rows)

    def test_rows_number_one_ideal(self, monkeypatch):
        # the rows' weak-order ideal is numbered once for the whole table
        calls = []
        real = billey._weak_ideal

        def counted(tops):
            calls.append(list(tops))
            return real(tops)

        monkeypatch.setattr(billey, "_weak_ideal", counted)
        perms = all_permutations(4)
        rows = [perms[k] for k in range(0, 24, 5)]
        assert len(list(sigma_rows(iter(rows), perms))) == len(rows)
        assert calls == [rows]

    def test_rows_below_a_smaller_weak_ideal_match_brute_force(self):
        # the pass keeps only states in the rows' weak-order ideal; here it
        # is strictly smaller than their Bruhat down-closure, so a state
        # wrongly dropped for lying outside it would show
        rng = random.Random(7500)
        perms = all_permutations(5)
        rows = rng.sample(perms, 4)
        weak = set(_weak_ideal(rows).number)
        assert weak == weak_down_set(rows, 5)
        assert weak < _down_set_oracle(rows, 5)
        words = {w: canonical_word(w) for w in perms}
        nonzero = 0
        for v, row in zip(rows, sigma_rows(rows, perms)):
            for w, value in zip(perms, row):
                assert value == brute_sigma(v, w, words[w]), (v, w)
                nonzero += bool(value)
        assert nonzero == sum(bruhat_leq(v, w) for v in rows for w in perms)

    def test_word_independence_random_s5(self):
        rng = random.Random(20260817)
        perms = all_permutations(5)
        for _ in range(200):
            v, w = rng.choice(perms), rng.choice(perms)
            b = random_reduced_word(w, rng)
            assert sigma_restriction(v, w, b) == sigma_restriction(v, w)

    def test_diagonal_is_root_product(self):
        for w in all_permutations(4):
            value = sigma_restriction(w, w)
            expected = Poly.one(4)
            for root in roots_along_word(canonical_word(w), 4):
                expected = expected * (
                    Poly.variable(root.lower, 4) - Poly.variable(root.upper, 4)
                )
            assert value == expected
            assert expected.degree() == inversions(w)

    def test_rejects_non_reduced_word(self):
        with pytest.raises(ValueError, match="not a reduced word"):
            sigma_restriction((2, 1, 3), (2, 1, 3), (1, 1))

    def test_factorization_shortcut(self):
        # disjoint, non-adjacent supports: the second factor is invisible
        for v in all_permutations(3):
            v5 = v + (4, 5)
            for u in all_permutations(3):
                w_plain = u + (4, 5)
                w_swapped = u + (5, 4)
                assert sigma_restriction(v5, w_plain) == sigma_restriction(
                    v5, w_swapped
                )


class TestGKM:
    """The restrictions satisfy the GKM condition, checked by an oracle that
    reads only the polynomials and shares no code with Billey's formula."""

    @staticmethod
    def table(perms):
        return {(v, w): sigma_restriction(v, w) for v in perms for w in perms}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_exhaustive(self, n):
        perms = all_permutations(n)
        sigma = self.table(perms)
        assert gkm_violations(sigma, perms) == []
        # not vacuous: many edges join different restrictions
        differ = sum(
            sigma[v, w] != sigma[v, w2] for v in perms for w, w2, _, _ in gkm_edges(perms)
        )
        assert 2 * differ > len(perms) * len(gkm_edges(perms)) // 4

    def test_flags_every_edge_at_a_perturbed_entry(self):
        perms = all_permutations(4)
        sigma = self.table(perms)
        v, w = (2, 1, 3, 4), (3, 4, 1, 2)
        sigma[v, w] = Poly(4, sigma[v, w].terms) + 1
        expected = {
            (w1, w2) for w1, w2, _, _ in gkm_edges(perms) if w in (w1, w2)
        }
        flagged = gkm_violations(sigma, perms)
        assert {(u, w1, w2) for u, w1, w2, _, _ in flagged} == {
            (v, w1, w2) for w1, w2 in expected
        }
        assert len(expected) == 6


class TestProjection:
    def test_example(self):
        p = Poly.variable(1, 3) - Poly.variable(3, 3)
        assert project_s1(p) == S1Value(2, 1)

    def test_zero(self):
        assert project_s1(Polynomial(4)) == S1_ZERO

    def test_rejects_inhomogeneous(self):
        p = Poly.one(3) + Poly.variable(1, 3)
        with pytest.raises(ValueError):
            project_s1(p)

    def test_matches_brute_substitution(self):
        rng = random.Random(5)
        perms = all_permutations(4)
        for _ in range(100):
            v, w = rng.choice(perms), rng.choice(perms)
            sigma = sigma_restriction(v, w)
            assert tuple(project_s1(sigma)) == brute_project(sigma, 4)

    def test_positive_roots_never_cancel(self):
        # every summand has positive projection, so degree pins the sum
        for v in all_permutations(4):
            for w in all_permutations(4):
                if bruhat_leq(v, w):
                    value = p_restriction(v, w)
                    assert value.coeff > 0
                    assert value.degree == inversions(v)
                else:
                    assert p_restriction(v, w) == S1_ZERO


class TestSummands:
    def test_sum_matches_restriction(self):
        for v in all_permutations(4):
            for w in all_permutations(4):
                counts = p_summand_counts(v, w)
                total = sum(s.coeff * k for s, k in counts.items())
                assert p_restriction(v, w).coeff == total

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_counts_match_brute_force(self, n):
        # against multisets from plain position combinations, no Bruhat keys
        rng = random.Random(7100 + n)
        perms = all_permutations(n)
        nonzero = 0
        for w in perms:
            for b in (canonical_word(w), random_reduced_word(w, rng)):
                table = brute_summand_table(b, n)
                for v in perms:
                    counts = p_summand_counts(v, w, b)
                    assert counts == table.get(v, {}), (v, w, b)
                    assert list(counts) == sorted(counts), (v, w, b)
                    nonzero += bool(counts)
        assert nonzero == 2 * sum(bruhat_leq(v, w) for v in perms for w in perms)

    def test_restriction_matches_oracle_s4(self):
        perms = all_permutations(4)
        for w in perms:
            b = canonical_word(w)
            for v in perms:
                assert p_restriction(v, w, b) == project_s1(brute_sigma(v, w, b)), (v, w)

    def test_restriction_matches_oracle_s5(self):
        rng = random.Random(20261019)
        perms = all_permutations(5)
        columns = [tuple(range(5, 0, -1))] + rng.sample(perms, 24)
        for w in columns:
            b = random_reduced_word(w, rng)
            for v in perms:
                assert p_restriction(v, w, b) == project_s1(brute_sigma(v, w, b)), (v, w, b)

    @pytest.mark.parametrize("n", [6, 7])
    def test_letters_left_prune(self, n):
        # restricting w0's class to w0, only the whole word has l(w0)
        # letters: with the letters-left prune one state survives each
        # letter, so the pass holds a few states at a time.  Without it,
        # the states below w0 pile up: about 275 KB at n = 6, 2.1 MB at 7
        w0 = tuple(range(n, 0, -1))
        b = canonical_word(w0)
        tracemalloc.start()
        try:
            counts = p_summand_counts(w0, w0, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == {project_s1(vandermonde(n)): 1}
        assert peak < 64 * 1024, peak

    def test_single_entry_numbers_only_what_its_pass_reaches(self):
        # w0 s_2 has 20,160 permutations below it in the weak order at
        # n = 8; numbering all of them per call would take megabytes, while
        # the pass holds a few states of lengths 26 to 28 at a time
        n = 8
        w0 = tuple(range(n, 0, -1))
        v = compose(w0, simple(2, n))
        b = canonical_word(w0)
        expected = brute_summand_table(b, n, [len(b) - 1])[v]
        tracemalloc.start()
        try:
            counts = p_summand_counts(v, w0, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == expected
        assert peak < 64 * 1024, peak

    def test_unreached_identity_is_zero(self):
        # a single entry's pass may never number the identity
        v, w = (3, 2, 1, 4), (1, 4, 3, 2)
        ideal = billey._Ideal([v])
        assert billey._summand_counts(ideal, v, w, canonical_word(w)) == {}
        assert ideal.bottom == -1 and len(ideal.elements) > 1
        assert p_summand_counts(v, w) == {}
        assert p_restriction(v, w) == S1_ZERO
        assert sigma_restriction(v, w) == Poly.zero(4)

    def test_takes_only_the_backward_pass(self, monkeypatch):
        # no root tuple or Bruhat comparison: the census's vanishing is
        # checked against Bruhat order, so it must not consult it
        cases = [
            ((2, 1, 3, 4), (4, 3, 2, 1)),
            ((3, 1, 2, 4), (3, 4, 1, 2)),
            ((2, 1, 4, 3), (4, 2, 3, 1)),
            ((1, 3, 2, 4), (2, 4, 1, 3)),
        ]
        words = [canonical_word(w) for _, w in cases]
        expected = [project_s1(brute_sigma(v, w, b)) for (v, w), b in zip(cases, words)]
        tables = [brute_summand_table(b, 4)[v] for (v, _), b in zip(cases, words)]

        def refuse(*args, **kwargs):
            raise AssertionError("the census took a refused path")

        for name in ["roots_along_word", "bruhat_table"]:
            monkeypatch.setattr(billey, name, refuse)
        for name in ["key", "leq"]:
            monkeypatch.setattr(BruhatKeys, name, refuse)
        assert [p_restriction(v, w) for v, w in cases] == expected
        assert [p_summand_counts(v, w) for v, w in cases] == tables
        assert all(expected)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError, match="size mismatch"):
            p_restriction((2, 1, 3), (2, 1, 3, 4))
        with pytest.raises(ValueError, match="not a reduced word"):
            p_summand_counts((2, 1, 3), (2, 1, 3), (1, 1, 1))

    def test_worked_diagonal_entry(self):
        w = (5, 4, 3, 2, 1, 8, 7, 6)
        roll = (5, 2, 1, 3, 4, 8, 6, 7)
        assert p_restriction(roll, w) == S1Value(144, 7)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sigma_restriction((1, 1, 3), (3, 2, 1)), "not a permutation"),
        (lambda: next(sigma_rows([(1, 1, 3)], [(3, 2, 1)])), "not a permutation"),
        (lambda: p_restriction((0, 5, 9), (3, 2, 1)), "not a permutation"),
        (lambda: p_summand_counts((2, 2, 1), (3, 2, 1)), "not a permutation"),
        (
            lambda: restriction_matrix([(1, 2), (2, 1)], {(1, 2): (1, 2)}),
            r"no rolldown for the points \[\(2, 1\)\]",
        ),
        (
            lambda: restriction_matrix([(1, 2), (2, 1)], {(1, 2): (1, 2), (2, 1): (2, 2)}),
            "not a permutation",
        ),
        (
            lambda: restriction_matrix(
                [(1, 2), (1, 2), (2, 1)], {(1, 2): (1, 2), (2, 1): (2, 1)}
            ),
            r"repeated points \[\(1, 2\)\]",
        ),
    ],
    ids=[
        "sigma-row",
        "sigma-rows",
        "p-restriction",
        "p-summand-counts",
        "matrix-missing-rolldown",
        "matrix-bad-rolldown",
        "matrix-repeated-point",
    ],
)
def test_rows_must_be_permutations(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMatrix:
    def test_full_flag_s3_triangular(self):
        points = all_permutations(3)
        rolls = {w: w for w in points}
        matrix = restriction_matrix(points, rolls)
        report = check_upper_triangular(matrix)
        assert report.passed
        assert matrix.entry((1, 2, 3), (3, 2, 1)) == S1Value(1, 0)

    def test_negative_control(self):
        # rolling everything down to the longest element breaks the diagonal
        points = all_permutations(3)
        w0 = (3, 2, 1)
        rolls = {w: w0 for w in points}
        report = check_upper_triangular(restriction_matrix(points, rolls))
        assert not report.passed
        assert not report.diagonal_ok
        assert (1, 2, 3) in report.diagonal_zeros

    def test_rejects_size_mismatch(self):
        points = all_permutations(3)
        rolls = {w: w + (4,) for w in points}
        with pytest.raises(ValueError, match="size mismatch"):
            restriction_matrix(points, rolls)

    def test_index_is_a_lookup(self):
        points = all_permutations(4)
        # index bisects the sorted points, so hand them over out of order
        shuffled = list(points)
        random.Random(4).shuffle(shuffled)
        matrix = restriction_matrix(shuffled, {w: w for w in points})
        assert matrix.points == points
        for k, w in enumerate(points):
            assert matrix.index(w) == k
            assert matrix.entry(w, w) == matrix.values[k][k]
        for w in [(1, 2, 3), (0, 1, 2, 3), (4, 3, 2, 1, 5), (5, 1, 2, 3)]:
            with pytest.raises(ValueError, match="not a point"):
                matrix.index(w)
        # the lookup is derived from points: equality and hashing ignore it
        again = restriction_matrix(points, {w: w for w in points})
        assert again == matrix and hash(again) == hash(matrix)
        assert "_position" not in repr(matrix)

    def test_makes_no_bruhat_comparison(self, monkeypatch):
        # bruhat-vanishing checks the matrix against Bruhat order, so the
        # matrix itself must not consult any Bruhat entry point billey has
        def refuse(*args, **kwargs):
            raise AssertionError("restriction_matrix consulted Bruhat order")

        names = [name for name in vars(billey) if "bruhat" in name.lower()]
        assert "bruhat_table" in names
        for name in names:
            monkeypatch.setattr(billey, name, refuse)
        for name in ["key", "leq"]:
            monkeypatch.setattr(BruhatKeys, name, refuse)
        points = all_permutations(4)
        matrix = restriction_matrix(points, {w: w for w in points})
        assert matrix.entry((1, 2, 3, 4), (4, 3, 2, 1)) == S1Value(1, 0)


class TestUpperTriangularTable:
    """check_upper_triangular reads the relation it is given, row mask by row mask."""

    @staticmethod
    def matrix():
        points = all_permutations(3)
        return restriction_matrix(points, {w: w for w in points})

    @staticmethod
    def masks(matrix, related):
        return [
            sum(1 << b for b, w in enumerate(matrix.points) if related(v, w))
            for v in matrix.points
        ]

    @staticmethod
    def dense_violations(matrix, related):
        # every nonzero (v, w) outside the relation, in row-major order
        return [
            (v, w, value)
            for v, row in zip(matrix.points, matrix.values)
            for w, value in zip(matrix.points, row)
            if value != S1_ZERO and not related(v, w)
        ]

    def test_default_table_is_bruhat_order(self):
        matrix = self.matrix()
        table = self.masks(matrix, bruhat_leq)
        assert check_upper_triangular(matrix, table) == check_upper_triangular(matrix)

    def test_all_false_table_flags_every_nonzero_entry(self):
        matrix = self.matrix()
        size = len(matrix.points)
        report = check_upper_triangular(matrix, [0] * size)
        nonzero = self.dense_violations(matrix, lambda v, w: False)
        off_diagonal = [(v, w, value) for v, w, value in nonzero if v != w]
        assert off_diagonal
        assert list(report.vanishing_violations) == nonzero
        assert set(off_diagonal) <= set(report.vanishing_violations)
        assert not report.vanishing_ok and report.diagonal_ok

    def test_diagonal_table_flags_exactly_the_off_diagonal_entries(self):
        matrix = self.matrix()
        table = [1 << a for a in range(len(matrix.points))]
        report = check_upper_triangular(matrix, table)
        assert list(report.vanishing_violations) == self.dense_violations(
            matrix, lambda v, w: v == w
        )

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_tables_flag_in_row_major_order(self, n):
        rng = random.Random(7900 + n)
        perms = all_permutations(n)
        short = [v for v in perms if inversions(v) <= 3]
        matrix = restriction_matrix(perms, {w: rng.choice(short) for w in perms})
        values = matrix.values
        for _ in range(5):
            related = functools.cache(lambda v, w: rng.random() < 0.5)
            report = check_upper_triangular(matrix, self.masks(matrix, related))
            expected = self.dense_violations(matrix, related)
            assert expected
            assert list(report.vanishing_violations) == expected
            assert list(report.diagonal_zeros) == [
                w for k, w in enumerate(matrix.points) if values[k][k] == S1_ZERO
            ]

    def test_rejects_misshapen_table(self):
        matrix = self.matrix()
        size = len(matrix.points)
        full = (1 << size) - 1
        with pytest.raises(ValueError):
            check_upper_triangular(matrix, [full] * (size - 1))
        with pytest.raises(ValueError):
            check_upper_triangular(matrix, [full] * (size + 1))
        with pytest.raises(ValueError):
            check_upper_triangular(matrix, [full] * (size - 1) + [1 << size])
        with pytest.raises(ValueError):
            check_upper_triangular(matrix, [full] * (size - 1) + [-1])


def _down_set_oracle(rows, n):
    return {u for u in all_permutations(n) if any(bruhat_leq_tableau(u, r) for r in rows)}


class TestDownClosure:
    """The numbered right weak-order ideal against the length-additivity
    oracle, and the Bruhat down-closure of rolldown sets."""

    @staticmethod
    def assert_matches_oracle(rows, n):
        ideal = _weak_ideal(rows)
        assert set(ideal.number) == weak_down_set(rows, n), rows
        elements = list(ideal.number)
        assert list(ideal.number.values()) == list(range(len(elements)))
        assert ideal.length == [brute_inversions(x) for x in elements]
        for i in range(1, n):
            expected = []
            for x in elements:
                y = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :]
                shorter = brute_inversions(y) < brute_inversions(x)
                expected.append(ideal.number[y] if shorter else -1)
            assert ideal.down[i] == expected, (rows, i)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_334_rolldowns(self, n):
        rows = set(rolldown_table(single_row(n), hessenberg_334(n)).values())
        self.assert_matches_oracle(rows, n)
        # the rolldowns are closed downwards in both orders
        assert set(_weak_ideal(rows).number) == rows == _down_set_oracle(rows, n)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_random_row_sets(self, n):
        rng = random.Random(7300 + n)
        perms = all_permutations(n)
        for size in (1, 1, 2, 3, 5):
            self.assert_matches_oracle(rng.sample(perms, min(size, len(perms))), n)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_single_row_rolldowns_are_lower_ideals(self, n):
        # for every h, the rolldown set is already closed downwards
        for h in all_hessenberg(n):
            rows = set(rolldown_table(single_row(n), h).values())
            assert rows == _down_set_oracle(rows, n), h

    @pytest.mark.parametrize("n", [4, 5])
    def test_single_entry_steps_agree(self, n):
        # a single entry's pass looks up only the steps it takes; each one
        # must be the eager ideal's, and some are never looked up
        rng = random.Random(7400 + n)
        perms = all_permutations(n)
        looked = unseen = 0
        for _ in range(40):
            v, w = rng.choice(perms), rng.choice(perms)
            ideal = billey._Ideal([v])
            billey._summand_counts(ideal, v, w, canonical_word(w))
            full = _weak_ideal([v])
            for k, x in enumerate(ideal.elements):
                assert ideal.length[k] == full.length[full.number[x]]
                for i in range(1, n):
                    step, expected = ideal.down[i][k], full.down[i][full.number[x]]
                    if step == -2:
                        unseen += 1
                    elif step == -1:
                        looked += 1
                        assert expected == -1, (v, x, i)
                    else:
                        looked += 1
                        assert ideal.elements[step] == full.elements[expected], (v, x, i)
        assert looked and unseen

    def test_empty(self):
        ideal = _weak_ideal([])
        assert set(ideal.number) == weak_down_set([], 3) == set()
        assert ideal.length == []


class TestMatrixOracle:
    """The column recurrence against brute-force subword sums, entry by entry."""

    @staticmethod
    def assert_matches_oracle(n, rolls, words=None):
        oracle = functools.cache(
            lambda v, w, b: brute_project(brute_sigma(v, w, b), n)
        )
        matrix = restriction_matrix(all_permutations(n), rolls, words=words)
        values = matrix.values
        assert len(values) == len(matrix.points)
        for a, (u, v) in enumerate(zip(matrix.points, matrix.rolldowns)):
            assert len(values[a]) == len(matrix.points)
            cells = []
            for b, w in enumerate(matrix.points):
                word = (words or {}).get(w, canonical_word(w))
                expected = oracle(v, w, word)
                assert tuple(values[a][b]) == expected, (v, w, word)
                assert tuple(matrix.entry(u, w)) == expected, (v, w, word)
                if expected[0]:
                    cells.append((b, expected[0]))
            # the stored row: a mask of its nonzero columns, coefficients in column order
            assert matrix.nonzero[a] == sum(1 << b for b, _ in cells)
            assert matrix.coeffs[a] == tuple(c for _, c in cells)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_identity_rolls(self, n):
        # rows reach the longest element, so the length cap never binds
        perms = all_permutations(n)
        self.assert_matches_oracle(n, {w: w for w in perms})

    @pytest.mark.parametrize("n", [4, 5])
    def test_short_rolls_cut_most_columns(self, n):
        perms = all_permutations(n)
        short = [v for v in perms if inversions(v) <= 2]
        assert 2 * sum(inversions(w) > 2 for w in perms) > len(perms)
        rolls = {w: short[k % len(short)] for k, w in enumerate(perms)}
        # each short rolldown serves several rows
        assert len(set(rolls.values())) < len(rolls)
        self.assert_matches_oracle(n, rolls)

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_rows_below_a_larger_ideal(self, n):
        # rows whose weak-order ideal holds far more than the rows themselves
        rng = random.Random(7400 + n)
        perms = all_permutations(n)
        rows = rng.sample(perms, 6)
        assert len(_weak_ideal(rows).number) > 2 * len(rows)
        self.assert_matches_oracle(n, {w: rows[k % len(rows)] for k, w in enumerate(perms)})

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_words(self, n):
        rng = random.Random(20261018 + n)
        perms = all_permutations(n)
        words = {w: random_reduced_word(w, rng) for w in perms}
        self.assert_matches_oracle(n, {w: w for w in perms}, words)
