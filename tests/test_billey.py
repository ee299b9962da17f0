"""Restrictions by Billey's formula and the circle projection."""

import functools
import random
import tracemalloc

import pytest

from hesspin import billey, permutations
from hesspin.billey import (
    S1_ZERO,
    Polynomial,
    S1Value,
    _weak_ideal,
    check_upper_triangular,
    p_restriction,
    p_rows,
    p_summand_counts,
    project_s1,
    sigma_restriction,
    sigma_rows,
)
from hesspin.fillings import hessenberg_334, hessenberg_identity, single_row
from hesspin.hess334 import catalog_reduced_word, fixed_points_334
from hesspin.permutations import (
    BruhatKeys,
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
    Root,
    all_diagram_h,
    all_diagrams,
    all_hessenberg,
    all_permutations,
    brute_inversions,
    brute_project,
    brute_sigma,
    brute_summand_table,
    bruhat_leq_tableau,
    gkm_edges,
    gkm_violations,
    random_reduced_word,
    roots_along_word,
    vandermonde,
    weak_down_set,
)


def _refuse_bruhat_order(monkeypatch, message):
    # every Bruhat entry point that billey holds, and the packed keys'
    # methods, raise with ``message``
    def refuse(*args, **kwargs):
        raise AssertionError(message)

    names = [name for name in vars(billey) if "bruhat" in name.lower()]
    assert "bruhat_keys" in names
    for name in names:
        monkeypatch.setattr(billey, name, refuse)
    for name in ["key", "_pack", "leq"]:
        monkeypatch.setattr(BruhatKeys, name, refuse)


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

    def test_equality_agrees_with_hashing(self):
        # a constant polynomial is not the int it holds: equal objects
        # must hash alike, so sets and dicts see what == sees
        p = Polynomial(1, {(0,): 5})
        assert p != 5 and 5 != p
        assert 5 not in {p} and p not in {5}
        assert p == Polynomial(1, {(0,): 5}) and p in {Polynomial(1, {(0,): 5})}

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
    """The oracle's forward roots, and ``billey._column`` against them."""

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

    @staticmethod
    def assert_column_matches(w, b):
        # the column lists letters last first; the oracle derives the same
        # roots forward from the identity
        n = len(w)
        column = billey._column(w, b, range(n + 1))
        roots = roots_along_word(b, n)
        assert [(j, i) for j, i, _, _ in column] == [
            (j, b[j - 1]) for j in range(len(b), 0, -1)
        ]
        assert [Root(lower, upper) for _, _, lower, upper in reversed(column)] == list(roots)
        # the packed units name the same two ends of each root
        packed = billey._packed_units(n)
        assert billey._column(w, b, packed) == [
            (j, i, packed[lower], packed[upper]) for j, i, lower, upper in column
        ]

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_column_matches_oracle_on_random_words(self, n):
        rng = random.Random(7600 + n)
        perms = all_permutations(n)
        for w in [perms[-1]] + rng.sample(perms, min(40, len(perms))):
            self.assert_column_matches(w, random_reduced_word(w, rng))
            self.assert_column_matches(w, canonical_word(w))
        # None stands for the canonical word
        w = perms[-1]
        assert billey._column(w, None, range(n + 1)) == billey._column(
            w, canonical_word(w), range(n + 1)
        )

    @pytest.mark.parametrize("n", [4, 5, 6, 7])
    def test_column_matches_oracle_on_catalog_words(self, n):
        points = fixed_points_334(n)
        assert len(points) == 3 * 2 ** (n - 2)
        for w in points:
            self.assert_column_matches(w, catalog_reduced_word(w))

    @pytest.mark.parametrize(
        "w, word",
        [
            ((3, 1, 2), (1, 2)),  # right length, wrong product
            ((2, 1, 3), (1, 1, 1)),  # not reduced
            ((2, 1), (0,)),  # the letter 0 would swap the ends, here 1 and 2
            ((2, 1, 3), (3,)),  # the letter n
            ((3, 2, 1), (1, 2)),  # too short
            ((2, 1, 3), (1, 2, 2)),  # too long
            ((1, 1, 3), None),  # not a permutation
            ((2, 1, 1), (1,)),  # not a permutation, with l(w) letters
            ((4, 1, 2), (1, 2)),  # the entry 4 would index past the units
        ],
    )
    def test_column_rejects_bad_input(self, w, word):
        for unit in (range(len(w) + 1), billey._packed_units(len(w))):
            with pytest.raises(ValueError, match="not a reduced word"):
                billey._column(w, word, unit)


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
        # no Polynomial product or Bruhat comparison
        cases = [
            ((2, 1, 3, 4), (4, 3, 2, 1)),
            ((3, 1, 2, 4), (3, 4, 1, 2)),
            ((2, 1, 4, 3), (4, 2, 3, 1)),
        ]
        expected = [brute_sigma(v, w, canonical_word(w)) for v, w in cases]
        _refuse_bruhat_order(monkeypatch, "sigma_restriction took a refused path")
        # Polynomial has no product to take (TestPolynomial)
        assert [sigma_restriction(v, w) for v, w in cases] == expected
        assert all(expected)

    def test_rows_match_single_entries(self):
        # every row and point of S_n for n <= 5, the rows given as an iterator
        for n in range(1, 6):
            perms = all_permutations(n)
            table = list(sigma_rows(iter(perms), perms))
            assert table == [tuple(sigma_restriction(v, w) for w in perms) for v in perms]

    def test_rows_share_one_zero(self):
        # every zero entry of a call is one object, the zero polynomial
        perms = all_permutations(4)
        zeros = {id(p): p for row in sigma_rows(perms, perms) for p in row if not p}
        assert len(zeros) == 1
        assert next(iter(zeros.values())) == Polynomial(4, {})

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
    def test_held_terms_descend(self, n):
        # each held tuple lists its terms in sorted_terms() order, so the
        # CLI writes them as they come; every row of S_n, and at n = 6
        # every seventh point (all 720 take 3.6 s)
        perms = all_permutations(n)
        points = perms[::7] if n == 6 else perms
        masks, held = billey._held_rows(perms, points, torus=True)
        count = 0
        for mask, entries in zip(masks, held):
            assert len(entries) == bin(mask).count("1")
            for terms in entries:
                pairs = list(zip(terms[::2], terms[1::2]))
                assert pairs == Polynomial(n, dict(pairs)).sorted_terms()
                assert len(pairs) == len(dict(pairs)) and all(c for _, c in pairs)
                count += 1
        assert count == sum(bruhat_leq(v, w) for v in perms for w in points)

    def test_rows_take_only_the_forward_pass(self, monkeypatch):
        # a table comes from the matrix's forward recurrence, and a single
        # entry from the backward pass; neither consults Bruhat order
        perms = all_permutations(4)
        expected = [tuple(sigma_restriction(v, w) for w in perms) for v in perms]
        backward = []
        real = billey._backward
        monkeypatch.setattr(billey, "_backward", lambda *args: backward.append(args))
        _refuse_bruhat_order(monkeypatch, "sigma_rows took a refused path")
        assert list(sigma_rows(perms, perms)) == expected
        assert backward == []
        monkeypatch.setattr(billey, "_backward", real)
        assert sigma_restriction(perms[-1], perms[-1]) == expected[-1][-1]

    @pytest.mark.parametrize("n", [4, 5])
    def test_rows_sharing_a_state_match_single_entries(self, n):
        # repeated rows, and the rows of a rolldown table where several
        # points roll down to one permutation, read one state of the pass
        rng = random.Random(7700 + n)
        perms = all_permutations(n)
        short = [v for v in perms if inversions(v) <= 2]
        points = rng.sample(perms, 2 * n)
        rows = rng.sample(perms, n) + [short[k % len(short)] for k in range(2 * n)]
        rows += rows[:2]
        assert len(set(rows)) < len(rows)
        values = list(sigma_rows(rows, points))
        assert values == [tuple(sigma_restriction(v, w) for w in points) for v in rows]
        assert any(p for row in values for p in row)
        # one state's terms are held once for all of its rows
        entries = billey._torus_entries(_weak_ideal(rows), rows)
        found = entries(billey._column(perms[-1], None, billey._packed_units(n)))
        held = {}
        for a, terms in found:
            assert held.setdefault(rows[a], terms) is terms
        assert len(found) == len(rows) > len(held)

    def test_rows_without_rows_or_points(self):
        perms = all_permutations(3)
        assert list(sigma_rows([], perms)) == []
        assert list(sigma_rows(perms, [])) == [()] * len(perms)
        assert list(sigma_rows([], [])) == []

    @pytest.mark.slow
    def test_rows_hold_compact_terms(self):
        # the 334 rolldowns at n = 8, 192 x 192 entries: the pass holds one
        # flat tuple of shared exponent tuples and coefficients per nonzero
        # entry, near 3.9 MiB traced; one dict per entry takes 5.6 MiB
        table = rolldown_table(single_row(8), hessenberg_334(8))
        points = sorted(table)
        rows = [table[w] for w in points]
        tracemalloc.start()
        try:
            count = sum(1 for _ in sigma_rows(rows, points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == len(points) == 192
        assert peak < 5 * 2**20, peak

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
        # one column per point, however many rows
        calls = []
        real = billey._column

        def counted(w, word, unit):
            calls.append(w)
            return real(w, word, unit)

        monkeypatch.setattr(billey, "_column", counted)
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
        # no ideal is built, but the points' columns are, so the points
        # are still checked
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
        assert billey._summand_counts(ideal, v, billey._column(w, None, range(5))) == {}
        assert ideal.bottom == -1 and len(ideal.elements) > 1
        assert p_summand_counts(v, w) == {}
        assert p_restriction(v, w) == S1_ZERO
        assert sigma_restriction(v, w) == Poly.zero(4)

    def test_takes_only_the_backward_pass(self, monkeypatch):
        # no Bruhat comparison: the census's vanishing is
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
        _refuse_bruhat_order(monkeypatch, "the census took a refused path")
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
        (lambda: next(p_rows([(1, 2), (2, 2)], [(1, 2), (2, 1)])), "not a permutation"),
        (
            lambda: check_upper_triangular({(1, 2): (1, 2), (2, 1): (2, 2)}),
            "not a permutation",
        ),
    ],
    ids=[
        "sigma-row",
        "sigma-rows",
        "p-restriction",
        "p-summand-counts",
        "p-rows",
        "matrix-bad-rolldown",
    ],
)
def test_rows_must_be_permutations(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestMatrix:
    def test_full_flag_s3_triangular(self):
        points = all_permutations(3)
        report = check_upper_triangular({w: w for w in points})
        assert report.passed
        # the row of the identity at the longest element
        assert next(p_rows(points, points))[-1] == S1Value(1, 0)

    def test_negative_control(self):
        # rolling everything down to the longest element breaks the diagonal
        points = all_permutations(3)
        w0 = (3, 2, 1)
        report = check_upper_triangular({w: w0 for w in points})
        assert not report.passed
        assert not report.diagonal_ok
        assert (1, 2, 3) in report.diagonal_zeros

    def test_rejects_size_mismatch(self):
        points = all_permutations(3)
        rolls = {w: w + (4,) for w in points}
        with pytest.raises(ValueError, match="size mismatch"):
            check_upper_triangular(rolls)
        with pytest.raises(ValueError, match="size mismatch"):
            next(p_rows(rolls.values(), points))

    def test_makes_no_bruhat_comparison(self, monkeypatch):
        # bruhat-vanishing checks the matrix against Bruhat order, so the
        # matrix itself must not consult any Bruhat entry point billey has
        _refuse_bruhat_order(monkeypatch, "p_rows consulted Bruhat order")
        points = all_permutations(4)
        assert next(p_rows(points, points))[-1] == S1Value(1, 0)


class TestUpperTriangularTable:
    """check_upper_triangular tests each nonzero entry against the points'
    packed Bruhat keys, one ``BruhatKeys.leq`` per entry and no relation
    table; the dense tableau criterion is the oracle."""

    @staticmethod
    def assert_matches_oracle(rolls):
        report = check_upper_triangular(rolls)
        points = sorted(rolls)
        values = list(p_rows([rolls[v] for v in points], points))
        # every nonzero (v, w) with v not below w, in row-major order
        expected = [
            (v, w, value)
            for v, row in zip(points, values)
            for w, value in zip(points, row)
            if value != S1_ZERO and not bruhat_leq_tableau(v, w)
        ]
        assert list(report.vanishing_violations) == expected
        assert report.vanishing_ok == (not expected)
        assert list(report.diagonal_zeros) == [
            w for k, w in enumerate(points) if values[k][k] == S1_ZERO
        ]
        return report

    def test_default_table_is_bruhat_order(self):
        # random rolldowns break triangularity, so the violations are reached
        rng = random.Random(7903)
        points = all_permutations(3)
        rolls = {w: rng.choice(points) for w in points}
        report = self.assert_matches_oracle(rolls)
        assert report.vanishing_violations and report.diagonal_zeros
        assert self.assert_matches_oracle({w: w for w in points}).passed

    def test_one_key_comparison_per_nonzero_entry(self, monkeypatch):
        # no N x N relation: bruhat_table is refused, and each nonzero entry
        # of the matrix costs one comparison of packed keys
        table = rolldown_table(single_row(6), hessenberg_334(6))
        points = sorted(table)
        nonzero = sum(
            value != S1_ZERO
            for row in p_rows([table[w] for w in points], points)
            for value in row
        )

        def refuse(*args, **kwargs):
            raise AssertionError("check_upper_triangular built a relation table")

        for module in [permutations, billey]:
            monkeypatch.setattr(module, "bruhat_table", refuse, raising=False)
        calls = []
        real = BruhatKeys.leq

        def counted(keys, kv, kw):
            calls.append((kv, kw))
            return real(keys, kv, kw)

        monkeypatch.setattr(BruhatKeys, "leq", counted)
        assert check_upper_triangular(table).passed
        assert len(calls) == nonzero > len(points)

    @pytest.mark.parametrize("n", [4, 5])
    def test_random_tables_flag_in_row_major_order(self, n):
        rng = random.Random(7900 + n)
        perms = list(all_permutations(n))
        short = [v for v in perms if inversions(v) <= 3]
        for _ in range(3):
            # the points are the sorted keys, in whatever order they come
            rng.shuffle(perms)
            report = self.assert_matches_oracle({w: rng.choice(short) for w in perms})
            assert report.vanishing_violations and report.diagonal_zeros


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
            billey._summand_counts(ideal, v, billey._column(w, None, range(n + 1)))
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
        points = all_permutations(n)
        rows = [rolls[w] for w in points]
        if words is None:
            values = list(p_rows(rows, points))
        else:
            # the theorem's route: the column stream over the given words
            values = [[S1_ZERO] * len(points) for _ in rows]
            _, columns = billey._column_stream(points, rows, [words[w] for w in points])
            for b, (_, entries) in enumerate(columns):
                for a, c in entries:
                    # each row appears once per column, and only when nonzero
                    assert c and values[a][b] == S1_ZERO, (a, b)
                    values[a][b] = S1Value(c, brute_inversions(rows[a]))
        assert len(values) == len(points)
        for v, row in zip(rows, values):
            assert len(row) == len(points)
            for w, value in zip(points, row):
                word = (words or {}).get(w, canonical_word(w))
                assert tuple(value) == oracle(v, w, word), (v, w, word)

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


class TestPRows:
    """``p_rows`` takes any rows and points, as ``sigma_rows`` does: counts
    that differ, points out of order and repeated rows."""

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_any_rows_and_points(self, n):
        rng = random.Random(7600 + n)
        perms = all_permutations(n)
        points = rng.sample(perms, len(perms) // 2)
        assert points != sorted(points)
        rows = rng.sample(perms, n + 1)
        rows += rows[:2]
        assert len(rows) != len(points)
        values = list(p_rows(iter(rows), points))
        assert len(values) == len(rows)
        nonzero = 0
        for v, row, sigma in zip(rows, values, sigma_rows(rows, points)):
            assert len(row) == len(points)
            for w, value, full in zip(points, row, sigma):
                assert value == p_restriction(v, w) == project_s1(full), (v, w)
                nonzero += value != S1_ZERO
        assert nonzero
        # a repeated row repeats its values
        assert values[-2:] == values[:2]

    def test_empty_sides(self):
        perms = all_permutations(3)
        assert list(p_rows([], perms)) == list(sigma_rows([], perms)) == []
        assert list(p_rows(perms, [])) == list(sigma_rows(perms, [])) == [()] * 6

    @pytest.mark.parametrize(
        "rows, points",
        [
            ([(1, 2, 3)], [(1, 2)]),
            ([(1, 2), (1, 2, 3)], [(1, 2, 3)]),
            ([], [(1, 2), (1, 2, 3)]),
            ([(1, 1, 3)], [(1, 2, 3)]),
            ([(1, 2, 3)], [(1, 3, 3)]),
            ([], [(2, 2, 1)]),
        ],
        ids=["row-size", "rows-sizes", "points-sizes", "bad-row", "bad-point", "bad-point-no-rows"],
    )
    def test_rejects_what_sigma_rows_rejects(self, rows, points):
        with pytest.raises(ValueError) as sigma:
            list(sigma_rows(rows, points))
        with pytest.raises(ValueError) as projected:
            list(p_rows(rows, points))
        assert str(projected.value) == str(sigma.value)


class TestFamilies:
    """Poset upper triangularity of the pinball outcome on the paper's two
    families, through ``check_upper_triangular(rolldown_table(...))``.  The
    dimension pair algorithm succeeds on both; triangularity, which makes the
    rolldown classes a module basis, holds only for some of them."""

    @pytest.mark.parametrize("n, passing, total", [(4, 12, 14), (5, 27, 42), (6, 61, 132)])
    def test_single_row(self, n, passing, total):
        hs = all_hessenberg(n)
        assert len(hs) == total
        passed = [h for h in hs if check_upper_triangular(rolldown_table(single_row(n), h)).passed]
        assert len(passed) == passing
        assert hessenberg_334(n) in passed

    @pytest.mark.parametrize(
        "n, shapes",
        [
            (4, [(4,), (3, 1), (2, 2), (1, 1, 1, 1)]),
            (5, [(5,), (4, 1), (3, 2), (1,) * 5]),
            (6, [(6,), (5, 1), (3, 3), (1,) * 6]),
        ],
    )
    def test_springer(self, n, shapes):
        h = hessenberg_identity(n)
        passed = [
            d for d in all_diagrams(n) if check_upper_triangular(rolldown_table(d, h)).passed
        ]
        assert passed == shapes


def _rolldowns_form_an_ideal(diagram, h):
    rolls = rolldown_table(diagram, h)
    return len(_weak_ideal(rolls.values()).number) == len(rolls)


class TestRolldownIdeal:
    """Conjecture: on the paper's two families, the single row with any h and
    every shape with h the identity, the rolldowns form a lower ideal of the
    right weak order, so numbering their ideal adds nothing."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_holds_on_both_families(self, n):
        cases = [(single_row(n), h) for h in all_hessenberg(n)]
        cases += [(d, hessenberg_identity(n)) for d in all_diagrams(n)]
        for diagram, h in cases:
            assert _rolldowns_form_an_ideal(diagram, h), (diagram, h)

    @pytest.mark.parametrize(
        "n, failing, total",
        [(4, 0, 70), (5, 6, 294), pytest.param(6, 150, 1452, marks=pytest.mark.slow)],
    )
    def test_fails_outside_them(self, n, failing, total):
        pairs = all_diagram_h(n)
        assert len(pairs) == total
        failed = [(d, h) for d, h in pairs if not _rolldowns_form_an_ideal(d, h)]
        assert len(failed) == failing
        assert not [(d, h) for d, h in failed if d == (n,) or h == hessenberg_identity(n)]
        if n == 5:
            assert failed[0] == ((3, 1, 1), (1, 2, 4, 5, 5))
