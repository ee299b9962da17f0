"""Acceptance suite: one test per criterion, one verdict line each.

Every criterion is checked at exact tolerance; a verdict line
"ACCEPTANCE <k> (<name>): PASS|FAIL" is printed and replayed in the
terminal summary.
"""

import itertools
import random
from contextlib import contextmanager

import pytest

from conftest import record_verdict

from hesspin.billey import sigma_restriction
from hesspin.cli import main
from hesspin.fillings import (
    dimension_pairs,
    hessenberg_334,
    hessenberg_peterson,
    is_permissible,
    omega,
    omega_word,
    reading_word,
    top_parts,
)
from hesspin.hess334 import (
    associated_subset,
    closed_form_restriction,
    fixed_points_334,
    rolldown_closed_form_word,
    simple_summand_census,
    summand_census,
)
from hesspin.permutations import (
    bruhat_leq,
    canonical_word,
    from_word,
    inversions,
)
from hesspin.pinball import fixed_points, rolldown, rolldown_word, verify_pinball
from hesspin.hess334 import verify_334_theorem

from oracles import (
    all_permutations,
    bruhat_leq_oracle,
    brute_project,
    brute_sigma,
    random_reduced_word,
)


@contextmanager
def criterion(k: int, name: str):
    try:
        yield
    except BaseException:
        line = f"ACCEPTANCE {k} ({name}): FAIL"
        record_verdict(line)
        print(line)
        raise
    line = f"ACCEPTANCE {k} ({name}): PASS"
    record_verdict(line)
    print(line)


def test_criterion_1_worked_example_regression():
    with criterion(1, "worked-example regression"):
        h5 = hessenberg_334(5)
        assert is_permissible(((2, 4, 3, 1, 5),), h5)
        assert not is_permissible(((2, 3, 4, 1, 5),), h5)

        pairs_24315 = dimension_pairs(((2, 4, 3, 1, 5),), h5)
        assert pairs_24315 == {(1, 2), (1, 3), (1, 4)}
        assert top_parts(pairs_24315, 5) == (1, 1, 1, 0)
        pairs_43215 = dimension_pairs(((4, 3, 2, 1, 5),), h5)
        assert pairs_43215 == {(1, 2), (1, 3), (2, 3), (1, 4)}
        assert top_parts(pairs_43215, 5) == (1, 2, 1, 0)

        assert omega_word((1, 1, 1, 0)) == (1, 2, 3)
        assert omega_word((1, 2, 1, 0)) == (1, 2, 1, 3)
        assert rolldown_word((4, 3, 2, 1, 5), (5,), h5) == (3, 1, 2, 1)

        h8 = hessenberg_334(8)
        examples = {
            (5, 4, 3, 2, 1, 8, 7, 6): (7, 6, 4, 3, 1, 2, 1),
            (4, 5, 3, 2, 1, 8, 7, 6): (7, 6, 4, 3, 1, 2),
            (5, 1, 4, 3, 2, 8, 7, 6): (7, 6, 4, 3, 2, 1),
        }
        for w, word in examples.items():
            assert associated_subset(w) == frozenset({1, 2, 3, 4, 6, 7})
            assert rolldown_closed_form_word(w) == word
            assert rolldown(w, (8,), h8) == from_word(8, word)

        assert not bruhat_leq(
            (3, 6, 8, 4, 7, 5, 9, 1, 2), (6, 9, 4, 2, 8, 7, 5, 3, 1)
        )
        assert reading_word(((1, 2, 3), (4, 5), (6,))) == (6, 4, 1, 5, 2, 3)


def test_criterion_2_pinball_success():
    with criterion(2, "pinball success, 334 family n=4,5,6"):
        for n in (4, 5, 6):
            report = verify_pinball((n,), hessenberg_334(n))
            assert report.injective, n
            assert report.below_fixed_point, n
            assert report.betti_matched, n
            assert report.passed, n


def test_criterion_3_module_basis_theorem():
    with criterion(3, "module basis theorem n=4,5"):
        for n in (4, 5):
            report = verify_334_theorem(n)
            by_name = {c.name: c for c in report.checks()}
            assert by_name["diagonal-nonzero"].passed, n
            assert by_name["bruhat-vanishing"].passed, n
            assert by_name["rolldown-bruhat-equivalence"].passed, n
            assert report.passed, n


def test_criterion_4_closed_form_vs_oracle():
    with criterion(4, "closed-form restrictions vs subword oracle n=4,5,6"):
        for n in (4, 5, 6):
            for w in fixed_points_334(n):
                word = canonical_word(w)
                sigma = brute_sigma(from_word(n, rolldown_closed_form_word(w)), w, word)
                assert brute_project(sigma, n) == tuple(closed_form_restriction(w)), w


def test_criterion_5_summand_lemmas():
    with criterion(5, "summand lemmas n=4,5,6"):
        for n in (4, 5, 6):
            for w in fixed_points_334(n):
                census = summand_census(w)
                assert census.passed, (w, census)
                for row in simple_summand_census(w):
                    assert row.passed, (w, row)


def test_criterion_6_peterson_cross_check():
    with criterion(6, "Peterson family cross-check n=2..7"):
        for n in range(2, 8):
            h = hessenberg_peterson(n)
            points = fixed_points((n,), h)
            assert len(points) == 2 ** (n - 1)
            for w in points:
                subset = sorted(
                    (i for i in range(1, n) if w[i - 1] == w[i] + 1),
                    reverse=True,
                )
                # one-line notation is the staircase concatenation over runs
                rebuilt = list(range(1, n + 1))
                for _, group in itertools.groupby(
                    enumerate(sorted(subset)), lambda t: t[1] - t[0]
                ):
                    run = [j for _, j in group]
                    a, b = run[0], run[-1]
                    rebuilt[a - 1 : b + 1] = range(b + 1, a - 1, -1)
                assert tuple(rebuilt) == w
                assert rolldown(w, (n,), h) == from_word(n, tuple(subset))


def test_criterion_7_core_properties():
    with criterion(7, "combinatorial core properties"):
        # omega is a bijection onto S_n with length sum(x), n <= 5
        for n in range(2, 6):
            vectors = list(itertools.product(*(range(l) for l in range(2, n + 1))))
            image = {omega(x) for x in vectors}
            assert image == set(all_permutations(n))
            for x in vectors:
                assert inversions(omega(x)) == sum(x)

        # disjoint non-adjacent supports: the second factor never matters
        for v in all_permutations(3):
            v5 = v + (4, 5)
            for u in all_permutations(3):
                assert sigma_restriction(v5, u + (4, 5)) == sigma_restriction(
                    v5, u + (5, 4)
                )

        # Bruhat keys agree with the subword property on S_4 x S_4
        for a in all_permutations(4):
            for b in all_permutations(4):
                assert bruhat_leq(a, b) == bruhat_leq_oracle(a, b)

        # word independence on random S_5 pairs
        rng = random.Random(334)
        perms = all_permutations(5)
        for _ in range(200):
            v, w = rng.choice(perms), rng.choice(perms)
            assert sigma_restriction(v, w, random_reduced_word(w, rng)) == (
                sigma_restriction(v, w)
            )


def test_criterion_8_degenerate_inputs(capsys):
    with criterion(8, "degenerate input handling"):
        assert main(["verify", "--n", "3", "--mode", "basis334"]) == 2
        assert "n >= 4" in capsys.readouterr().err

        assert main(["fillings", "--n", "4", "--h", "1,1,3,4"]) == 2
        assert "h(2)" in capsys.readouterr().err

        with pytest.raises(ValueError, match=r"adjacency 4\|1"):
            rolldown((2, 3, 4, 1), (4,), hessenberg_334(4))
