"""The 334 family h = (3, 3, 4, 5, ..., n, n) over the full flag variety.

For n >= 4 this is the smallest Hessenberg function strictly between the
Peterson function (2, 3, 4, ..., n, n) and the full flag; at n = 3 it
degenerates to the full flag itself, so everything here demands n >= 4.

Its fixed points fall into four classes, read off the attached filling
(which is the inverse one-line notation).  Peterson-type fillings are
increasing sequences of decreasing staircases; the new fillings contain a
"3 1" adjacency and come in two shapes,

    312-type:  w' 3 1 2 w''        231-type:  2 w' 3 1 w''

with w' 3 a staircase and w'' an increasing sequence of staircases.
Peterson-type points split further by whether the one-line notation
contains the string 321 (equivalently {1, 2} lies in the associated
subset), giving the classes PETERSON_NO_321, PETERSON_321, TYPE_312 and
TYPE_231.

Every class carries closed forms: a catalog reduced word built from
staircase factors, a rolldown word, the one-line prefix of the rolldown,
and the circle-projected restriction of the rolldown class at its own
fixed point.  ``verify_334_theorem`` recomputes all of them from the
dimension-pair definitions, computes the restriction matrix, and checks
the poset upper triangularity that makes the rolldown classes a module
basis, together with the supporting Bruhat-order lemmas.  The rolldowns it
checks are the ones its pinball checks passed: each (point, rolldown) is
decoded from the record that ``pinball._report`` keeps for the point in
the one enumeration pass.  One private record per point holds its class,
subset, runs, catalog word and closed-form rolldown, built by one
constructor that checks the point's filling is permissible, reads its
class and associated subset, and rebuilds the point from that subset with
the class's named constructor (w_A, u_A or v_A); a point that does not
come back as itself is an internal error.  So each class has one
definition, its constructor, and ``classify`` is that record's class.  The
theorem builds the record once per point, and the public per-point
functions build it for their one point.
The Bruhat-order lemmas read the relation as bitmasks over the points
(``permutations.bruhat_table``), one stream read once, each point's row
and its rolldown's in pairs, with masks built once per run: one per class,
one per j of the points whose subset holds j, and H1 thresholds over the
312-type points.  The five lemmas on pairs are one loop over the points, a
few big-int operations per point, and a lemma's witnesses are the set bits
of the masks where it fails.

The summand census counts the subword summands of a catalog word by
``billey``'s backward pass over it from the rolldown rather than
enumerating the subwords, so ``SummandCensus.summands`` lists them by
ascending coefficient.  ``verify_334_theorem`` makes one pass over the
points on ``billey``'s column stream, which numbers the rolldowns'
weak-order ideal once and builds each catalog word's column once.  Each
column serves both censuses and, through ``billey``'s one triangularity
pass on packed Bruhat keys, the diagonal and vanishing checks, so the
theorem holds neither a matrix nor a row of the relation.  One point's
``summand_census`` goes through ``billey.p_summand_counts``, which
numbers only the part of the ideal its pass reaches.
"""

from __future__ import annotations

import enum
import itertools
import math
import struct
from typing import Iterable, NamedTuple, Optional, Sequence

from .billey import (
    S1_ZERO,
    S1Value,
    _column,
    _column_stream,
    _summand_counts,
    _Triangularity,
    p_summand_counts,
)
from .fillings import (
    _describe,
    _violation,
    hessenberg_334,
    single_row,
)
from .permutations import (
    Perm,
    Word,
    bruhat_table,
    from_word,
    inverse,
    inversions,
    set_bits,
    simple,
    validate,
)
from .pinball import (
    CheckResult,
    PinballReport,
    _report,
    fixed_points,
)

__all__ = [
    "FixedPointClass",
    "fixed_points_334",
    "has_321_string",
    "classify",
    "associated_subset",
    "consecutive_substrings",
    "peterson_fixed_point",
    "type_312_fixed_point",
    "type_231_fixed_point",
    "catalog_reduced_word",
    "rolldown_closed_form_word",
    "rolldown_closed_form",
    "closed_form_restriction",
    "SummandCensus",
    "summand_census",
    "SimpleSummandRow",
    "simple_summand_census",
    "Theorem334Report",
    "verify_334_theorem",
]


class FixedPointClass(enum.Enum):
    PETERSON_NO_321 = "peterson-no-321"
    PETERSON_321 = "peterson-321"
    TYPE_312 = "312"
    TYPE_231 = "231"


_NON_PETERSON = {FixedPointClass.TYPE_312, FixedPointClass.TYPE_231}


def fixed_points_334(n: int) -> tuple[Perm, ...]:
    """All 334-type fixed points of S_n, sorted by one-line notation."""
    return fixed_points(single_row(n), hessenberg_334(n))


def has_321_string(w: Perm) -> bool:
    """Whether the one-line notation contains 3, 2, 1 consecutively."""
    return any(w[i : i + 3] == (3, 2, 1) for i in range(len(w) - 2))


def classify(w: Perm) -> FixedPointClass:
    """The class of a 334-type fixed point, read off its filling.

    No "3 1" adjacency in the filling means Peterson type (split by the 321
    string), otherwise the position of the adjacency separates 312-type
    from 231-type.  The point is then rebuilt from its associated subset by
    that class's constructor, and must come out as itself.
    """
    return _point(w).cls


def associated_subset(w: Perm) -> frozenset[int]:
    """The associated subset of {1, ..., n-1} attached to a fixed point.

    Peterson points read descents-by-one directly; 312-type points first
    swap their leading pair (w s_1), and 231-type points shuffle the 1
    back with w s_2 s_3 ... s_{a_2}, landing on a Peterson point each time.
    """
    return _point(w).subset


# maximal consecutive runs [a, b] of a subset, ascending; for every class
# but PETERSON_NO_321 the subset holds {1, 2}, so runs[0] is [1, H1]
Runs = tuple[tuple[int, int], ...]


def consecutive_substrings(subset: frozenset[int]) -> Runs:
    """Decomposition into maximal consecutive runs [a, b], ascending.

    >>> consecutive_substrings(frozenset({1, 2, 3, 5, 6, 9, 10, 11}))
    ((1, 3), (5, 6), (9, 11))
    """
    runs: list[list[int]] = []
    for j in sorted(subset):
        if runs and j == runs[-1][1] + 1:
            runs[-1][1] = j
        else:
            runs.append([j, j])
    return tuple((a, b) for a, b in runs)


# ---------------------------------------------------------------------------
# Named fixed points for a given associated subset


def _check_subset(subset, n: int) -> frozenset[int]:
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    s = frozenset(subset)
    if not all(isinstance(j, int) and 1 <= j <= n - 1 for j in s):
        raise ValueError(f"subset {sorted(s)} is not inside 1..{n - 1}")
    return s


def _named(cls: FixedPointClass, runs: Runs, n: int) -> Optional[Perm]:
    # w_A, one block per run; the 312 and 231 classes rewrite its leading
    # block [1, H1], and without a leading run [1, H1], H1 >= 2, they give None
    out = list(range(1, n + 1))
    for a, b in runs:
        out[a - 1 : b + 1] = range(b + 1, a - 1, -1)
    if cls in _NON_PETERSON:
        if not runs or runs[0][0] != 1 or runs[0][1] < 2:
            return None
        a2 = runs[0][1]
        if cls is FixedPointClass.TYPE_312:
            out[: a2 + 1] = [a2, a2 + 1, *range(a2 - 1, 0, -1)]
        else:
            out[: a2 + 1] = [a2 + 1, 1, *range(a2, 1, -1)]
    return tuple(out)


def _named_point(cls: FixedPointClass, subset, n: int) -> Perm:
    s = _check_subset(subset, n)
    w = _named(cls, consecutive_substrings(s), n)
    if w is None:
        raise ValueError(f"subset {sorted(s)} must contain {{1, 2}}")
    return w


def peterson_fixed_point(subset, n: int) -> Perm:
    """w_A: the longest element of the parabolic S_A, one block per run.

    >>> peterson_fixed_point({1, 2, 3, 4, 6, 7}, 8)
    (5, 4, 3, 2, 1, 8, 7, 6)
    """
    return _named_point(FixedPointClass.PETERSON_NO_321, subset, n)


def type_312_fixed_point(subset, n: int) -> Perm:
    """u_A: leading block a2, a2+1, a2-1, ..., 1, Peterson blocks after.

    >>> type_312_fixed_point({1, 2, 3, 5, 6}, 8)
    (3, 4, 2, 1, 7, 6, 5, 8)
    """
    return _named_point(FixedPointClass.TYPE_312, subset, n)


def type_231_fixed_point(subset, n: int) -> Perm:
    """v_A: leading block a2+1, 1, a2, ..., 2, Peterson blocks after.

    >>> type_231_fixed_point({1, 2, 3, 5, 6}, 8)
    (4, 1, 3, 2, 7, 6, 5, 8)
    """
    return _named_point(FixedPointClass.TYPE_231, subset, n)


# ---------------------------------------------------------------------------
# Catalog words, rolldowns and restrictions in closed form


class _Point(NamedTuple):
    """A 334-type fixed point with every fact the checks read about it."""

    w: Perm
    cls: FixedPointClass
    subset: frozenset[int]
    runs: Runs
    word: Word  # the catalog reduced word
    roll: Perm  # the rolldown, from the class closed form


def _point(w: Perm) -> _Point:
    # the one place a point is classified and its facts derived
    w = validate(w)
    n = len(w)
    if n < 4:
        raise ValueError(f"334-type fixed points need n >= 4, got n = {n}")
    f = inverse(w)
    filling, h = (f,), hessenberg_334(n)
    hit = _violation(filling, h)
    if hit is not None:
        raise ValueError(f"{w} is not a 334-type fixed point: {_describe(hit, h)}")
    # the associated subset: move to a Peterson point, read its descents by one
    cur = list(w)
    if not any(f[k] == 3 and f[k + 1] == 1 for k in range(n - 1)):
        cls = (
            FixedPointClass.PETERSON_321
            if has_321_string(w)
            else FixedPointClass.PETERSON_NO_321
        )
    elif f[0] == 2:
        cls = FixedPointClass.TYPE_231
        for i in range(2, w[0]):
            cur[i - 1], cur[i] = cur[i], cur[i - 1]
    else:
        cls = FixedPointClass.TYPE_312
        cur[0], cur[1] = cur[1], cur[0]
    subset = frozenset(i for i in range(1, n) if cur[i - 1] == cur[i] + 1)
    runs = consecutive_substrings(subset)
    if _named(cls, runs, n) != w:
        raise RuntimeError(f"unclassifiable {cls.value}-like filling {f}")
    roll = from_word(n, _rolldown_word(cls, subset))
    return _Point(w, cls, subset, runs, _catalog_word(w, cls, runs), roll)


def _block_word(a: int, b: int) -> list[int]:
    # s_a (s_{a+1} s_a) ... (s_b ... s_a), the standard word for w_{[a, b]}
    word: list[int] = []
    for k in range(a, b + 1):
        word.extend(range(k, a - 1, -1))
    return word


def catalog_reduced_word(w: Perm) -> Word:
    """The class-specific reduced word the restriction recurrences run over.

    Peterson points take the standard staircase word per run.  The 312
    (respectively 231) points replace the leading run's word by the same
    staircase pattern with the last factor stopping at s_2 (respectively
    starting its factors at s_2 and letting only the last one reach s_1).

    >>> catalog_reduced_word((4, 3, 2, 1, 7, 6, 5))
    (1, 2, 1, 3, 2, 1, 5, 6, 5)
    >>> catalog_reduced_word((3, 4, 2, 1, 7, 6, 5))
    (1, 2, 1, 3, 2, 5, 6, 5)
    >>> catalog_reduced_word((4, 1, 3, 2, 7, 6, 5))
    (2, 3, 2, 1, 5, 6, 5)
    """
    return _point(w).word


def _catalog_word(w: Perm, cls: FixedPointClass, runs: Runs) -> Word:
    n = len(w)
    if cls in _NON_PETERSON:
        a2 = runs[0][1]
        if cls is FixedPointClass.TYPE_312:
            word = _block_word(1, a2 - 1) + list(range(a2, 1, -1))
        else:
            word = _block_word(2, a2 - 1) + list(range(a2, 0, -1))
        rest = runs[1:]
    else:
        word, rest = [], runs
    for a, b in rest:
        word.extend(_block_word(a, b))
    out = tuple(word)
    if len(out) != inversions(w) or from_word(n, out) != w:
        raise RuntimeError(f"catalog word {out} failed validation for {w}")
    return out


def rolldown_closed_form_word(w: Perm) -> Word:
    """The class closed form: descending s_j for j in A, class-specific tail."""
    p = _point(w)
    return _rolldown_word(p.cls, p.subset)


def _rolldown_word(cls: FixedPointClass, subset: frozenset[int]) -> Word:
    js = sorted(subset)
    if cls is FixedPointClass.PETERSON_NO_321:
        return tuple(reversed(js))
    lead = tuple(reversed(js[2:]))
    if cls is FixedPointClass.PETERSON_321:
        return lead + (1, 2, 1)
    if cls is FixedPointClass.TYPE_312:
        return lead + (1, 2)
    return lead + (2, 1)


def rolldown_closed_form(w: Perm) -> Perm:
    """The rolldown of a 334-type fixed point, from the class closed form.

    >>> rolldown_closed_form((5, 4, 3, 2, 1, 8, 7, 6))
    (5, 2, 1, 3, 4, 8, 6, 7)
    """
    return _point(w).roll


def closed_form_restriction(w: Perm) -> S1Value:
    """The projected restriction of the rolldown class at w, in closed form.

    Writing T(i) for the smallest element of i's run in the associated
    subset and H1 for the largest element of the leading run:

      PETERSON_NO_321   prod (i - T(i) + 1)             t^|A|
      PETERSON_321      (H1 - 1) prod (i - T(i) + 1)    t^(|A| + 1)
      TYPE_312          (H1 - 1) prod (i - T(i) + 1)    t^|A|
      TYPE_231          H1 * (H1 - 1)! *
                        prod over later runs (i - T(i) + 1) t^|A|

    >>> closed_form_restriction((5, 4, 3, 2, 1, 8, 7, 6))
    S1Value(coeff=144, degree=7)
    """
    return _closed_form(_point(w))


def _closed_form(p: _Point) -> S1Value:
    # prod (i - T(i) + 1) over a run [a, b] is (b - a + 1)!, and for TYPE_231
    # the leading run [1, H1] gives H1 * (H1 - 1)! = H1!
    size = sum(b - a + 1 for a, b in p.runs)
    coeff = math.prod(math.factorial(b - a + 1) for a, b in p.runs)
    if p.cls in (FixedPointClass.PETERSON_NO_321, FixedPointClass.TYPE_231):
        return S1Value(coeff, size)
    coeff *= p.runs[0][1] - 1
    degree = size + 1 if p.cls is FixedPointClass.PETERSON_321 else size
    return S1Value(coeff, degree)


# ---------------------------------------------------------------------------
# Summand censuses over catalog words


class SummandCensus(NamedTuple):
    """Summand structure of the rolldown class restricted to its own point.

    ``summands`` lists one projected summand per reduced subword of the
    catalog word, in ascending order of coefficient.
    """

    point: Perm
    cls: FixedPointClass
    summands: tuple[S1Value, ...]
    expected_count: int
    closed_form: S1Value

    @property
    def count(self) -> int:
        return len(self.summands)

    @property
    def common(self) -> Optional[S1Value]:
        return self.summands[0] if len(set(self.summands)) == 1 else None

    @property
    def total(self) -> S1Value:
        coeff = sum(s.coeff for s in self.summands)
        return S1Value(coeff, self.summands[0].degree) if coeff else S1_ZERO

    @property
    def passed(self) -> bool:
        return (
            self.count == self.expected_count
            and self.common is not None
            and self.total == self.closed_form
        )


def summand_census(w: Perm) -> SummandCensus:
    """The subword summands of the rolldown restriction at w.

    The count must be H1 - 1 for PETERSON_321 and TYPE_312 points and 1
    for the other two classes, and all summands must agree.  The summands
    of the catalog word are counted by one backward pass over it from the
    rolldown (``billey.p_summand_counts``), not enumerated subword by
    subword.
    """
    p = _point(w)
    return _census(p, p_summand_counts(p.roll, p.w, p.word))


def _census(p: _Point, counts: dict[S1Value, int]) -> SummandCensus:
    # the census of p from the summand multiset of its catalog word
    if p.cls in (FixedPointClass.PETERSON_321, FixedPointClass.TYPE_312):
        expected = p.runs[0][1] - 1
    else:
        expected = 1
    return SummandCensus(
        point=p.w,
        cls=p.cls,
        summands=tuple(s for s, count in counts.items() for _ in range(count)),
        expected_count=expected,
        closed_form=_closed_form(p),
    )


class SimpleSummandRow(NamedTuple):
    """Summands of one simple-reflection class restriction p_{s_i}(w)."""

    index: int
    in_subset: bool
    summands: tuple[int, ...]
    expected: Optional[int]

    @property
    def passed(self) -> bool:
        if not self.in_subset:
            return not self.summands
        return bool(self.summands) and all(
            s == self.expected for s in self.summands
        )


def simple_summand_census(w: Perm) -> tuple[SimpleSummandRow, ...]:
    """Summands of p_{s_i}(w) over the catalog word, for every i.

    Indices outside the associated subset contribute nothing.  Inside it
    every summand equals (i - T(i) + 1) t, except on a 231-type leading
    run where i = 1 gives H1 t and 2 <= i <= H1 gives (i - 1) t.
    """
    p = _point(w)
    return _simple_rows(p, _column(p.w, p.word, range(len(p.w) + 1)))


def _simple_rows(
    p: _Point, column: Sequence[tuple[int, int, int, int]]
) -> tuple[SimpleSummandRow, ...]:
    # the summands of p_{s_i}(p.w) are the weights upper - lower of the
    # letters i in p's column of projected weights, in word order
    n = len(p.w)
    weights: list[list[int]] = [[] for _ in range(n)]
    for _, i, lower, upper in reversed(column):
        weights[i].append(upper - lower)
    # T(i) for each i of the subset
    tails = {i: a for a, b in p.runs for i in range(a, b + 1)}
    h1 = p.runs[0][1] if p.cls is FixedPointClass.TYPE_231 else 0
    rows = []
    for i in range(1, n):
        if i not in tails:
            expected = None
        elif i == 1 and h1:
            expected = h1
        elif i <= h1:
            expected = i - 1
        else:
            expected = i - tails[i] + 1
        rows.append(
            SimpleSummandRow(
                index=i, in_subset=i in tails, summands=tuple(weights[i]), expected=expected
            )
        )
    return tuple(rows)


# ---------------------------------------------------------------------------
# The module basis theorem


class Theorem334Report(NamedTuple):
    """Everything verify_334_theorem measured, with per-check witnesses."""

    n: int
    points: tuple[Perm, ...]
    classes: tuple[FixedPointClass, ...]
    pinball: PinballReport
    structural: tuple[CheckResult, ...]

    def checks(self) -> tuple[CheckResult, ...]:
        return self.pinball.checks() + self.structural

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks())


def verify_334_theorem(n: int) -> Theorem334Report:
    """Recheck the 334 module-basis theorem exhaustively for one n.

    Builds every fixed point, compares pinball rolldowns against the class
    closed forms, computes the projected restriction matrix over catalog
    words one column at a time, and tests poset upper triangularity (an
    entry (v, w) with v not below w must vanish) plus the supporting
    Bruhat-order lemmas and summand censuses.
    """
    if n < 4:
        raise ValueError(
            f"the 334 module basis needs n >= 4 (n = 3 is the full flag); got {n}"
        )
    pin, buckets = _report(single_row(n), hessenberg_334(n))
    # (point, rolldown) = (u^{-1}, o^{-1}) of each (o, u) record that the
    # pinball checks read, one byte an entry, sorted by point; the records
    # are dropped before the matrix pass
    record = struct.Struct(f"{n}s{n}s")
    table = sorted(
        (inverse(u), inverse(o))
        for records in buckets
        for o, u in record.iter_unpack(records)
    )
    del buckets
    # each point's facts, derived once; every check below reads them
    facts = [_point(w) for w, _ in table]
    points = tuple(p.w for p in facts)
    rolls = tuple(r for _, r in table)

    # One pass over the points, on the rolldowns' weak-order ideal: each
    # point's column is built once, for its column of the matrix (every
    # entry computed, none skipped by Bruhat order), which the triangularity
    # pass tests against the points' packed Bruhat keys, and for both censuses
    ideal, columns = _column_stream(points, rolls, [p.word for p in facts])
    triangle = _Triangularity(points, rolls)
    closed_fails, prefix_fails, diagonal_fails, census_fails, wrong_rows = [], [], [], [], []
    for p, roll, (column, value) in zip(facts, rolls, triangle.diagonals(columns)):
        if roll != p.roll:
            closed_fails.append((p.w, roll, p.roll))
        if p.cls is not FixedPointClass.PETERSON_NO_321:
            a2 = p.runs[0][1]
            if p.cls is FixedPointClass.PETERSON_321:
                head = (a2 + 1, 2, 1)
            elif p.cls is FixedPointClass.TYPE_312:
                head = (2, a2 + 1, 1)
            else:
                head = (a2 + 1, 1, 2)
            head += tuple(range(3, a2 + 1))
            if roll[: a2 + 1] != head:
                prefix_fails.append((p.w, roll, head))
        if value != (expect := _closed_form(p)):
            diagonal_fails.append((p.w, value, expect))
        # the census restricts the row's rolldown, which the ideal holds; it
        # equals the closed form p.roll wherever rolldown-closed-form passes
        if not _census(p, _summand_counts(ideal, roll, column)).passed:
            census_fails.append(p.w)
        wrong_rows += [(p.w, r.index) for r in _simple_rows(p, column) if not r.passed]

    triangular = triangle.report()
    # The lemmas' relation, one table over the points read as a stream: the
    # simple reflections' rows, then each point's and its rolldown's, read
    # in pairs off the one iterator
    simples = tuple(simple(i, n) for i in range(1, n))
    rows = bruhat_table(simples + tuple(itertools.chain(*zip(points, rolls))), points)
    simple_below = tuple(itertools.islice(rows, n - 1))
    checks = [
        ("rolldown-closed-form", closed_fails),
        ("rolldown-one-line-prefix", prefix_fails),
        ("diagonal-nonzero", triangular.diagonal_zeros),
        ("bruhat-vanishing", triangular.vanishing_violations),
        ("closed-form-diagonal", diagonal_fails),
        *_bruhat_sweeps(facts, zip(rows, rows), simple_below, bruhat_table(simples, rolls)),
        ("summand-census", census_fails),
        ("simple-summand-values", wrong_rows),
    ]
    return Theorem334Report(
        n=n,
        points=points,
        classes=tuple(p.cls for p in facts),
        pinball=pin,
        structural=tuple(CheckResult(name, not f, tuple(f)) for name, f in checks),
    )


def _bruhat_sweeps(
    facts: Sequence[_Point],
    rows: Iterable[tuple[int, int]],
    simple_below: Sequence[int],
    simple_below_roll: Iterable[int],
) -> tuple[tuple[str, tuple], ...]:
    """The theorem's six Bruhat-order lemmas, as (name, witnesses) pairs.

    Writing points[a] for facts[a].w, ``rows`` yields one pair (below[a],
    roll_below[a]) per point: bit b of below[a] is set when points[a] <=
    points[b], and of roll_below[a] when the rolldown of points[a] is below
    points[b]; bit a of simple_below[i - 1] (simple_below_roll[i - 1]) is
    set when s_i <= points[a] (its rolldown), as ``bruhat_table`` gives
    them.  Every row is read once, in order.  The
    five pair lemmas are one loop over the points, each taking a few big-int
    operations per point on masks over the points: one per class, one per j
    of the points whose subset holds j, and the points whose subset contains
    points[a]'s, built as the loop reaches a.  Witnesses are read off
    nonzero difference masks, lowest bit first, so each lemma's come out in
    the order of a loop over all pairs (a, b).
    """
    no_321, with_321 = FixedPointClass.PETERSON_NO_321, FixedPointClass.PETERSON_321
    t312, t231 = FixedPointClass.TYPE_312, FixedPointClass.TYPE_231
    n = len(simple_below) + 1
    points = [p.w for p in facts]
    full = (1 << len(points)) - 1
    of_class = dict.fromkeys(FixedPointClass, 0)
    # holding[j]: the points whose subset contains j
    holding = [0] * n
    for a, p in enumerate(facts):
        of_class[p.cls] |= 1 << a
        for j in p.subset:
            holding[j] |= 1 << a
    # at_least[t]: the 312-type points with H1 >= t
    at_least = [0] * (n + 1)
    for b in set_bits(of_class[t312]):
        at_least[facts[b].runs[0][1]] |= 1 << b
    for t in range(n - 1, -1, -1):
        at_least[t] |= at_least[t + 1]
    peterson = of_class[no_321] | of_class[with_321]
    # per class of points[a], the classes of points[b] each check reads
    qualifying = {
        no_321: full,
        with_321: peterson,
        t312: peterson | of_class[t312],
        t231: peterson | of_class[t231],
    }
    forbidden = {
        no_321: 0,
        with_321: of_class[no_321] | of_class[t231],
        t312: of_class[no_321] | of_class[t231],
        t231: of_class[no_321],
    }

    fixed = [m ^ holding[i] for i, m in enumerate(simple_below, 1)]
    rolled = [m ^ holding[i] for i, m in enumerate(simple_below_roll, 1)]
    missed = 0
    for mask in fixed + rolled:
        missed |= mask
    member = []
    for a in set_bits(missed):
        for i, (f, r) in enumerate(zip(fixed, rolled), 1):
            if f >> a & 1:
                member.append((points[a], i, "fixed-point"))
            if r >> a & 1:
                member.append((points[a], i, "rolldown"))

    equivalence, monotonicity, containment, relations, segment = found = ([], [], [], [], [])
    for p, (x, y) in zip(facts, rows):
        # sup: the points whose subset contains p's
        sup = full
        for j in p.subset:
            sup &= holding[j]
        r = x | y
        failed = (
            x ^ y,
            r & ~sup,
            qualifying[p.cls] & (x ^ sup),
            forbidden[p.cls] & r,
            of_class[t312] & (x ^ (sup & at_least[p.runs[0][1] + 1]))
            if p.cls is with_321 or p.cls is t231
            else 0,
        )
        for pairs, mask in zip(found, failed):
            if mask:
                pairs += ((p.w, points[b]) for b in set_bits(mask))
    return (
        ("rolldown-bruhat-equivalence", tuple(equivalence)),
        ("simple-reflection-membership", tuple(member)),
        ("subset-monotonicity", tuple(monotonicity)),
        ("containment-criterion", tuple(containment)),
        ("forbidden-relations", tuple(relations)),
        ("initial-segment-criterion", tuple(segment)),
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
