"""Restrictions of equivariant Schubert classes to permutation fixed points.

Everything here is exact: polynomials in t_1..t_n keep arbitrary-precision
integer coefficients in a sparse exponent-tuple map, and the rank-one
projection returns an exact (coefficient, degree) pair.

The restriction of the class of v to the fixed point w is a sum over the
reduced subwords of a reduced word b for w that multiply to v; the subword
occupying positions j_1 < ... < j_k contributes the product of the roots
``r(j, b) = s_{b_1} ... s_{b_{j-1}} (t_{b_j} - t_{b_j + 1})``.  The value
does not depend on the choice of b.

>>> sigma_restriction((2, 1, 3), (3, 2, 1))
t1 - t3
>>> project_s1(sigma_restriction((2, 1, 3), (3, 2, 1)))
S1Value(coeff=2, degree=1)

The projection sends t_i to (n + 1 - i) t, the weight ladder of the circle
inside the diagonal torus; a root t_l - t_k lands on (k - l) t.

Nothing here enumerates subwords.  Single restriction values come from
one backward pass over b from v down to the identity (``_backward``),
stepping numbered states of the right weak-order ideal below v
(``_Ideal``), so a step is a list lookup; its callers differ only in the
value a state carries and how a move updates it.  ``sigma_restriction``
and ``sigma_rows`` carry polynomials as maps from packed monomials to
coefficients.  ``p_summand_counts`` carries {weight: count} multisets of
projected root products, counting how many subwords give each summand,
and ``p_restriction`` sums that multiset.  The pass reads its letters from
the column's root table (``_root_table``: each letter's descent steps and
the units of its root).  A table numbers the whole ideal of its rows once
(``_weak_ideal``): ``sigma_rows`` also derives, checks and tabulates each
column's word once, and one decoder per table (``_decoder``) unpacks each
distinct monomial once and builds each ``Polynomial`` without re-checking
it.  A single entry numbers only the states its pass reaches, looking up
each step when the pass first takes it.  ``restriction_matrix`` fills each
column from one prefix recurrence over the column's word, keeping only
partial products inside the rows' ideal.  It stores each row sparsely,
as a bitmask of its nonzero columns and their coefficients, and
``check_upper_triangular`` reads violations off those masks against the
row masks of ``permutations.bruhat_table``.  No restriction consults
Bruhat keys, and the ideal depends only on the rows, so checking their
vanishing against Bruhat order is not a tautology.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .permutations import (
    Perm,
    Word,
    bruhat_table,
    canonical_word,
    from_word,
    identity,
    inversions,
    set_bits,
    validate,
)

__all__ = [
    "Polynomial",
    "Root",
    "S1Value",
    "S1_ZERO",
    "roots_along_word",
    "sigma_restriction",
    "sigma_rows",
    "project_s1",
    "p_restriction",
    "p_summand_counts",
    "RestrictionMatrix",
    "restriction_matrix",
    "TriangularReport",
    "check_upper_triangular",
]


class Polynomial:
    """Sparse integer polynomial in t_1..t_nvars.

    Terms map exponent tuples to nonzero coefficients; the zero polynomial
    has no terms.  A polynomial here is a value to read, not to compute
    with: the restriction passes multiply packed monomials, and nothing in
    the package does arithmetic on a ``Polynomial``.

    >>> Polynomial(3, {(2, 0, 0): 1, (1, 1, 0): 1, (0, 2, 0): -2, (0, 0, 1): 0})
    t1^2 + t1*t2 - 2*t2^2
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Optional[Mapping[tuple[int, ...], int]] = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], int] = {}
        if terms:
            for exps, coeff in terms.items():
                exps = tuple(exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} is not length {nvars}")
                if coeff:
                    clean[exps] = clean.get(exps, 0) + coeff
        self.terms = {e: c for e, c in clean.items() if c}

    @classmethod
    def _trusted(cls, nvars: int, terms: dict[tuple[int, ...], int]) -> "Polynomial":
        # terms already map exponent tuples of length nvars to nonzero
        # coefficients, so __init__'s checks are skipped
        p = cls.__new__(cls)
        p.nvars = nvars
        p.terms = terms
        return p

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial(self.nvars, {(0,) * self.nvars: other})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def is_homogeneous(self) -> bool:
        return len({sum(e) for e in self.terms}) <= 1

    def sorted_terms(self) -> list[tuple[tuple[int, ...], int]]:
        """Terms in a fixed order (descending lex on exponents)."""
        return sorted(self.terms.items(), reverse=True)

    def __repr__(self) -> str:
        return _polynomial_text(self.sorted_terms())


def _monomial(exps: tuple[int, ...]) -> str:
    """The variable names of a monomial, ``t3^2*t5``; empty for 1."""
    return "*".join(
        f"t{i}^{e}" if e > 1 else f"t{i}" for i, e in enumerate(exps, 1) if e
    )


def _polynomial_text(terms, monomial=_monomial) -> str:
    """The ``repr`` of a polynomial from its ``sorted_terms()``, each term's
    variable names written by ``monomial(exps)``, which the CLI looks up in
    a table of the texts it has made."""
    parts = []
    for exps, coeff in terms:
        names, mag = monomial(exps), abs(coeff)
        body = f"{mag}*{names}" if mag != 1 and names else names or str(mag)
        parts.append((" - " if coeff < 0 else " + ") + body)
    if not parts:
        return "0"
    text = "".join(parts)
    return "-" + text[3:] if text[1] == "-" else text[3:]


class Root(NamedTuple):
    """The linear form t_lower - t_upper."""

    lower: int
    upper: int

    def s1(self) -> int:
        """Coefficient of t after the projection t_i -> (n + 1 - i) t."""
        return self.upper - self.lower


class S1Value(NamedTuple):
    """An exact multiple of a power of t: coeff * t^degree."""

    coeff: int
    degree: int


S1_ZERO = S1Value(0, 0)


def roots_along_word(b: Word, n: int) -> tuple[Root, ...]:
    """All roots r(j, b) for j = 1..len(b), via running prefix products."""
    prefix = list(identity(n))
    roots = []
    for i in b:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range for S_{n}")
        roots.append(Root(prefix[i - 1], prefix[i]))
        # extend the prefix: right multiplication swaps entries i, i+1
        prefix[i - 1], prefix[i] = prefix[i], prefix[i - 1]
    return tuple(roots)


def _checked_word(w: Perm, word: Optional[Sequence[int]]) -> Word:
    n = len(w)
    b = tuple(word) if word is not None else canonical_word(w)
    if len(b) != inversions(w) or from_word(n, b) != w:
        raise ValueError(f"{b} is not a reduced word for {w}")
    return b


def sigma_restriction(v: Perm, w: Perm, word: Optional[Sequence[int]] = None) -> Polynomial:
    """The full-torus restriction of v's class at w, in t_1..t_n.

    Zero exactly when v is not below w in Bruhat order.  Independent of the
    reduced word b chosen for w, which may be supplied; the canonical word
    is used otherwise.

    One backward pass over b (``_backward``).  After letters b_m..b_j, each
    state x maps to the summed root products of the reduced subwords of
    b_j..b_m that multiply x up to v; it starts as {v: 1}.  Letter j adds
    x * s_{b_j} for every x with a descent at b_j, times r(j, b), and the
    answer is the identity's value.  A step goes down in the right weak
    order, so every state lies in the weak-order ideal of v (``_Ideal``);
    a step is a lookup in its descent table.  States longer than the
    letters left are dropped, and zero coefficients are not carried.  The
    pass reads each letter's descent table and root from the column's root
    table (``_root_table``), whose roots come from the prefix
    w s_{b_m} ... s_{b_j} = s_{b_1} ... s_{b_{j-1}}, one swap per letter.

    Values map packed monomials to coefficients: t_a's exponent sits in
    the a-th field from the top, so integer order is exponent-tuple lex
    order and t_lower - t_upper multiplies a term by two additions.  A
    summand multiplies distinct roots, at most n - 1 of which involve t_a,
    so a field of (n - 1).bit_length() bits never carries.

    The ideal of v is numbered only as far as the pass reaches: a step is
    looked up when the pass first takes it.  Callers wanting many entries
    should still use ``sigma_rows``, which numbers one ideal and tabulates
    each column once for a whole table.
    """
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    v = validate(v)
    b = _checked_word(w, word)
    n = len(w)
    ideal = _Ideal([v])
    roots = _root_table(ideal, w, b, _packed_units(n))
    return _decoder(n)(_backward(ideal, v, roots, {0: 1}, _times_root))


def sigma_rows(rows: Iterable[Perm], points: Sequence[Perm]) -> Iterator[tuple[Polynomial, ...]]:
    """``sigma_restriction(v, w)`` for every w in ``points``, one row v at a time.

    The rows are read and checked up front, and their weak-order ideal is
    numbered once for the whole table.  Each point's canonical word is
    derived and checked once, and its root table (``_root_table``) built
    once beside it, instead of once per entry.  Each row's values are
    computed when it is asked for, so a caller can stream them; one
    decoder (``_decoder``) turns every packed value of the table into a
    ``Polynomial``, unpacking each distinct monomial once.
    """
    rows = [validate(v) for v in rows]
    sizes = sorted({len(p) for p in [*rows, *points]})
    if len(sizes) > 1:
        raise ValueError(f"size mismatch among rows and points: {sizes}")
    words = [_checked_word(w, None) for w in points]
    if not rows:
        # nothing to restrict; the points' words are checked all the same
        return
    ideal = _weak_ideal(rows)
    unit = _packed_units(sizes[0])
    tables = [_root_table(ideal, w, b, unit) for w, b in zip(points, words)]
    decode = _decoder(sizes[0])
    for v in rows:
        yield tuple(decode(_backward(ideal, v, roots, {0: 1}, _times_root)) for roots in tables)


class _Ideal:
    """A lower ideal of the right weak order, numbered as it is stepped.

    x * s_i is below x exactly when x has a descent at i, so the ideal is
    what descent steps reach from its tops.  ``number`` numbers its
    permutations in the order found and ``elements`` lists them;
    ``length[k]`` is the length of permutation k.  ``down[i][k]`` is the
    number of permutation k times s_i when that is shorter, -1 when it is
    longer, and -2 until ``step`` first looks it up.  ``bottom`` is the
    identity's number, -1 while the identity is not numbered.
    """

    __slots__ = ("number", "elements", "length", "down", "bottom")

    def __init__(self, tops: Iterable[Perm]):
        tops = list(dict.fromkeys(tops))
        self.number: dict[Perm, int] = {}
        self.elements: list[Perm] = []
        self.length: list[int] = []
        # down[0] is never stepped and stays empty
        self.down: list[list[int]] = [[] for _ in range(len(tops[0]) if tops else 1)]
        self.bottom = -1
        for v in tops:
            self._add(v, inversions(v))

    def _add(self, x: Perm, length: int) -> int:
        k = self.number[x] = len(self.elements)
        self.elements.append(x)
        self.length.append(length)
        down = self.down
        for i in range(1, len(down)):
            down[i].append(-2)
        if not length:
            self.bottom = k
        return k

    def step(self, k: int, i: int) -> int:
        """``down[i][k]``, numbering the product when it is new."""
        x = self.elements[k]
        child = -1
        if x[i - 1] > x[i]:
            y = x[: i - 1] + (x[i], x[i - 1]) + x[i + 1 :]
            child = self.number.get(y)
            if child is None:
                child = self._add(y, self.length[k] - 1)
        self.down[i][k] = child
        return child


def _weak_ideal(tops: Iterable[Perm]) -> _Ideal:
    """Every permutation at or below one of ``tops`` in the right weak order.

    Every step of every permutation is looked up, in the order the
    permutations were numbered; a permutation's length is its parent's
    less one, and no Bruhat keys are compared.

    >>> sorted(_weak_ideal([(2, 3, 1)]).number)
    [(1, 2, 3), (2, 1, 3), (2, 3, 1)]
    """
    ideal = _Ideal(tops)
    letters = range(1, len(ideal.down))
    # elements grows as the loop numbers new permutations
    for k, _ in enumerate(ideal.elements):
        for i in letters:
            ideal.step(k, i)
    return ideal


def _fields(n: int) -> tuple[list[int], int]:
    # the shift of t_a's exponent field in a packed monomial, for
    # a = 1..n from the top, and the mask of one field
    width = max(1, (n - 1).bit_length())
    return [(n - a) * width for a in range(1, n + 1)], (1 << width) - 1


def _packed_units(n: int) -> list[int]:
    # unit[a] is t_a as a packed monomial, for a = 1..n
    return [0] + [1 << s for s in _fields(n)[0]]


# one letter of a column's pass: (j, b_j, descent steps of s_{b_j},
# unit[lower], unit[upper]) for the root r(j, b) = t_lower - t_upper
_Letter = tuple[int, int, list[int], int, int]


def _root_table(ideal: _Ideal, w: Perm, b: Word, unit: Sequence[int]) -> list[_Letter]:
    """The letters of w's column in the order the backward pass reads them.

    For j = m..1, b_j, its descent table in ``ideal`` and the units of
    the two ends of r(j, b) = t_lower - t_upper, read off the prefix
    s_{b_1} ... s_{b_{j-1}}, which one swap per letter takes down from w.
    ``unit`` maps a = 1..n to its value's form in the pass: the packed t_a
    for polynomials, a itself for projected weights.
    """
    prefix = list(w)
    table = []
    for j in range(len(b), 0, -1):
        i = b[j - 1]
        prefix[i - 1], prefix[i] = prefix[i], prefix[i - 1]
        table.append((j, i, ideal.down[i], unit[prefix[i - 1]], unit[prefix[i]]))
    return table


def _backward(
    ideal: _Ideal,
    v: Perm,
    letters: Sequence[_Letter],
    seed: dict[int, int],
    move: Callable[[dict[int, int], dict[int, int], int, int], None],
) -> dict[int, int]:
    """The one backward pass of the restrictions, from v down to the identity.

    ``letters`` is a column's root table, and v lies in ``ideal``.  The
    state of v starts at ``seed``; letter j sends every state x with a
    descent at b_j to x * s_{b_j}, and ``move(value, out, lower, upper)``
    adds x's value times the letter's root into that state's.  States
    longer than the letters left are dropped.  A step not yet looked up is
    looked up, so on an ideal holding only v the pass numbers just the
    states it reaches.  The identity's value is returned, empty when the
    pass never reaches it.
    """
    length = ideal.length
    start = ideal.number[v]
    if length[start] > len(letters):
        return {}
    values = {start: seed}
    for j, i, step, lower, upper in letters:
        # x * s_i has an ascent at i, so no state moves twice on one letter
        for x, value in list(values.items()):
            if length[x] > j:
                # too long to reach the identity in the j letters left
                del values[x]
                continue
            y = step[x]
            if y < -1:
                # not looked up yet: the ideal is numbered as the pass goes
                y = ideal.step(x, i)
            if y >= 0:
                out = values.get(y)
                if out is None:
                    values[y] = out = {}
                move(value, out, lower, upper)
    return values.get(ideal.bottom, {})


def _times_root(value: dict[int, int], out: dict[int, int], lower: int, upper: int) -> None:
    # out += value * (t_lower - t_upper) on packed monomials, skipping
    # cancelled coefficients
    for mono, c in value.items():
        if c:
            out[mono + lower] = out.get(mono + lower, 0) + c
            out[mono + upper] = out.get(mono + upper, 0) - c


def _times_weight(value: dict[int, int], out: dict[int, int], lower: int, upper: int) -> None:
    # out += value with every weight times the projected root upper - lower,
    # on {weight: count} multisets
    weight = upper - lower
    for c, count in value.items():
        out[c * weight] = out.get(c * weight, 0) + count


def _decoder(n: int) -> Callable[[Mapping[int, int]], Polynomial]:
    """Turns the packed values of the full-torus pass into ``Polynomial``s.

    Each distinct packed monomial is unpacked into its exponent tuple once,
    for every value the decoder is given; cancelled coefficients are
    dropped.  The tuples have length n by construction, so the polynomial
    is built without ``Polynomial.__init__``'s checks.
    """
    shifts, mask = _fields(n)
    exponents: dict[int, tuple[int, ...]] = {}

    def decode(packed: Mapping[int, int]) -> Polynomial:
        terms = {}
        for mono, c in packed.items():
            if c:
                exps = exponents.get(mono)
                if exps is None:
                    exps = exponents[mono] = tuple(mono >> s & mask for s in shifts)
                terms[exps] = c
        return Polynomial._trusted(n, terms)

    return decode


def project_s1(p: Polynomial) -> S1Value:
    """Evaluate a homogeneous polynomial under t_i -> (n + 1 - i) t.

    >>> project_s1(Polynomial(3, {(1, 0, 0): 1, (0, 0, 1): -1}))
    S1Value(coeff=2, degree=1)
    """
    if not p.terms:
        return S1_ZERO
    if not p.is_homogeneous():
        raise ValueError("projection of a non-homogeneous polynomial is not a monomial")
    n = p.nvars
    total = 0
    degree = 0
    for exps, coeff in p.terms.items():
        degree = sum(exps)
        weight = 1
        for idx, e in enumerate(exps):
            weight *= (n - idx) ** e
        total += coeff * weight
    if total == 0:
        return S1_ZERO
    return S1Value(total, degree)


def p_restriction(v: Perm, w: Perm, word: Optional[Sequence[int]] = None) -> S1Value:
    """The circle-projected restriction: project_s1 of sigma_restriction.

    The sum of the summands that ``p_summand_counts`` counts.
    """
    total = sum(s.coeff * k for s, k in p_summand_counts(v, w, word).items())
    return S1Value(total, inversions(v)) if total else S1_ZERO


def p_summand_counts(
    v: Perm, w: Perm, word: Optional[Sequence[int]] = None
) -> dict[S1Value, int]:
    """The projected summands of the restriction as a multiset.

    Maps each summand, the projected root product of one reduced subword
    of the word multiplying to v, to the number of subwords giving it, in
    ascending order of coefficient.  The subwords are counted by one
    backward pass over the word, not enumerated.

    The pass is that of ``sigma_restriction`` (``_backward``), with
    {weight: count} multisets in place of polynomials: it starts from
    {v: {1: 1}}, and letter j multiplies every weight of a moving state by
    the projected root r(j, b), upper - lower.  Every state lies below v
    by construction, so nothing is pruned but the states longer than the
    letters left, and v's ideal is numbered only as far as the pass
    reaches.

    >>> p_summand_counts((2, 1, 3), (3, 2, 1))
    {S1Value(coeff=1, degree=1): 2}
    """
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    v = validate(v)
    return _summand_counts(_Ideal([v]), v, w, _checked_word(w, word))


def _summand_counts(ideal: _Ideal, v: Perm, w: Perm, b: Word) -> dict[S1Value, int]:
    # p_summand_counts for a reduced word b of w that is already checked,
    # on an ideal holding v
    letters = _root_table(ideal, w, b, range(len(w) + 1))
    counts = _backward(ideal, v, letters, {1: 1}, _times_weight)
    degree = ideal.length[ideal.number[v]]
    return {S1Value(c, degree): counts[c] for c in sorted(counts)}


# ---------------------------------------------------------------------------
# Restriction matrices


class RestrictionMatrix(NamedTuple):
    """Matrix of projected restrictions p_{rolldown(row)}(column), stored by row.

    Points label both axes, distinct and sorted lexicographically by
    one-line notation; row a restricts the class of ``rolldowns[a]`` to
    every point.  Only nonzero entries are kept: bit b of ``nonzero[a]`` is
    set when entry (a, b) is nonzero, and ``coeffs[a]`` lists those entries'
    coefficients in column order.  Every entry of row a has degree
    l(rolldowns[a]).
    ``dense_rows()`` yields the dense rows one at a time, and ``values`` is
    the whole dense view, ``values[a][b]`` as an ``S1Value``.
    """

    points: tuple[Perm, ...]
    rolldowns: tuple[Perm, ...]
    nonzero: tuple[int, ...]
    coeffs: tuple[tuple[int, ...], ...]

    def index(self, w: Perm) -> int:
        # points are sorted, so w's place is found by bisection
        k = bisect_left(self.points, w)
        if k == len(self.points) or self.points[k] != w:
            raise ValueError(f"{w} is not a point of the matrix")
        return k

    def entry(self, v: Perm, w: Perm) -> S1Value:
        return self._at(self.index(v), self.index(w))

    def _at(self, a: int, b: int) -> S1Value:
        mask = self.nonzero[a]
        if not mask >> b & 1:
            return S1_ZERO
        # the entry's place in coeffs[a] is the number of nonzeros before it
        place = (mask & ((1 << b) - 1)).bit_count()
        return S1Value(self.coeffs[a][place], inversions(self.rolldowns[a]))

    def dense_rows(self) -> Iterator[tuple[S1Value, ...]]:
        """The dense rows in order, each built when it is asked for."""
        size = len(self.points)
        for v, mask, coeffs in zip(self.rolldowns, self.nonzero, self.coeffs):
            degree = inversions(v)
            row = [S1_ZERO] * size
            for b, c in zip(set_bits(mask), coeffs):
                row[b] = S1Value(c, degree)
            yield tuple(row)

    @property
    def values(self) -> tuple[tuple[S1Value, ...], ...]:
        """The dense matrix, built anew on each access."""
        return tuple(self.dense_rows())


def restriction_matrix(
    points: Iterable[Perm],
    rolldowns: Mapping[Perm, Perm],
    words: Optional[Mapping[Perm, Word]] = None,
) -> RestrictionMatrix:
    """Projected restrictions of all rolldown classes at all fixed points.

    ``words`` optionally supplies a reduced word per column point (for
    instance a catalog word); columns without one use the canonical word.

    Each column is one pass over its word b, mapping every partial product
    u of a reduced subword of b_1..b_j to its summed projected weight;
    letter j adds u * s_{b_j} with weight times r(j, b) where the length
    rises.  A partial product of a reduced subword reaching v is a reduced
    prefix of v, so it lies below v in the right weak order, and only
    products in the weak-order ideal I of the rows are kept.  I is numbered
    once (``_weak_ideal``, the ideal of ``sigma_rows``); ``up[i][k]`` is the
    number of permutation k times s_i when that is longer and in I, read
    off I's descent steps, so a pass steps states by list lookups.  I is
    the same for every column and compares no keys, so checking the
    matrix's vanishing against Bruhat order still tests something.  Each
    row takes its column's value from the state of its rolldown.
    """
    pts = tuple(sorted(points))
    repeated = sorted({u for u, v in zip(pts, pts[1:]) if u == v})
    if repeated:
        raise ValueError(f"repeated points {repeated}")
    missing = [w for w in pts if w not in rolldowns]
    if missing:
        raise ValueError(f"no rolldown for the points {missing}")
    rolls = tuple(validate(rolldowns[w]) for w in pts)
    if len({len(p) for p in pts + rolls}) > 1:
        raise ValueError("size mismatch among points and rolldowns")
    words = words or {}
    return _restriction_matrix(pts, rolls, _weak_ideal(rolls), [words.get(w) for w in pts])


def _restriction_matrix(
    pts: tuple[Perm, ...],
    rolls: tuple[Perm, ...],
    ideal: _Ideal,
    words: Sequence[Optional[Word]],
) -> RestrictionMatrix:
    # restriction_matrix for checked inputs: sorted distinct points, their
    # rolldowns, the weak-order ideal of the rolldowns from _weak_ideal,
    # and a word per point, None for its canonical word
    number = ideal.number
    n = len(pts[0]) if pts else 1
    # the ascent steps are the descent steps read backwards
    up = [[-1] * len(number) for _ in range(n)]
    for i, step in enumerate(ideal.down):
        for k, child in enumerate(step):
            if child >= 0:
                up[i][child] = k
    # the rows of each state; the same rolldown may serve several rows
    rows_of: list[list[int]] = [[] for _ in number]
    for a, v in enumerate(rolls):
        rows_of[number[v]].append(a)
    columns: list[list[int]] = [[] for _ in rolls]
    coeffs: list[list[int]] = [[] for _ in rolls]
    for col, (w, word) in enumerate(zip(pts, words)):
        b = _checked_word(w, word)
        weights = {ideal.bottom: 1}
        for i, root in zip(b, roots_along_word(b, n)):
            weight, step = root.s1(), up[i]
            # u * s_i has a descent at i, so a state added here is not
            # extended again by the same letter
            for u, c in list(weights.items()):
                u2 = step[u]
                if u2 >= 0:
                    weights[u2] = weights.get(u2, 0) + c * weight
        for u, c in weights.items():
            if c:
                for a in rows_of[u]:
                    columns[a].append(col)
                    coeffs[a].append(c)
    return RestrictionMatrix(
        points=pts,
        rolldowns=rolls,
        nonzero=tuple(sum(1 << col for col in cols) for cols in columns),
        coeffs=tuple(map(tuple, coeffs)),
    )


class TriangularReport(NamedTuple):
    """Poset upper triangularity of a restriction matrix."""

    diagonal_ok: bool
    diagonal_zeros: tuple[Perm, ...]
    vanishing_ok: bool
    vanishing_violations: tuple[tuple[Perm, Perm, S1Value], ...]

    @property
    def passed(self) -> bool:
        return self.diagonal_ok and self.vanishing_ok


def check_upper_triangular(
    matrix: RestrictionMatrix,
    below: Optional[Sequence[int]] = None,
) -> TriangularReport:
    """Diagonal entries must be nonzero; entry (v, w) must vanish unless v <= w.

    ``below[a]`` is a bitmask over the points: bit b is set exactly when
    ``matrix.points[a] <= matrix.points[b]``, as ``bruhat_table`` gives it,
    which computes it here when ``below`` is omitted.  Violations are the
    set bits of ``nonzero[a] & ~below[a]``, listed row by row in column
    order.
    """
    size = len(matrix.points)
    if below is None:
        below = bruhat_table(matrix.points, matrix.points)
    elif len(below) != size or any(not 0 <= mask < 1 << size for mask in below):
        raise ValueError(f"below must hold {size} masks of {size} bits")
    points = matrix.points
    diagonal_zeros = tuple(
        w
        for a, (w, mask) in enumerate(zip(points, matrix.nonzero))
        if not mask >> a & 1
    )
    violations = [
        (points[a], points[b], matrix._at(a, b))
        for a, (mask, leq) in enumerate(zip(matrix.nonzero, below))
        for b in set_bits(mask & ~leq)
    ]
    return TriangularReport(
        diagonal_ok=not diagonal_zeros,
        diagonal_zeros=diagonal_zeros,
        vanishing_ok=not violations,
        vanishing_violations=tuple(violations),
    )
