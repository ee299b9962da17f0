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
carries polynomials as maps from packed monomials to coefficients;
``p_summand_counts`` carries {weight: count} multisets of projected root
products, counting how many subwords give each summand, and
``p_restriction`` sums that multiset.  A single entry numbers only the
states its pass reaches, looking up each step when the pass first takes
it.  Every pass reads its letters from w's column (``_column``), the one
place the roots r(j, b) are derived and b is checked against w.

Tables come from one forward prefix recurrence per column instead, reading
the column in letter order and keeping only partial products inside the
rows' weak-order ideal, numbered once (``_weak_ideal``) and stepped by its
ascent table (``_ascents``): on projected weights for the matrix
(``_column_entries``) and on packed polynomials for the full torus
(``_torus_entries``).  One column stream (``_column_stream``) builds each
point's column once.  ``p_rows`` and ``sigma_rows`` collect it, keeping
each row as a bitmask of its nonzero columns and their values, and yield
the dense rows one at a time.  A full-torus value is held as one flat tuple
of coefficients and shared exponent tuples (``_exponents``) in
``sorted_terms()`` order, which ``matrix --full-torus`` writes as it comes.

Poset upper triangularity is one pass over the stream (``_Triangularity``):
it reads each column's diagonal and tests each nonzero entry with
``BruhatKeys.leq``, on canonical words for ``check_upper_triangular`` and
catalog words for ``verify_334_theorem``.  No restriction consults Bruhat
keys, and the ideal depends only on the rows, so checking their vanishing
against Bruhat order is not a tautology.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .fillings import _Table
from .permutations import (
    Perm,
    Word,
    bruhat_keys,
    canonical_word,
    inversions,
    is_permutation,
    set_bits,
    validate,
)

__all__ = [
    "Polynomial",
    "S1Value",
    "S1_ZERO",
    "sigma_restriction",
    "sigma_rows",
    "project_s1",
    "p_restriction",
    "p_summand_counts",
    "p_rows",
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


class S1Value(NamedTuple):
    """An exact multiple of a power of t: coeff * t^degree."""

    coeff: int
    degree: int


S1_ZERO = S1Value(0, 0)


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
    pass reads each letter's root from w's column (``_column``), whose
    roots come from the prefix w s_{b_m} ... s_{b_j} = s_{b_1} ... s_{b_{j-1}},
    one swap per letter.

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
    v = _checked_pair(v, w)
    n = len(w)
    packed = _backward(_Ideal([v]), v, _column(w, word, _packed_units(n)), {0: 1}, _times_root)
    exponents = _exponents(n)
    return Polynomial._trusted(n, {exponents[m]: c for m, c in packed.items() if c})


def _checked_pair(v: Perm, w: Perm) -> Perm:
    # v as a permutation of w's size; w is checked with its word (_column)
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    return validate(v)


def _checked_rows(rows: Iterable[Perm], points: Sequence[Perm]) -> tuple[list[Perm], Optional[int]]:
    # the rows, each a permutation, and the one size of rows and points
    # (None when there are neither); the points are checked with their
    # words (_column)
    rows = [validate(v) for v in rows]
    sizes = sorted({len(p) for p in [*rows, *points]})
    if len(sizes) > 1:
        raise ValueError(f"size mismatch among rows and points: {sizes}")
    return rows, sizes[0] if sizes else None


def sigma_rows(rows: Iterable[Perm], points: Sequence[Perm]) -> Iterator[tuple[Polynomial, ...]]:
    """``sigma_restriction(v, w)`` for every w in ``points``, one row v at a time.

    The full-torus analogue of ``p_rows``, with the same arguments and
    checks, computed the same way: every column comes from the forward
    recurrence on packed monomials (``_torus_entries``) on the first
    ``next``, each point's column built and its canonical word checked
    when the pass reaches it.  Each row keeps a bitmask of its nonzero
    columns and a flat tuple of terms per nonzero entry; its dense row is
    built when asked for, each zero entry the one zero of the call.
    """
    rows, n = _checked_rows(rows, points)
    zero = Polynomial._trusted(n, {})
    for mask, held in zip(*_held_rows(rows, points, torus=True)):
        row = [zero] * len(points)
        for b, terms in zip(set_bits(mask), held):
            row[b] = Polynomial._trusted(n, dict(zip(terms[::2], terms[1::2])))
        yield tuple(row)


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


# one letter of a column: (j, b_j, unit[lower], unit[upper]) for the root
# r(j, b) = t_lower - t_upper
_Letter = tuple[int, int, int, int]


def _column(w: Perm, word: Optional[Sequence[int]], unit: Sequence[int]) -> list[_Letter]:
    """The letters of w's column, last letter first: the one place the
    roots along a word are derived and the word is checked.

    For j = m..1 the column holds j, b_j and the units of the two ends of
    r(j, b) = t_lower - t_upper, read off the prefix s_{b_1} ... s_{b_{j-1}},
    which one swap per letter takes down from w.  b is ``word``, or w's
    canonical word when that is None; it is reduced for w exactly when it
    has l(w) letters in 1..n-1 and the prefix ends at the identity, and
    ``ValueError`` is raised otherwise.  ``unit`` maps a = 1..n to its
    value's form in a pass: the packed t_a for polynomials, a itself for
    projected weights.

    >>> _column((3, 1, 2), None, range(4))
    [(2, 1, 1, 3), (1, 2, 2, 3)]
    """
    n = len(w)
    b = canonical_word(w) if word is None else tuple(word)
    # the letters index the prefix and w's entries index unit, so both are
    # checked before the swaps
    if len(b) == inversions(w) and is_permutation(w) and all(0 < i < n for i in b):
        prefix = list(w)
        column = []
        for j, i in zip(range(len(b), 0, -1), reversed(b)):
            lower, upper = prefix[i], prefix[i - 1]
            prefix[i - 1], prefix[i] = lower, upper
            column.append((j, i, unit[lower], unit[upper]))
        if prefix == list(range(1, n + 1)):
            return column
    raise ValueError(f"{b} is not a reduced word for {w}")


def _backward(
    ideal: _Ideal,
    v: Perm,
    column: Sequence[_Letter],
    seed: dict[int, int],
    move: Callable[[dict[int, int], dict[int, int], int, int], None],
) -> dict[int, int]:
    """The one backward pass of the restrictions, from v down to the identity.

    ``column`` is a column from ``_column``, and v lies in ``ideal``.  The
    state of v starts at ``seed``; letter j sends every state x with a
    descent at b_j to x * s_{b_j}, and ``move(value, out, lower, upper)``
    adds x's value times the letter's root into that state's.  States
    longer than the letters left are dropped.  A step not yet looked up is
    looked up, so on an ideal holding only v the pass numbers just the
    states it reaches.  The identity's value is returned, empty when the
    pass never reaches it.
    """
    length, down = ideal.length, ideal.down
    start = ideal.number[v]
    if length[start] > len(column):
        return {}
    values = {start: seed}
    for j, i, lower, upper in column:
        step = down[i]
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


def _exponents(n: int) -> dict[int, tuple[int, ...]]:
    """Each packed monomial's exponent tuple, of length n, unpacked on its
    first lookup and shared by later ones (``Polynomial._trusted`` holds)."""
    shifts, mask = _fields(n)
    return _Table(lambda mono: tuple(mono >> s & mask for s in shifts))


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
    v = _checked_pair(v, w)
    return _summand_counts(_Ideal([v]), v, _column(w, word, range(len(w) + 1)))


def _summand_counts(ideal: _Ideal, v: Perm, column: Sequence[_Letter]) -> dict[S1Value, int]:
    # p_summand_counts for a column of projected weights (_column with
    # unit a -> a), on an ideal holding v
    counts = _backward(ideal, v, column, {1: 1}, _times_weight)
    degree = ideal.length[ideal.number[v]]
    return {S1Value(c, degree): counts[c] for c in sorted(counts)}


# ---------------------------------------------------------------------------
# Restriction matrices


def p_rows(rows: Iterable[Perm], points: Sequence[Perm]) -> Iterator[tuple[S1Value, ...]]:
    """``p_restriction(v, w)`` for every w in ``points``, one row v at a time.

    The projected analogue of ``sigma_rows``, with the same arguments and
    checks: rows and points may differ in number, repeat and come in any
    order, and the rows are checked when the first row is asked for.  Every
    column comes from the matrix's one recurrence over the rows' ideal
    (``_column_stream``), on the points' canonical words, before the first
    row is yielded.  Each row is kept as a bitmask of its nonzero columns
    and their coefficients, and its dense row is built when it is asked
    for, so no dense table is held.
    """
    rows = _checked_rows(rows, points)[0]
    for v, mask, cs in zip(rows, *_held_rows(rows, points)):
        degree = inversions(v)
        row = [S1_ZERO] * len(points)
        for b, c in zip(set_bits(mask), cs):
            row[b] = S1Value(c, degree)
        yield tuple(row)


def _held_rows(
    rows: Sequence[Perm], points: Sequence[Perm], torus: bool = False
) -> tuple[list[int], list[list]]:
    # each row's bitmask of nonzero columns and its nonzero values in
    # column order, from one column stream on the points' canonical words
    nonzero = [0] * len(rows)
    held: list[list] = [[] for _ in rows]
    for b, (_, entries) in enumerate(_column_stream(points, rows, torus=torus)[1]):
        for a, value in entries:
            nonzero[a] |= 1 << b
            held[a].append(value)
    return nonzero, held


def _column_stream(
    points: Sequence[Perm],
    rolls: Sequence[Perm],
    words: Optional[Sequence[Word]] = None,
    torus: bool = False,
) -> tuple[_Ideal, Iterator[tuple[list[_Letter], list[tuple]]]]:
    """The weak-order ideal of ``rolls``, numbered once, and the columns.

    The stream yields, for each point w in order, w's column of projected
    weights (``_column``) on its word in ``words``, or its canonical word
    when ``words`` is None, and that column's nonzero (row, coefficient)
    entries (``_column_entries``), row a restricting the class of
    ``rolls[a]``.  With ``torus`` the columns hold packed units and the
    entries are (row, terms) pairs of full-torus values (``_torus_entries``).
    Each column is built once, when the stream reaches it.
    """
    ideal = _weak_ideal(rolls)
    recurrence = _torus_entries if torus else _column_entries
    # without rows the ideal is empty and every column has no entries
    entries = recurrence(ideal, rolls) if rolls else lambda column: []

    def stream():
        for w, word in zip(points, words or [None] * len(points)):
            unit = _packed_units(len(w)) if torus else range(len(w) + 1)
            column = _column(w, word, unit)
            yield column, entries(column)

    return ideal, stream()


def _ascents(ideal: _Ideal, rolls: Sequence[Perm]) -> tuple[list[list[int]], list[list[int]]]:
    """``up[i][k]``, permutation k times s_i when that is longer and in
    ``ideal``, the weak-order ideal of ``rolls``, else -1; and
    ``rows_of[k]``, the rows a with ``rolls[a]`` permutation k."""
    number = ideal.number
    # the ascent steps are the descent steps read backwards
    up = [[-1] * len(number) for _ in ideal.down]
    for i, step in enumerate(ideal.down):
        for k, child in enumerate(step):
            if child >= 0:
                up[i][child] = k
    rows_of: list[list[int]] = [[] for _ in number]
    for a, v in enumerate(rolls):
        rows_of[number[v]].append(a)
    return up, rows_of


def _column_entries(
    ideal: _Ideal, rolls: Sequence[Perm]
) -> Callable[[Sequence[_Letter]], list[tuple[int, int]]]:
    """The matrix's one recurrence, a column at a time.

    ``ideal`` is the weak-order ideal I of ``rolls`` (``_weak_ideal``).  The
    function returned takes w's column of projected weights (``_column``
    with unit a -> a) for a word b and returns the column's nonzero entries
    as (row, coefficient) pairs, row a restricting the class of ``rolls[a]``.
    It is one pass over b in letter order, mapping every partial product u
    of a reduced subword of b_1..b_j to its summed projected weight; letter
    j adds u * s_{b_j} with weight times r(j, b), upper - lower, where the
    length rises.  A partial product of a reduced subword reaching v is a
    reduced prefix of v, so it lies below v in the right weak order, and
    only products in I are kept.  A state steps up by I's ascent table
    (``_ascents``), a list lookup.  I is the same for every column and
    compares no keys, so checking the matrix's vanishing against Bruhat
    order still tests something.  Each row takes its column's value from
    the state of its rolldown, and nothing is held between columns.
    """
    up, rows_of = _ascents(ideal, rolls)
    bottom = ideal.bottom

    def entries(column: Sequence[_Letter]) -> list[tuple[int, int]]:
        weights = {bottom: 1}
        for _, i, lower, upper in reversed(column):
            weight, step = upper - lower, up[i]
            # u * s_i has a descent at i, so a state added here is not
            # extended again by the same letter
            for u, c in list(weights.items()):
                u2 = step[u]
                if u2 >= 0:
                    weights[u2] = weights.get(u2, 0) + c * weight
        return [(a, c) for u, c in weights.items() if c for a in rows_of[u]]

    return entries


def _torus_entries(
    ideal: _Ideal, rolls: Sequence[Perm]
) -> Callable[[Sequence[_Letter]], list[tuple[int, tuple]]]:
    """``_column_entries`` on the full torus, for columns of packed units.

    Each state carries its summed root products as a map from packed
    monomials to coefficients, which letter j adds times r(j, b) into the
    longer state (``_times_root``).  A nonzero entry comes as (row, terms),
    terms one flat tuple exps_1, c_1, exps_2, c_2, ..., so a held term is
    two pointers: the exponent tuples come from one table (``_exponents``)
    and the rows of one state share its tuple.  Terms descend as packed
    ints, ``sorted_terms()`` order since t_1 is the top field (``_fields``).
    """
    up, rows_of = _ascents(ideal, rolls)
    bottom, exponents = ideal.bottom, _exponents(len(rolls[0]))

    def entries(column: Sequence[_Letter]) -> list[tuple[int, tuple]]:
        values = {bottom: {0: 1}}
        for _, i, lower, upper in reversed(column):
            step = up[i]
            # as in _column_entries, no state moves twice on one letter
            for u, value in list(values.items()):
                u2 = step[u]
                if u2 >= 0:
                    out = values.get(u2)
                    if out is None:
                        values[u2] = out = {}
                    _times_root(value, out, lower, upper)
        found = []
        for u, value in values.items():
            if rows_of[u]:
                terms = []
                for m in sorted(value, reverse=True):
                    if c := value[m]:
                        terms += exponents[m], c
                if terms:
                    terms = tuple(terms)
                    found += [(a, terms) for a in rows_of[u]]
        return found

    return entries


class TriangularReport(NamedTuple):
    """Poset upper triangularity of a restriction matrix."""

    diagonal_ok: bool
    diagonal_zeros: tuple[Perm, ...]
    vanishing_ok: bool
    vanishing_violations: tuple[tuple[Perm, Perm, S1Value], ...]

    @property
    def passed(self) -> bool:
        return self.diagonal_ok and self.vanishing_ok


class _Triangularity:
    """The one poset-upper-triangularity pass over a column stream.

    Row a and column b are labelled by ``points``, row a restricting the
    class of ``rolls[a]``.  ``diagonals`` reads each column's entries as
    they come and records the diagonal zeros and every nonzero entry
    (v, w) with v not below w, one ``BruhatKeys.leq`` on the points'
    packed keys per entry; ``report`` lists the vanishing witnesses row by
    row in column order, however far the columns were read.
    """

    __slots__ = ("points", "rolls", "zeros", "found")

    def __init__(self, points: Sequence[Perm], rolls: Sequence[Perm]):
        self.points, self.rolls = points, rolls
        self.zeros: list[Perm] = []
        # (row, column, coefficient) of each vanishing witness
        self.found: list[tuple[int, int, int]] = []

    def diagonals(
        self, columns: Iterable[tuple[list[_Letter], list[tuple[int, int]]]]
    ) -> Iterator[tuple[list[_Letter], S1Value]]:
        """Each column of the stream with its diagonal value."""
        points, found = self.points, self.found
        keys = bruhat_keys(len(points[0]) if points else 1)
        leq, key = keys.leq, list(map(keys._pack, points))
        for b, (column, entries) in enumerate(columns):
            value, kw = S1_ZERO, key[b]
            for a, c in entries:
                if a == b:
                    value = S1Value(c, inversions(self.rolls[b]))
                if not leq(key[a], kw):
                    found.append((a, b, c))
            if value == S1_ZERO:
                self.zeros.append(points[b])
            yield column, value

    def report(self) -> TriangularReport:
        points, rolls = self.points, self.rolls
        zeros = tuple(self.zeros)
        violations = tuple(
            (points[a], points[b], S1Value(c, inversions(rolls[a])))
            for a, b, c in sorted(self.found)
        )
        return TriangularReport(not zeros, zeros, not violations, violations)


def check_upper_triangular(rolldowns: Mapping[Perm, Perm]) -> TriangularReport:
    """Diagonal entries must be nonzero; entry (v, w) must vanish unless v <= w.

    The points are the sorted keys of ``rolldowns``, and row v restricts
    the class of ``rolldowns[v]``.  Every entry comes from the matrix's
    recurrence on canonical words (``_column_stream``), and no relation
    table is built.  Violations are listed row by row in column order.
    """
    # the points are checked here, as _Triangularity packs their keys unchecked
    points = tuple(sorted(map(validate, rolldowns)))
    rolls = _checked_rows([rolldowns[w] for w in points], points)[0]
    triangle = _Triangularity(points, rolls)
    for _ in triangle.diagonals(_column_stream(points, rolls)[1]):
        pass
    return triangle.report()
