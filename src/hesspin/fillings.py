"""Young-diagram fillings, Hessenberg permissibility, and dimension pairs.

A diagram is a tuple of weakly decreasing positive row lengths, drawn in
English notation with boxes addressed by 1-indexed ``(row, col)``.  A
filling places each of 1..n in a box, stored row by row as a tuple of
tuples.  A Hessenberg function ``h`` is a weakly increasing tuple with
``i <= h(i) <= n``.

Permissibility is a condition on horizontal neighbors: whenever ``k`` sits
directly left of ``j``, then ``k <= h(j)``.  The reading word of a filling
reads each column bottom to top, leftmost column first:

>>> reading_word(((1, 2, 3), (4, 5), (6,)))
(6, 4, 1, 5, 2, 3)

A dimension pair (a, b) of a permissible filling has b > a, with b either
below a in the same column or anywhere in a column strictly left of a, and
b <= h(c) whenever some entry c sits directly right of a.  Collecting the
counts x_l of pairs with top part l gives a vector with 0 <= x_l <= l - 1,
and ``omega`` turns such vectors into permutations bijectively.

Since reading order lists each column bottom to top, columns left to right,
"b below a in its column or in a column strictly left of a" says exactly
that b comes before a in the reading word.  So when boxes are placed in
reading order, the pairs of a value a are settled as soon as its cap is
known: a's pairs are the values in (a, cap(a)] placed before a.  That is
when a's right neighbor is placed, or when a is placed if it has none.
``_PrefixState`` keeps, per depth, the mask of the values placed and one
packed int (``_packing``): the counts x by top part and, in a field of its
own, the number of pairs, the degree.  ``_pass`` carries it down the one
backtracking pass, box by box up to the last T <= 3 boxes (the tail),
which it finishes from a table keyed by the mask of the values left: the
orders of those values that fit the tail, each with the pair-set keys it
settles.  It yields the state at each leaf: ``enumerate_permissible``
reads the filling off each leaf state, and ``hesspin fillings`` and the
table functions of ``pinball`` read the word, the pair-set keys, x and
the degree off them in place.  ``dimension_pairs`` walks the state over
the reading word of one permissible filling, box by box.

``omega(x)`` is the product of ``omega_word(x)``.  ``_omega`` is the one
product of x vectors: it builds omega(x) by n - 1 list inserts, with no
word built.  ``omega`` checks x first, and ``pinball.rolldown`` and
``rolldown_table`` invert it into the rolldown of a point with top-part
vector x.  A leaf reads omega(x) off its packed x as the product of the
omega of each half of x (``_halves``), two tables whose entries ``_omega``
builds the first time each half appears; the product comes out as the
bytes of a pinball record (``_record_code``).
"""

from __future__ import annotations

import functools
import struct
from array import array
from itertools import chain, permutations, repeat
from math import factorial
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .permutations import Perm, Word, inverse, set_bits, validate

__all__ = [
    "Diagram",
    "Filling",
    "validate_hessenberg",
    "hessenberg_334",
    "hessenberg_peterson",
    "hessenberg_identity",
    "hessenberg_full",
    "validate_diagram",
    "single_row",
    "diagram_size",
    "column_lengths",
    "reading_order",
    "reading_word",
    "filling_from_word",
    "filling_of_fixed_point",
    "is_permissible",
    "permissibility_violation",
    "permissibility_error",
    "enumerate_permissible",
    "dimension_pairs",
    "top_parts",
    "omega_word",
    "omega",
    "omega_inverse",
]

Diagram = tuple[int, ...]
Filling = tuple[tuple[int, ...], ...]


# ---------------------------------------------------------------------------
# Hessenberg functions


def validate_hessenberg(h: Sequence[int]) -> Diagram:
    """Return ``h`` as a tuple, raising ValueError at the first bad index."""
    t = tuple(h)
    n = len(t)
    if n == 0:
        raise ValueError("Hessenberg function must have positive length")
    for i in range(1, n + 1):
        val = t[i - 1]
        if not isinstance(val, int):
            raise ValueError(f"h({i}) = {val!r} is not an integer")
        if val < i:
            raise ValueError(f"h({i}) = {val} violates h(i) >= i")
        if val > n:
            raise ValueError(f"h({i}) = {val} exceeds n = {n}")
        if i > 1 and val < t[i - 2]:
            raise ValueError(
                f"h({i}) = {val} violates weak increase (h({i - 1}) = {t[i - 2]})"
            )
    return t


def hessenberg_334(n: int) -> tuple[int, ...]:
    """The function (3, 3, 4, 5, ..., n, n); defined for n >= 4.

    >>> hessenberg_334(6)
    (3, 3, 4, 5, 6, 6)
    """
    if n < 4:
        raise ValueError(f"the 334 family needs n >= 4, got n = {n}")
    return (3, 3) + tuple(range(4, n + 1)) + (n,)


def hessenberg_peterson(n: int) -> tuple[int, ...]:
    """The function (2, 3, ..., n, n).

    >>> hessenberg_peterson(5)
    (2, 3, 4, 5, 5)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return tuple(min(i + 1, n) for i in range(1, n + 1))


def hessenberg_identity(n: int) -> tuple[int, ...]:
    """The function (1, 2, ..., n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return tuple(range(1, n + 1))


def hessenberg_full(n: int) -> tuple[int, ...]:
    """The function (n, n, ..., n)."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return (n,) * n


# ---------------------------------------------------------------------------
# Diagrams and fillings


def validate_diagram(rows: Sequence[int]) -> Diagram:
    """Return ``rows`` as a tuple, checking weakly decreasing positive parts."""
    t = tuple(rows)
    if len(t) == 0:
        raise ValueError("diagram must have at least one row")
    for r, part in enumerate(t, start=1):
        if not isinstance(part, int) or part < 1:
            raise ValueError(f"row {r} has invalid length {part!r}")
        if r > 1 and part > t[r - 2]:
            raise ValueError(f"row lengths must weakly decrease: row {r} = {part}")
    return t


def single_row(n: int) -> Diagram:
    """The one-row diagram with n boxes."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return (n,)


def diagram_size(diagram: Diagram) -> int:
    return sum(diagram)


def column_lengths(diagram: Diagram) -> tuple[int, ...]:
    """Lengths of the columns (the conjugate diagram); ValueError unless
    ``diagram`` is one.

    >>> column_lengths((3, 2))
    (2, 2, 1)
    """
    diagram = validate_diagram(diagram)
    ncols = diagram[0]
    return tuple(sum(1 for part in diagram if part >= c) for c in range(1, ncols + 1))


@functools.lru_cache(maxsize=None)
def reading_order(diagram: Diagram) -> tuple[tuple[int, int], ...]:
    """Boxes in reading order: columns left to right, bottom to top;
    ValueError unless ``diagram`` is a diagram (``column_lengths``).

    Cached per diagram, which must be a tuple: ``reading_word`` asks for
    the order of its filling's shape on every call.

    >>> reading_order((2, 2))
    ((2, 1), (1, 1), (2, 2), (1, 2))
    """
    cols = column_lengths(diagram)
    return tuple(
        (r, c)
        for c in range(1, len(cols) + 1)
        for r in range(cols[c - 1], 0, -1)
    )


def reading_word(filling: Filling) -> Perm:
    """The permutation read off column by column, bottom to top; ValueError
    unless the row lengths are a diagram."""
    shape = validate_diagram(tuple(map(len, filling)))
    return tuple(filling[r - 1][c - 1] for r, c in reading_order(shape))


def filling_from_word(word: Perm, diagram: Diagram) -> Filling:
    """The unique filling of ``diagram`` whose reading word is ``word``.

    >>> filling_from_word((6, 4, 1, 5, 2, 3), (3, 2, 1))
    ((1, 2, 3), (4, 5), (6,))
    """
    diagram = validate_diagram(diagram)
    word = validate(word)
    if len(word) != diagram_size(diagram):
        raise ValueError(f"word length {len(word)} does not match diagram size")
    grid = [[0] * part for part in diagram]
    for val, (r, c) in zip(word, reading_order(diagram)):
        grid[r - 1][c - 1] = val
    return tuple(tuple(row) for row in grid)


def filling_of_fixed_point(w: Perm, diagram: Diagram) -> Filling:
    """The filling attached to a torus-fixed point: reading word w^{-1}."""
    return filling_from_word(inverse(validate(w)), diagram)


# ---------------------------------------------------------------------------
# Permissibility


def permissibility_violation(
    filling: Filling, h: Sequence[int]
) -> Optional[tuple[int, int, int, int]]:
    """First horizontal adjacency k|j with k > h(j), or None; ValueError
    unless ``filling`` fills a diagram with 1..n and ``h`` is a Hessenberg
    function of length n.

    Returns (row, col, k, j) where k sits at (row, col) and j at (row, col+1).
    """
    return _violation(filling, _checked(filling, h)[1])


def permissibility_error(filling: Filling, h: Sequence[int]) -> str:
    """Human-readable description of the first violating adjacency;
    ValueError on bad arguments, as ``permissibility_violation``."""
    h = _checked(filling, h)[1]
    return _describe(_violation(filling, h), h)


def is_permissible(filling: Filling, h: Sequence[int]) -> bool:
    """Whether every horizontal adjacency k|j satisfies k <= h(j);
    ValueError on bad arguments, as ``permissibility_violation``.

    >>> is_permissible(((2, 4, 3, 1, 5),), (3, 3, 4, 5, 5))
    True
    >>> is_permissible(((2, 3, 4, 1, 5),), (3, 3, 4, 5, 5))
    False
    """
    return _violation(filling, _checked(filling, h)[1]) is None


def _checked(filling: Filling, h: Sequence[int]) -> tuple[Perm, Diagram]:
    """(reading word, h) as tuples, once the rows of ``filling`` are a
    diagram, its entries are 1..n and ``h`` is a Hessenberg function of
    length n; ValueError otherwise."""
    word = validate(reading_word(filling))
    h = validate_hessenberg(h)
    if len(h) != len(word):
        raise ValueError(f"h has length {len(h)}, filling has {len(word)} boxes")
    return word, h


def _violation(
    filling: Filling, h: Sequence[int]
) -> Optional[tuple[int, int, int, int]]:
    """``permissibility_violation`` for checked arguments: each value j
    of the filling is an index of h."""
    for r, row in enumerate(filling, start=1):
        for c in range(1, len(row)):
            k, j = row[c - 1], row[c]
            if k > h[j - 1]:
                return (r, c, k, j)
    return None


def _describe(hit: Optional[tuple[int, int, int, int]], h: Sequence[int]) -> str:
    """The text of ``permissibility_error`` for the violation ``hit``."""
    if hit is None:
        return "filling is permissible"
    r, c, k, j = hit
    return (
        f"adjacency {k}|{j} at row {r}, columns {c},{c + 1} "
        f"violates {k} <= h({j}) = {h[j - 1]}"
    )


@functools.lru_cache(maxsize=None)
def _reading_layout(diagram: Diagram):
    """Neighbors in reading-order positions: for each position, the
    positions of its box's left and right neighbors (-1 for none), and for
    each row, the positions of its boxes from left to right."""
    order = reading_order(diagram)
    index = {box: k for k, box in enumerate(order)}
    left = tuple(index.get((r, c - 1), -1) for r, c in order)
    right = tuple(index.get((r, c + 1), -1) for r, c in order)
    rows = tuple(
        tuple(index[(r, c)] for c in range(1, part + 1))
        for r, part in enumerate(diagram, start=1)
    )
    return left, right, rows


class _Table(dict):
    """The value of each key, made by ``make(key)`` when the key is first
    looked up and kept for every later lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = self.make(key)
        return value


class _Packing(NamedTuple):
    """How x and the degree are packed into one int for S_n.

    Field b, of ``width`` bits, holds x_b: the smallest standard size that
    holds x_b <= n - 1.  Fields 0 and 1 hold no top part; together they
    are the count field, the number of pairs, at most n(n - 1)/2, which
    2 * ``width`` bits hold for every n.  Adding ``unit[b]`` counts one
    more pair with top part b, ``count`` masks the count field, and
    ``x(t)`` unpacks (x_2, ..., x_n) from a packed int t."""

    width: int
    unit: tuple[int, ...]
    count: int
    x: Callable[[int], tuple[int, ...]]


@functools.lru_cache(maxsize=None)
def _packing(n: int) -> _Packing:
    code = next(c for c in "BHIQ" if n <= 1 << 8 * struct.calcsize("<" + c))
    size = struct.calcsize("<" + code)
    unpack = struct.Struct(f"<{2 * size}x{n - 1}{code}").unpack
    length = (n + 1) * size

    def x(t: int) -> tuple[int, ...]:
        return unpack(t.to_bytes(length, "little"))

    unit = tuple(1 << 8 * size * b for b in range(n + 1))
    return _Packing(8 * size, unit, (1 << 16 * size) - 1, x)


def _key_pairs(key: int) -> tuple[tuple[int, int], ...]:
    """The pairs (a, b), b ascending, of the pair-set key ``mask | 1 << a``:
    a value a and the mask of the values b that form a dimension pair
    (a, b), all above a."""
    low = key & -key
    return tuple(zip(repeat(low.bit_length() - 1), set_bits(key ^ low)))


class _PrefixState:
    """The dimension pair rule for boxes placed in reading order.

    ``place(k, val)`` puts ``val`` at reading position k, given the state
    of positions 0..k-1: ``word[:k]``, ``seen[k]`` (the mask of values
    placed, bit v for value v) and ``tops[k]`` (the packed top-part counts
    and count of the pairs settled so far, ``_packing``).  It writes
    ``word[k]``, ``seen[k + 1]`` and ``tops[k + 1]``, so a backtracking
    pass keeps one state per depth.

    Placing a box settles the pairs of at most two values.  Its left
    neighbor a now has cap h(val), and a's pairs are the values in
    (a, h(val)] placed before a: ``seen[left] & capped[val] & above[a]``.
    If the box has no right neighbor, val's cap is n and its pairs are
    ``seen[k] & above[val]``.  ``pairs_of[a]`` holds a's pair-set key
    ``mask | 1 << a`` (``_key_pairs``), or 0 when a has no pairs
    (``pairs_of[0]`` stays 0), and ``spread``, a table of the pass, gives
    each key's packed counts once; ``_pass`` reads ``spread``, ``capped``
    and ``above`` too.  Once every box is placed, ``pairs()``,
    ``x()`` and ``degree()`` read the sorted pairs, x and the number of
    pairs off ``pairs_of`` and ``tops[-1]``, ``point()`` the fixed point
    ``word^{-1}``, and ``filling(tuple(word))`` the filling.
    """

    __slots__ = (
        "word",
        "seen",
        "tops",
        "pairs_of",
        "spread",
        "capped",
        "above",
        "place",
        "_rows",
        "_packing",
    )

    def __init__(self, diagram: Diagram, h: Sequence[int]):
        n = len(h)
        left, right, self._rows = _reading_layout(diagram)
        packing = self._packing = _packing(n)
        unit = packing.unit

        def counts(key: int) -> int:
            # a key's packed counts: unit[b] per top part b, 1 per pair
            tops = key & (key - 1)
            return sum(map(unit.__getitem__, set_bits(tops))) + tops.bit_count()

        spread = self.spread = _Table(counts)
        # bits of the values <= h(v), and of the values > a
        capped = self.capped = [0] + [(2 << c) - 1 for c in h]
        above = self.above = [~((2 << a) - 1) for a in range(n + 1)]
        word = self.word = [0] * n
        seen = self.seen = [0] * (n + 1)
        tops = self.tops = [0] * (n + 1)
        pairs_of = self.pairs_of = [0] * (n + 1)

        def place(k: int, val: int) -> None:
            word[k] = val
            s = seen[k]
            t = tops[k]
            lk = left[k]
            if lk >= 0:
                a = word[lk]
                key = seen[lk] & capped[val] & above[a]
                if key:
                    key |= 1 << a
                    t += spread[key]
                pairs_of[a] = key
            if right[k] < 0:
                key = s & above[val]
                if key:
                    key |= 1 << val
                    t += spread[key]
                pairs_of[val] = key
            seen[k + 1] = s | 1 << val
            tops[k + 1] = t

        self.place = place

    def point(self) -> Perm:
        return inverse(self.word)

    def filling(self, w: Perm) -> Filling:
        """The filling with reading word ``w``, the word placed so far."""
        return tuple([tuple([w[p] for p in row]) for row in self._rows])

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(chain.from_iterable(map(_key_pairs, filter(None, self.pairs_of))))

    def x(self) -> tuple[int, ...]:
        return self._packing.x(self.tops[-1])

    def degree(self) -> int:
        return self.tops[-1] & self._packing.count


def _leaf_states(diagram: Diagram, h: Sequence[int]) -> Iterator[_PrefixState]:
    """``_pass(diagram, h)``, with the arguments checked when this is called."""
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    n = diagram_size(diagram)
    if len(h) != n:
        raise ValueError(f"h has length {len(h)}, diagram has {n} boxes")
    return _pass(diagram, h)


def _tail_length(diagram: Diagram) -> int:
    """The length T <= 3 of the tail that ``_pass`` finishes from a table:
    the most last reading positions in which every box but the first has
    its left neighbor in the tail, or none.

    >>> [_tail_length(d) for d in [(4,), (5, 2), (1, 1, 1), (4, 3), (2, 2)]]
    [3, 3, 3, 2, 1]
    """
    left = _reading_layout(diagram)[0]
    n = len(left)
    return next(
        t
        for t in range(min(3, n), 0, -1)
        if all(not 0 <= left[p] < n - t for p in range(n - t + 1, n))
    )


def _pass(diagram: Diagram, h: tuple[int, ...]) -> Iterator[_PrefixState]:
    """The prefix state of every permissible filling, in lexicographic order
    of reading word, from one backtracking pass.

    The pass places boxes in reading order, so the reading word is the
    sequence of placed values, and a box's left neighbor (in the previous
    column) is already placed: each adjacency is checked once, as early as
    possible.  Each depth keeps the mask of the values still to try there
    and its prefix state (``_PrefixState``): the mask of the values placed
    before it and the packed x and count of the pairs settled so far.
    Placing a box settles the pairs of at most two values, each pair set
    looked up by its integer key.  From depth ``len(diagram)`` on, every
    box left has a left neighbor, so the first box to take a value left up
    to t follows a placed value (at ``near[k]``) or a value left above t,
    at most h(t) either way: the prefix is cut when some t left with h(t)
    < n has ``capped[t] & (placed | rest & above[t]) == 0``, a test skipped
    when a placed value meets the smallest value left, and so every t.  On
    the single row this is exact (after p, the last value placed, the next
    value left above the largest t left with h(t) < p, those below it
    descending, then the rest ascending, is permissible), so the pass
    extends no dead prefix there: h = identity takes O(n^2) steps, not 2^n.

    The last T <= 3 boxes, the tail (``_tail_length``), are not placed one
    by one.  Every tail box but the first has its left neighbor in the
    tail or none, so which orders of the values left fit the tail's own
    adjacencies, and the pairs those boxes settle, depend only on the
    mask ``rest`` of the values left: ``seen`` there is ``full ^ rest``.
    A table of the pass holds those orders in lexicographic order,
    grouped by first value, each with the tail values' pair-set keys and
    the packed counts they add: at most C(n, T) * T! orders (336 at
    n = 8), each placed once with ``place`` when its ``rest`` first
    appears.  What the prefix adds, the first tail box's left neighbor
    (the head), is settled once per node for each first value: whether
    the value may follow the head and the head's pair-set key.  A leaf
    then costs a few list stores.

    One state is yielded at every leaf, with every box placed; it is the
    same object each time, valid until the pass takes its next step.  Its
    ``word``, ``tops[-1]`` (the packed x and degree), ``pairs_of`` (the
    pair-set keys), ``point()``, ``x()``, ``degree()``, ``pairs()`` and
    ``filling(tuple(word))`` read the filling off it, and a consumer
    builds only what it reads; ``seen`` and ``tops`` at the tail's inner
    depths are not kept.
    """
    n, rows = len(h), len(diagram)
    left = _reading_layout(diagram)[0]
    state = _PrefixState(diagram, h)
    word, seen, tops, pairs_of = state.word, state.seen, state.tops, state.pairs_of
    place, spread, capped, above = state.place, state.spread, state.capped, state.above
    full = (2 << n) - 2  # bits of the values 1..n
    # allowed[a]: the values v with a <= h(v), those that may sit right of a
    allowed = [0] + [
        sum(1 << v for v in range(1, n + 1) if h[v - 1] >= a) for a in range(1, n + 1)
    ]
    # the values t with h(t) < n, and near[k]: the placed positions left of unplaced ones
    narrow = sum(1 << v for v in range(1, n + 1) if h[v - 1] < n)
    near = [
        tuple(sorted({left[p] for p in range(k, n) if 0 <= left[p] < k}))
        for k in range(n)
    ]
    k0 = n - _tail_length(diagram)  # the tail's first position
    head = left[k0]

    def completions(rest: int) -> list:
        # Each order of rest that meets the tail's own adjacencies, placed
        # once at this node, by first value: (order, each tail value and
        # its pair-set key, padded to three by (0, 0), the packed counts
        # of the tail's pairs, the head's taken back out).  Every field
        # placing writes here is written again before a leaf is yielded.
        groups = {}
        for order in permutations(set_bits(rest)):
            for p, v in enumerate(order, k0):
                if left[p] >= k0 and not allowed[word[left[p]]] >> v & 1:
                    break
                place(p, v)
            else:
                keys = [(v, pairs_of[v]) for v in order + (0, 0)[len(order) - 1 :]]
                counts = tops[n] - tops[k0]
                if head >= 0:
                    counts -= spread[pairs_of[word[head]]]
                entry = (order, *chain.from_iterable(keys), counts)
                groups.setdefault(order[0], []).append(entry)
        return [*groups.items()]

    tail = _Table(completions)
    # An explicit stack: free[k] holds the values still to try at position
    # k < k0, lowest first.  Nested generators would pass every state up
    # through n frames.  Depth k0 takes its leaves from the tail table.
    free = [0] * k0
    k = 0
    rest = full
    while True:
        if k == k0:
            # the head's value a (0, whose key pairs_of[0] stays 0, when
            # there is none), the first values that fit right of it, and
            # the mask that each first value v caps at h(v) for a's pairs
            t = tops[k]
            if head < 0:
                a, fit, mask = 0, full, 0
            else:
                a = word[head]
                fit, mask = allowed[a], seen[head] & above[a]
            for v, ends in tail[rest]:
                if fit >> v & 1:
                    key = mask & capped[v]
                    base = t
                    if key:
                        key |= 1 << a
                        base += spread[key]
                    pairs_of[a] = key
                    for order, a0, p0, a1, p1, a2, p2, counts in ends:
                        word[k0:] = order
                        pairs_of[a0] = p0
                        pairs_of[a1] = p1
                        pairs_of[a2] = p2
                        tops[n] = base + counts
                        yield state
            c = 0
        else:
            lk = left[k]
            c = rest if lk < 0 else rest & allowed[word[lk]]
            if c and k >= rows and rest & narrow:
                placed = 0
                for q in near[k]:
                    placed |= 1 << word[q]
                if not placed & capped[(rest & -rest).bit_length() - 1]:
                    for t in set_bits(rest & narrow):
                        if not capped[t] & (placed | rest & above[t]):
                            c = 0
                            break
        while not c:
            if not k:
                return
            k -= 1
            c = free[k]
        low = c & -c
        free[k] = c ^ low
        place(k, low.bit_length() - 1)
        k += 1
        rest = full ^ seen[k]


def enumerate_permissible(diagram: Diagram, h: Sequence[int]) -> list[Filling]:
    """All permissible fillings, in lexicographic order of reading word,
    read off the leaf states of the one backtracking pass (``_pass``)."""
    return [state.filling(tuple(state.word)) for state in _leaf_states(diagram, h)]


# ---------------------------------------------------------------------------
# Dimension pairs and the omega correspondence


def dimension_pairs(filling: Filling, h: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The dimension pairs (a, b) of a permissible filling; ValueError
    unless ``h`` is a Hessenberg function and the filling is permissible
    for it.

    >>> sorted(dimension_pairs(((2, 4, 3, 1, 5),), (3, 3, 4, 5, 5)))
    [(1, 2), (1, 3), (1, 4)]
    """
    word, h = _checked(filling, h)
    return frozenset(_placed(filling, word, h).pairs())


def _placed(filling: Filling, word: Perm, h: Sequence[int]) -> _PrefixState:
    """The prefix state of ``filling``, with reading word ``word``, once
    every box is placed, for checked arguments (``_checked``); ValueError
    unless the filling is permissible."""
    hit = _violation(filling, h)
    if hit is not None:
        raise ValueError(f"filling {filling} is not permissible: {_describe(hit, h)}")
    state = _PrefixState(tuple(map(len, filling)), h)
    for k, val in enumerate(word):
        state.place(k, val)
    return state


def top_parts(pairs: frozenset[tuple[int, int]], n: int) -> tuple[int, ...]:
    """The counts (x_2, ..., x_n) of dimension pairs by top part.

    >>> top_parts(frozenset({(1, 2), (1, 3), (2, 3), (1, 4)}), 5)
    (1, 2, 1, 0)
    """
    counts = [0] * (n + 1)
    for a, b in pairs:
        if not 1 <= a < b <= n:
            raise ValueError(f"bad dimension pair ({a}, {b}) for n = {n}")
        counts[b] += 1
    x = tuple(counts[2:])
    for l, xl in enumerate(x, start=2):
        if xl > l - 1:
            raise RuntimeError(f"invariant breach: x_{l} = {xl} exceeds {l - 1}")
    return x


def _checked_x(x: Sequence[int]) -> tuple[int, ...]:
    """``x`` as a tuple, raising ValueError unless each x_l is an integer
    with 0 <= x_l <= l - 1."""
    for l, xl in enumerate(x, start=2):
        if not isinstance(xl, int) or not 0 <= xl <= l - 1:
            raise ValueError(f"x_{l} = {xl!r} is not an integer in 0..{l - 1}")
    return tuple(x)


def omega_word(x: Sequence[int]) -> Word:
    """The reduced word u_2 u_3 ... u_n with u_l = s_{l-1} s_{l-2} ... s_{l-x_l}.

    >>> omega_word((1, 2, 1, 0))
    (1, 2, 1, 3)
    """
    return tuple(
        letter
        for l, xl in enumerate(_checked_x(x), start=2)
        for letter in range(l - 1, l - 1 - xl, -1)
    )


def _omega(x: Sequence[int]) -> Perm:
    """omega(x), built by n - 1 list inserts; x is not checked.  This is the
    one product of x vectors: ``omega`` checks x first, ``_halves`` fills
    its tables from it, and the rolldown omega(x)^{-1} of a point with
    top-part vector x is its inverse.

    The block u_l of ``omega_word(x)`` moves l left past x_l smaller values,
    so in omega(x) the value l sits after exactly x_l of 1..l-1 less than
    l: l goes in at index l - 1 - x_l of the values 1..l-1 placed so far.

    >>> _omega((1, 2, 1, 0))
    (3, 2, 4, 1, 5)
    """
    w = [1]
    for l, xl in enumerate(x, 2):
        w.insert(l - 1 - xl, l)
    return tuple(w)


def _gather(w: Perm) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """The map p -> (p[w(1) - 1], ..., p[w(n) - 1]), one C call."""
    return itemgetter(*[v - 1 for v in w]) if len(w) > 1 else tuple


def _record_code(n: int) -> str:
    """The typecode of the smallest array type that holds 1..n: a
    permutation of S_n as a pinball record is the bytes of
    ``array(_record_code(n), w)``, one byte an entry for n < 256."""
    return next(c for c in "BHI" if n < 1 << 8 * array(c).itemsize)


class _Halves(NamedTuple):
    """omega(x) of a packed x (``_packing``) from two tables, as a record
    (``_record_code``).

    omega(x) is the product of the blocks u_2 ... u_n, so with x split
    after x_m it is omega(x_2, ..., x_m, 0, ...) o omega(0, ..., x_{m+1},
    ..., x_n): as one-line tuples, the first read at the positions of the
    second.  For a packed t, ``gathers[t & high](omegas[t & low])`` is the
    record of omega(x), one C call.  For n < 256 ``omegas`` maps the low
    half to the 256-byte translation table T of its permutation, T[j] its
    value at j, and ``gathers`` maps the high half to the bound
    ``translate`` of its permutation's bytes.  For n >= 256 ``omegas``
    holds the low half's permutation and ``gathers`` the ``_gather`` of
    the high half's, with its result encoded.  Both tables are filled by
    ``_omega`` as keys first appear.  m minimises m! + n!/m!, the most
    entries the two can hold: 456 at n = 8."""

    split: int
    low: int
    high: int
    omegas: _Table
    gathers: _Table


@functools.lru_cache(maxsize=None)
def _halves(n: int) -> _Halves:
    width, _, count, x = _packing(n)
    m = min(range(1, n + 1), key=lambda m: factorial(m) + factorial(n) // factorial(m))
    low = ((1 << width * (m + 1)) - 1) ^ count
    high = ((1 << width * (n + 1)) - 1) ^ low ^ count
    code = _record_code(n)
    if code == "B":
        omegas = _Table(lambda key: bytes((0, *_omega(x(key)))).ljust(256, b"\0"))
        gathers = _Table(lambda key: bytes(_omega(x(key))).translate)
    else:
        omegas = _Table(lambda key: _omega(x(key)))

        def gather(key: int) -> Callable[[Perm], bytes]:
            take = _gather(_omega(x(key)))
            return lambda p: array(code, take(p)).tobytes()

        gathers = _Table(gather)
    return _Halves(m, low, high, omegas, gathers)


def omega(x: Sequence[int]) -> Perm:
    """The permutation of S_n attached to x = (x_2, ..., x_n), n = len(x) + 1.

    >>> omega((1, 2, 1, 0))
    (3, 2, 4, 1, 5)
    """
    return _omega(_checked_x(x))


def omega_inverse(w: Perm) -> tuple[int, ...]:
    """The vector x with omega(x) = w: x_l counts inversions with l on top.

    >>> omega_inverse((3, 2, 4, 1, 5))
    (1, 2, 1, 0)
    >>> x = (0, 2, 1)
    >>> omega_inverse(omega(x)) == x
    True
    """
    w = validate(w)
    n = len(w)
    pos = {val: i for i, val in enumerate(w)}
    return tuple(
        sum(1 for a in range(1, l) if pos[l] < pos[a]) for l in range(2, n + 1)
    )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
