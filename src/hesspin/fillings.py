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
``_PrefixState`` keeps, per depth, the mask of the values placed and the
packed counts x.  ``_pass`` carries it down the one backtracking pass and
yields it at each leaf: ``permissible_records`` builds its records from
those states, while ``hesspin fillings`` and the table functions of
``pinball`` read the word, the pair sets and x off them in place.
``dimension_pairs`` walks the state over one reading word.

``omega(x)`` is the product of ``omega_word(x)``.  ``_omega`` is the one
product of x vectors: it builds omega(x) by n - 1 list inserts, with no
word built.  ``omega`` checks x first, and ``_roll`` inverts it into the
rolldown of a point with top-part vector x.
"""

from __future__ import annotations

import functools
import struct
from itertools import chain, repeat
from typing import Iterator, NamedTuple, Optional, Sequence

from .permutations import Perm, Word, inverse, set_bits, validate

__all__ = [
    "Diagram",
    "Filling",
    "is_hessenberg",
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
    "PermissibleRecord",
    "permissible_records",
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


def is_hessenberg(h: Sequence[int]) -> bool:
    """Whether ``h`` is a valid Hessenberg function on its index range."""
    try:
        validate_hessenberg(h)
    except ValueError:
        return False
    return True


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
    """Lengths of the columns (the conjugate diagram).

    >>> column_lengths((3, 2))
    (2, 2, 1)
    """
    ncols = diagram[0]
    return tuple(sum(1 for part in diagram if part >= c) for c in range(1, ncols + 1))


@functools.lru_cache(maxsize=None)
def reading_order(diagram: Diagram) -> tuple[tuple[int, int], ...]:
    """Boxes in reading order: columns left to right, bottom to top.

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
    """The permutation read off column by column, bottom to top."""
    shape = tuple(len(row) for row in filling)
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
    """First horizontal adjacency k|j with k > h(j), or None.

    Returns (row, col, k, j) where k sits at (row, col) and j at (row, col+1).
    """
    for r, row in enumerate(filling, start=1):
        for c in range(1, len(row)):
            k, j = row[c - 1], row[c]
            if k > h[j - 1]:
                return (r, c, k, j)
    return None


def permissibility_error(filling: Filling, h: Sequence[int]) -> str:
    """Human-readable description of the first violating adjacency."""
    hit = permissibility_violation(filling, h)
    if hit is None:
        return "filling is permissible"
    r, c, k, j = hit
    return (
        f"adjacency {k}|{j} at row {r}, columns {c},{c + 1} "
        f"violates {k} <= h({j}) = {h[j - 1]}"
    )


def is_permissible(filling: Filling, h: Sequence[int]) -> bool:
    """Whether every horizontal adjacency k|j satisfies k <= h(j).

    >>> is_permissible(((2, 4, 3, 1, 5),), (3, 3, 4, 5, 5))
    True
    >>> is_permissible(((2, 3, 4, 1, 5),), (3, 3, 4, 5, 5))
    False
    """
    return permissibility_violation(filling, h) is None


class PermissibleRecord(NamedTuple):
    """One permissible filling with its reading word, sorted dimension
    pairs and top-part vector x; the field names are the json keys of
    ``hesspin fillings``."""

    filling: Filling
    word: Perm
    pairs: tuple[tuple[int, int], ...]
    x: tuple[int, ...]


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


@functools.lru_cache(maxsize=None)
def _packing(n: int):
    """How x is packed for S_n: one field per top part, of the smallest
    standard size that holds x_l <= n - 1.  Returns ``unit``, where adding
    ``unit[b]`` counts one more pair with top part b, the packed byte length
    and the unpacker giving (x_2, ..., x_n)."""
    code = next(c for c in "BHIQ" if n <= 1 << 8 * struct.calcsize("<" + c))
    size = struct.calcsize("<" + code)
    unit = tuple(1 << 8 * size * b for b in range(n + 1))
    return unit, (n + 1) * size, struct.Struct(f"<{2 * size}x{n - 1}{code}").unpack


class _PairSets(dict):
    """Settled pair sets, keyed by ``mask | 1 << a``: a value a and the mask
    of the values b that form a dimension pair (a, b), all above a.  Each
    key maps to the pairs ((a, b) for b in the mask, ascending) and their
    packed top-part counts, the sum of ``unit[b]``."""

    def __init__(self, unit: tuple[int, ...]):
        super().__init__()
        self.unit = unit

    def __missing__(self, key: int):
        low = key & -key
        tops = list(set_bits(key ^ low))
        value = self[key] = (
            tuple(zip(repeat(low.bit_length() - 1), tops)),
            sum(map(self.unit.__getitem__, tops)),
        )
        return value


class _PrefixState:
    """The dimension pair rule for boxes placed in reading order.

    ``place(k, val)`` puts ``val`` at reading position k, given the state
    of positions 0..k-1: ``word[:k]``, ``seen[k]`` (the mask of values
    placed, bit v for value v) and ``tops[k]`` (the packed top-part counts
    of the pairs settled so far).  It writes ``word[k]``, ``where[val] =
    k + 1``, ``seen[k + 1]`` and ``tops[k + 1]``, so a backtracking pass
    keeps one state per depth.

    Placing a box settles the pairs of at most two values.  Its left
    neighbor a now has cap h(val), and a's pairs are the values in
    (a, h(val)] placed before a: ``seen[left] & (a, h(val)]``.  If the box
    has no right neighbor, val's cap is n and its pairs are ``seen[k] &
    (val, n]``.  ``pairs_of[a]`` holds a's pairs; once every box is placed,
    ``pairs()`` and ``x()`` read the sorted pairs and x off the state,
    ``point()`` the fixed point ``word^{-1}`` (value v sits at position
    ``where[v]``), and ``filling(tuple(word))`` the filling.
    """

    __slots__ = (
        "word",
        "where",
        "seen",
        "tops",
        "pairs_of",
        "place",
        "_rows",
        "_unpack",
        "_size",
    )

    def __init__(self, diagram: Diagram, h: Sequence[int]):
        n = len(h)
        left, right, self._rows = _reading_layout(diagram)
        unit, self._size, self._unpack = _packing(n)
        sets = _PairSets(unit)
        capped = [0] + [(2 << c) - 1 for c in h]  # bits of the values <= h(v)
        above = [~((2 << a) - 1) for a in range(n + 1)]  # bits of the values > a
        word = self.word = [0] * n
        where = self.where = [0] * (n + 1)
        seen = self.seen = [0] * (n + 1)
        tops = self.tops = [0] * (n + 1)
        pairs_of = self.pairs_of = [()] * (n + 1)

        def place(k: int, val: int) -> None:
            word[k] = val
            where[val] = k + 1
            s = seen[k]
            t = tops[k]
            lk = left[k]
            if lk >= 0:
                a = word[lk]
                pairs_of[a], spread = sets[seen[lk] & capped[val] & above[a] | 1 << a]
                t += spread
            if right[k] < 0:
                pairs_of[val], spread = sets[s & above[val] | 1 << val]
                t += spread
            seen[k + 1] = s | 1 << val
            tops[k + 1] = t

        self.place = place

    def point(self) -> Perm:
        return tuple(self.where[1:])

    def filling(self, w: Perm) -> Filling:
        """The filling with reading word ``w``, the word placed so far."""
        return tuple([tuple([w[p] for p in row]) for row in self._rows])

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(chain.from_iterable(self.pairs_of))

    def x(self) -> tuple[int, ...]:
        return self._unpack(self.tops[-1].to_bytes(self._size, "little"))


def permissible_records(
    diagram: Diagram, h: Sequence[int]
) -> Iterator[PermissibleRecord]:
    """Every permissible filling as a record, in lexicographic order of
    reading word, built from the leaf states of the one backtracking pass
    (``_pass``).  The arguments are checked when this is called; the
    records come lazily.
    """
    return _records(_leaf_states(diagram, h))


def _records(states: Iterator[_PrefixState]) -> Iterator[PermissibleRecord]:
    for state in states:
        w = tuple(state.word)
        yield PermissibleRecord(state.filling(w), w, state.pairs(), state.x())


def _leaf_states(diagram: Diagram, h: Sequence[int]) -> Iterator[_PrefixState]:
    """``_pass(diagram, h)``, with the arguments checked when this is called."""
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    n = diagram_size(diagram)
    if len(h) != n:
        raise ValueError(f"h has length {len(h)}, diagram has {n} boxes")
    return _pass(diagram, h)


def _pass(diagram: Diagram, h: tuple[int, ...]) -> Iterator[_PrefixState]:
    """The prefix state of every permissible filling, in lexicographic order
    of reading word, from one backtracking pass.

    The pass places boxes in reading order, so the reading word is the
    sequence of placed values, and a box's left neighbor (in the previous
    column) is already placed: each adjacency is checked once, as early as
    possible.  Each depth keeps the mask of the values still to try there
    and its prefix state (``_PrefixState``): the mask of the values placed
    before it and the packed x of the pairs settled so far.  Placing a box
    settles the pairs of at most two values, each pair set looked up by
    value and mask, so a leaf costs O(n) steps.  A prefix that no filling
    extends is cut as soon as the smallest value still to place has no
    left neighbor it fits (see the loop), so h = identity on the single
    row, with its one filling, takes O(n^2) steps rather than 2^n.

    One state is yielded at every leaf, with every box placed; it is the
    same object each time, valid until the pass takes its next step.  Its
    ``word``, ``point()``, ``x()``, ``pairs()`` and ``filling(tuple(word))``
    read the filling off it, and a consumer builds only what it reads.
    """
    n = len(h)
    left = _reading_layout(diagram)[0]
    state = _PrefixState(diagram, h)
    word, seen, place = state.word, state.seen, state.place
    full = (2 << n) - 2  # bits of the values 1..n
    # allowed[a]: the values v with a <= h(v), those that may sit right of a
    allowed = [0] + [
        sum(1 << v for v in range(1, n + 1) if h[v - 1] >= a) for a in range(1, n + 1)
    ]
    # Dead prefixes.  Once the first column is placed, every unplaced
    # position has a left neighbor, so the smallest unplaced value m needs
    # some a <= h(m) left of it: a placed value at the left neighbor of an
    # unplaced position (at the positions near[k]) or another unplaced
    # value.  One always exists when h(m) = n, so only the values with
    # h(m) < n are tested, and only from depth len(diagram) on (tight[k]).
    # fits[1 << m] holds the bits of the values a <= h(m).
    fits = {1 << v: (2 << h[v - 1]) - 1 for v in range(1, n + 1)}
    narrow = sum(1 << v for v in range(1, n + 1) if h[v - 1] < n)
    tight = [narrow if k >= len(diagram) else 0 for k in range(n)]
    near = [
        tuple(sorted({left[p] for p in range(k, n) if 0 <= left[p] < k}))
        for k in range(n)
    ]
    # An explicit stack: free[k] holds the values still to try at position k,
    # lowest first.  Nested generators would pass every state up through n
    # frames.
    free = [0] * n
    free[0] = full
    last = n - 1
    k = 0
    while True:
        c = free[k]
        if not c:
            if k == 0:
                return
            k -= 1
            continue
        low = c & -c
        free[k] = c ^ low
        place(k, low.bit_length() - 1)
        if k == last:
            yield state
            continue
        k += 1
        rest = full ^ seen[k]
        m = rest & -rest
        if m & tight[k]:
            others = rest ^ m
            for q in near[k]:
                others |= 1 << word[q]
            if not others & fits[m]:
                k -= 1
                continue
        lk = left[k]
        free[k] = rest if lk < 0 else rest & allowed[word[lk]]


def enumerate_permissible(diagram: Diagram, h: Sequence[int]) -> list[Filling]:
    """All permissible fillings, in lexicographic order of reading word."""
    return [rec.filling for rec in permissible_records(diagram, h)]


# ---------------------------------------------------------------------------
# Dimension pairs and the omega correspondence


def dimension_pairs(filling: Filling, h: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The dimension pairs (a, b) of a permissible filling.

    >>> sorted(dimension_pairs(((2, 4, 3, 1, 5),), (3, 3, 4, 5, 5)))
    [(1, 2), (1, 3), (1, 4)]
    """
    diagram = validate_diagram(tuple(len(row) for row in filling))
    n = diagram_size(diagram)
    if len(h) != n:
        raise ValueError(f"h has length {len(h)}, filling has {n} boxes")
    state = _PrefixState(diagram, h)
    for k, val in enumerate(validate(reading_word(filling))):
        state.place(k, val)
    return frozenset(state.pairs())


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
    """``x`` as a tuple, raising ValueError unless 0 <= x_l <= l - 1."""
    for l, xl in enumerate(x, start=2):
        if not 0 <= xl <= l - 1:
            raise ValueError(f"x_{l} = {xl} out of range 0..{l - 1}")
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
    one product of x vectors: ``omega`` checks x first, ``_roll`` inverts.

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


def _roll(x: Sequence[int]) -> Perm:
    """omega(x)^{-1}, the rolldown of any fixed point with top-part vector
    x, which is ``from_word(n, reversed(omega_word(x)))``; x is not checked.

    >>> _roll((1, 2, 1, 0))
    (4, 2, 1, 3, 5)
    """
    return inverse(_omega(x))


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
