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
that b comes before a in the reading word.  ``permissible_records`` uses
this to yield every permissible filling with its reading word, dimension
pairs and x from one backtracking pass, which places the boxes in reading
order.
"""

from __future__ import annotations

import functools
from typing import Iterator, NamedTuple, Optional, Sequence

from .permutations import Perm, Word, from_word, inverse, validate

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


def _word_pairs(word: Perm, right: Sequence[int], h: Sequence[int]):
    """Sorted dimension pairs and x of the filling read as ``word``.

    (a, b) is a pair iff a < b <= cap(a) and b comes before a in the word,
    where cap(a) is h of a's right neighbor, or n if a has none.
    """
    n = len(word)
    pos = [0] * (n + 1)
    for k, val in enumerate(word):
        pos[val] = k
    pairs = []
    counts = [0] * (n + 1)
    for a in range(1, n + 1):
        k = pos[a]
        r = right[k]
        for b in range(a + 1, (h[word[r] - 1] if r >= 0 else n) + 1):
            if pos[b] < k:
                pairs.append((a, b))
                counts[b] += 1
    return tuple(pairs), tuple(counts[2:])


def permissible_records(
    diagram: Diagram, h: Sequence[int]
) -> Iterator[PermissibleRecord]:
    """Every permissible filling as a record, in lexicographic order of
    reading word, from one backtracking pass.

    The pass places boxes in reading order, so the reading word is the
    sequence of placed values, and a box's left neighbor (in the previous
    column) is already placed: each adjacency is checked once, as early as
    possible.  The arguments are checked when this is called; the records
    come lazily.
    """
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    n = diagram_size(diagram)
    if len(h) != n:
        raise ValueError(f"h has length {len(h)}, diagram has {n} boxes")
    return _records(diagram, h)


def _records(
    diagram: Diagram, h: tuple[int, ...]
) -> Iterator[PermissibleRecord]:
    n = len(h)
    left, right, rows = _reading_layout(diagram)
    # least[k] is the least v with h(v) >= k: v may sit right of k iff
    # v >= least[k], since h is weakly increasing
    least = [0] + [
        next(v for v in range(1, n + 1) if h[v - 1] >= k) for k in range(1, n + 1)
    ]
    # An explicit stack: start[k] is the next value to try at position k.
    # Nested generators would pass every record up through n frames.
    word = [0] * n
    used = [False] * (n + 1)
    start = [1] * n
    last = n - 1
    k = 0
    while True:
        val = start[k]
        while val <= n and used[val]:
            val += 1
        if val > n:
            if k == 0:
                return
            k -= 1
            used[word[k]] = False
            start[k] = word[k] + 1
            continue
        word[k] = val
        if k == last:
            start[k] = val + 1
            w = tuple(word)
            pairs, x = _word_pairs(w, right, h)
            filling = tuple(tuple(w[p] for p in row) for row in rows)
            yield PermissibleRecord(filling, w, pairs, x)
            continue
        used[val] = True
        k += 1
        start[k] = least[word[left[k]]] if left[k] >= 0 else 1


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
    _, right, _ = _reading_layout(diagram)
    pairs, _ = _word_pairs(validate(reading_word(filling)), right, h)
    return frozenset(pairs)


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


def omega_word(x: Sequence[int]) -> Word:
    """The reduced word u_2 u_3 ... u_n with u_l = s_{l-1} s_{l-2} ... s_{l-x_l}.

    >>> omega_word((1, 2, 1, 0))
    (1, 2, 1, 3)
    """
    word: list[int] = []
    for l, xl in enumerate(x, start=2):
        if not 0 <= xl <= l - 1:
            raise ValueError(f"x_{l} = {xl} out of range 0..{l - 1}")
        word.extend(range(l - 1, l - 1 - xl, -1))
    return tuple(word)


def omega(x: Sequence[int]) -> Perm:
    """The permutation of S_n attached to x = (x_2, ..., x_n), n = len(x) + 1.

    >>> omega((1, 2, 1, 0))
    (3, 2, 4, 1, 5)
    """
    n = len(x) + 1
    return from_word(n, omega_word(x))


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
