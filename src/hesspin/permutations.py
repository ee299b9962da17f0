"""Permutations in one-line notation, reduced words, and Bruhat order.

Bruhat order is decided by packed rank keys (``BruhatKeys``): each
permutation's rank counts fit in one integer, and one comparison is one
subtraction.  Bulk consumers take a whole relation at once from
``bruhat_table``, one bitmask per row, built from rank-count thresholds;
``set_bits`` reads a mask's set bits in ascending order.

A permutation ``w`` in S_n is stored as the tuple ``(w(1), ..., w(n))`` of
1-indexed values, so ``w[i - 1]`` is ``w(i)``.  Products compose as
functions, ``compose(u, v)(i) = u(v(i))``, and a word ``s_{b_1} ... s_{b_k}``
is multiplied out left to right under that convention (the rightmost letter
acts first on points).

>>> w = from_word(5, (1, 2, 1, 3))
>>> w
(3, 2, 4, 1, 5)
>>> inversions(w)
4
>>> canonical_word(w)
(1, 2, 3, 1)
>>> from_word(5, canonical_word(w)) == w
True
>>> bruhat_leq((2, 1, 3), (3, 2, 1))
True
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterator, Sequence

__all__ = [
    "Perm",
    "Word",
    "identity",
    "is_permutation",
    "validate",
    "compose",
    "inverse",
    "simple",
    "from_word",
    "is_reduced_word",
    "inversions",
    "descents",
    "canonical_word",
    "BruhatKeys",
    "bruhat_keys",
    "bruhat_key",
    "bruhat_leq",
    "bruhat_table",
    "set_bits",
    "all_permutations",
]

Perm = tuple[int, ...]
Word = tuple[int, ...]


def identity(n: int) -> Perm:
    """The identity of S_n.

    >>> identity(4)
    (1, 2, 3, 4)
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return tuple(range(1, n + 1))


def is_permutation(seq: Sequence[int]) -> bool:
    """Whether ``seq`` is a rearrangement of 1..len(seq).

    >>> is_permutation((2, 4, 3, 1, 5))
    True
    >>> is_permutation((1, 2, 2))
    False
    """
    return sorted(seq) == list(range(1, len(seq) + 1))


def validate(w: Sequence[int]) -> Perm:
    """Return ``w`` as a tuple, raising ValueError if it is not a permutation."""
    t = tuple(w)
    if not t or not is_permutation(t):
        raise ValueError(f"not a permutation of 1..{len(t)}: {t}")
    return t


def compose(u: Perm, v: Perm) -> Perm:
    """The product u * v acting as u(v(i)).

    >>> compose((2, 1, 3), (1, 3, 2))
    (2, 3, 1)
    """
    if len(u) != len(v):
        raise ValueError(f"size mismatch: {len(u)} vs {len(v)}")
    return tuple(u[j - 1] for j in v)


def inverse(w: Perm) -> Perm:
    """The inverse permutation.

    >>> inverse((3, 2, 4, 1, 5))
    (4, 2, 1, 3, 5)
    >>> all(compose(w, inverse(w)) == identity(3) for w in all_permutations(3))
    True
    """
    out = [0] * len(w)
    for i, val in enumerate(w):
        out[val - 1] = i + 1
    return tuple(out)


def simple(i: int, n: int) -> Perm:
    """The simple transposition s_i in S_n, swapping i and i + 1.

    >>> simple(2, 4)
    (1, 3, 2, 4)
    """
    if not 1 <= i <= n - 1:
        raise ValueError(f"s_{i} is not a generator of S_{n}")
    w = list(range(1, n + 1))
    w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def from_word(n: int, word: Sequence[int]) -> Perm:
    """Multiply out a word in the generators, left to right.

    >>> from_word(3, (1, 2, 1))
    (3, 2, 1)
    >>> from_word(4, ()) == identity(4)
    True
    """
    w = list(range(1, n + 1))
    for i in word:
        if not 1 <= i <= n - 1:
            raise ValueError(f"letter {i} out of range for S_{n}")
        # right multiplication by s_i swaps the entries at positions i, i+1
        w[i - 1], w[i] = w[i], w[i - 1]
    return tuple(w)


def is_reduced_word(n: int, word: Sequence[int]) -> bool:
    """Whether ``word`` has minimal length among words for its product.

    >>> is_reduced_word(3, (1, 2, 1))
    True
    >>> is_reduced_word(3, (1, 1))
    False
    """
    return inversions(from_word(n, word)) == len(word)


def inversions(w: Perm) -> int:
    """The number of inversions of ``w``, which is its Coxeter length.

    Each entry v adds the number of larger entries before it, one bit count
    of the mask of the entries seen so far (bit u for entry u).

    >>> inversions((3, 2, 4, 1, 5))
    4
    """
    seen = total = 0
    for v in w:
        total += (seen >> v).bit_count()
        seen |= 1 << v
    return total


def descents(w: Perm) -> tuple[int, ...]:
    """The right descent set {i : w(i) > w(i+1)}, as positions.

    >>> descents((3, 2, 4, 1, 5))
    (1, 3)
    """
    return tuple(i + 1 for i in range(len(w) - 1) if w[i] > w[i + 1])


def canonical_word(w: Perm) -> Word:
    """A deterministic reduced word for ``w``.

    Repeatedly strips the leftmost descent: if i is the smallest position
    with w(i) > w(i+1) then w s_i is shorter, and the letters collected on
    the way down, read in reverse, multiply back up to ``w``.

    >>> canonical_word((3, 2, 1))
    (1, 2, 1)
    >>> canonical_word((1, 2, 3))
    ()
    """
    cur = list(w)
    stripped = []
    while True:
        for i in range(len(cur) - 1):
            if cur[i] > cur[i + 1]:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                stripped.append(i + 1)
                break
        else:
            break
    return tuple(reversed(stripped))


class BruhatKeys:
    """Packed rank keys for Bruhat order on S_n.

    The key of w packs the rank counts c_w(k, j) = #{a <= k : w(a) <= j}
    for 1 <= k, j <= n - 1 into one integer, a field of
    ``n.bit_length() + 1`` bits per count.  Counts stay below n, so the
    top (guard) bit of every field is free.  v <= w exactly when
    c_v >= c_w in every field (Bjorner and Brenti, *Combinatorics of
    Coxeter Groups*, Sec. 2.1), and one subtraction with every guard bit
    set borrows out of a field's guard exactly where that field of v is
    smaller.  Row k of the counts is row k - 1 plus a 1 in each field
    j >= w(k).

    >>> keys = bruhat_keys(3)
    >>> keys.leq(keys.key((2, 1, 3)), keys.key((3, 2, 1)))
    True
    >>> keys.leq(keys.key((2, 3, 1)), keys.key((3, 1, 2)))
    False
    """

    __slots__ = ("n", "_row", "_guard", "_tails", "_shifts", "_field")

    def __init__(self, n: int):
        width = n.bit_length() + 1
        self.n = n
        self._row = width * (n - 1)
        # _tails[v] has a 1 in each field j >= v of one row; _tails[n] = 0
        tails = [0] * (n + 1)
        for v in range(n - 1, 0, -1):
            tails[v] = tails[v + 1] | (1 << (width * (v - 1)))
        self._tails = tuple(tails)
        guards = tails[1] << (width - 1)
        self._guard = sum(guards << (self._row * k) for k in range(n - 1))
        self._shifts = range(0, self._row * (n - 1), width)
        self._field = (1 << width) - 1

    def key(self, w: Perm) -> int:
        """The packed rank counts of w, row 1 in the top bits."""
        if len(w) != self.n:
            raise ValueError(f"size mismatch: {len(w)} vs {self.n}")
        tails, shift = self._tails, self._row
        key = row = 0
        for value in w[:-1]:
            row += tails[value]
            key = (key << shift) | row
        return key

    def key_and_length(self, w: Perm) -> tuple[int, int]:
        """``key(w)`` and ``inversions(w)``, in one loop over w.

        The row packed before each entry is the one before it, so the
        first packed row is empty (adding nothing) and the full last row
        is left out, as in ``key``.

        >>> keys = bruhat_keys(3)
        >>> keys.key_and_length((2, 3, 1)) == (keys.key((2, 3, 1)), 2)
        True
        """
        if len(w) != self.n:
            raise ValueError(f"size mismatch: {len(w)} vs {self.n}")
        tails, shift = self._tails, self._row
        key = row = seen = length = 0
        for value in w:
            length += (seen >> value).bit_count()
            seen |= 1 << value
            key = (key << shift) | row
            row += tails[value]
        return key, length

    def leq(self, kv: int, kw: int) -> bool:
        """Whether v <= w, given their keys."""
        guard = self._guard
        return ((kv | guard) - kw) & guard == guard

    def counts(self, key: int) -> list[int]:
        """The (n - 1)^2 rank counts packed in ``key``, bottom field first.

        >>> bruhat_keys(3).counts(bruhat_key((2, 3, 1)))
        [0, 1, 0, 1]
        """
        field = self._field
        return [key >> s & field for s in self._shifts]


@functools.lru_cache(maxsize=None)
def bruhat_keys(n: int) -> BruhatKeys:
    """The (shared) packed rank keys of S_n."""
    return BruhatKeys(n)


def bruhat_key(w: Perm) -> int:
    """The packed rank key of w; see ``BruhatKeys``.

    >>> bruhat_key((1, 2)), bruhat_key((2, 1))
    (1, 0)
    """
    return bruhat_keys(len(w)).key(w)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Whether v <= w in Bruhat order, by comparing packed rank keys.

    >>> bruhat_leq((2, 1, 3), (3, 1, 2))
    True
    >>> bruhat_leq((3, 6, 8, 4, 7, 5, 9, 1, 2), (6, 9, 4, 2, 8, 7, 5, 3, 1))
    False
    """
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    keys = bruhat_keys(len(v))
    return keys.leq(keys.key(v), keys.key(w))


def bruhat_table(lower: Sequence[Perm], upper: Sequence[Perm]) -> tuple[int, ...]:
    """One bitmask per v in ``lower``: bit b is set exactly when v <= upper[b].

    v <= w exactly when no rank count of v is below w's (``BruhatKeys``).
    So for each count field f and each t, take the mask of the upper points
    whose count in f is at most t; v's row is the AND of one such mask per
    field, picked by v's own count.  Each permutation's counts are read
    from its key once; the masks come from one byte string per field, so
    the Python work is one count list per permutation and (n - 1)^2 ANDs
    per row.

    >>> bruhat_table([(1, 2), (2, 1)], [(2, 1), (1, 2)])
    (3, 1)
    """
    sizes = {len(p) for p in itertools.chain(lower, upper)}
    if len(sizes) > 1:
        raise ValueError(f"size mismatch among sizes {sorted(sizes)}")
    if not sizes:
        return tuple(0 for _ in lower)
    n = sizes.pop()
    keys = bruhat_keys(n)
    full = (1 << len(upper)) - 1
    # at_most[t] translates a count c to the digit "1" if c <= t, else "0"
    at_most = [b"1" * (t + 1) + b"0" * (255 - t) for t in range(n)]
    # masks[f][t] holds the upper points whose count in field f is at most
    # t; a column's bytes run from the last upper point to the first, so
    # int(..., 2) puts upper[b] at bit b
    masks = []
    for column in zip(*(keys.counts(keys.key(w)) for w in reversed(upper))):
        text, top = bytes(column), max(column)
        masks.append(
            [int(text.translate(at_most[t]), 2) for t in range(top)]
            + [full] * (n - top)
        )
    pick = list.__getitem__
    return tuple(
        functools.reduce(int.__and__, map(pick, masks, keys.counts(keys.key(v))), full)
        for v in lower
    )


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative ``mask``, ascending.

    >>> list(set_bits(0b101100))
    [2, 3, 5]
    """
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def all_permutations(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic one-line order."""
    return tuple(itertools.permutations(range(1, n + 1)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
