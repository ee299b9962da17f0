"""Permutations in one-line notation, reduced words, and Bruhat order.

Bruhat order is decided by packed rank keys (``BruhatKeys``): each
permutation's rank counts fit in one integer, one field of whole bytes per
count, and one comparison is one subtraction.  Bulk consumers read a whole
relation from ``bruhat_table``, one bitmask per row as it is read, built
from rank-count thresholds on the counts read off the keys' bytes;
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
    "canonical_word",
    "BruhatKeys",
    "bruhat_keys",
    "bruhat_leq",
    "bruhat_table",
    "set_bits",
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
    >>> all(
    ...     compose(w, inverse(w)) == identity(3)
    ...     for w in itertools.permutations((1, 2, 3))
    ... )
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
    for 1 <= k, j <= n - 1 into one integer, a field of ``size`` whole
    bytes per count, ``size = (n.bit_length() + 8) // 8``: 1 byte for
    n <= 127, 2 for 128 <= n < 32768.  Counts stay below n, so the top
    (guard) bit of every field is free.  v <= w exactly when c_v >= c_w in
    every field (Bjorner and Brenti, *Combinatorics of Coxeter Groups*,
    Sec. 2.1), and one subtraction with every guard bit set borrows out of
    a field's guard exactly where that field of v is smaller.  Row k of
    the counts is row k - 1 plus a 1 in each field j >= w(k).

    >>> keys = bruhat_keys(3)
    >>> keys.leq(keys.key((2, 1, 3)), keys.key((3, 2, 1)))
    True
    >>> keys.leq(keys.key((2, 3, 1)), keys.key((3, 1, 2)))
    False
    """

    __slots__ = ("n", "size", "_row", "_guard", "_tails", "_values")

    def __init__(self, n: int):
        self.n = n
        self._values = list(range(1, n + 1))
        self.size = (n.bit_length() + 8) // 8
        width = 8 * self.size
        self._row = width * (n - 1)
        # _tails[v] has a 1 in each field j >= v of one row; _tails[n] = 0
        tails = [0] * (n + 1)
        for v in range(n - 1, 0, -1):
            tails[v] = tails[v + 1] | (1 << (width * (v - 1)))
        self._tails = tuple(tails)
        guards = tails[1] << (width - 1)
        self._guard = sum(guards << (self._row * k) for k in range(n - 1))

    def key(self, w: Perm) -> int:
        """The packed rank counts of w: row k = 1 in the top bytes, and
        field j = 1 last in each row; ValueError unless w is a permutation
        of 1..n.

        >>> bruhat_keys(3).key((2, 1, 3)).to_bytes(4, "big")
        b'\\x01\\x00\\x02\\x01'
        """
        if len(w) != self.n:
            raise ValueError(f"size mismatch: {len(w)} vs {self.n}")
        if sorted(w) != self._values:
            raise ValueError(f"not a permutation of 1..{self.n}: {tuple(w)}")
        return self._pack(w)

    def _pack(self, w: Perm) -> int:
        # ``key`` without its checks, for callers whose w is already known
        # to be a permutation of 1..n
        tails, shift = self._tails, self._row
        key = row = 0
        for value in w[:-1]:
            row += tails[value]
            key = (key << shift) | row
        return key

    def leq(self, kv: int, kw: int) -> bool:
        """Whether v <= w, given their keys."""
        guard = self._guard
        return ((kv | guard) - kw) & guard == guard


@functools.lru_cache(maxsize=None)
def bruhat_keys(n: int) -> BruhatKeys:
    """The (shared) packed rank keys of S_n."""
    return BruhatKeys(n)


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Whether v <= w in Bruhat order, by comparing packed rank keys;
    ValueError unless v and w are permutations of the same size.

    >>> bruhat_leq((2, 1, 3), (3, 1, 2))
    True
    >>> bruhat_leq((3, 6, 8, 4, 7, 5, 9, 1, 2), (6, 9, 4, 2, 8, 7, 5, 3, 1))
    False
    """
    v, w = validate(v), validate(w)
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    keys = bruhat_keys(len(v))
    return keys.leq(keys._pack(v), keys._pack(w))


def bruhat_table(lower: Sequence[Perm], upper: Sequence[Perm]) -> Iterator[int]:
    """One bitmask per v in ``lower``, yielded in order as it is read: bit b
    is set exactly when v <= upper[b].

    v <= w exactly when no rank count of v is below w's (``BruhatKeys``).
    So for each count field f and each t, take the mask of the upper points
    whose count in f is at most t; v's row is the AND of one such mask per
    field, picked by v's own count.  Each permutation's counts are read off
    the bytes of its key: for n <= 256 a count sits in the last byte of its
    field.  The upper points' counts are joined into one byte string, whose
    extended slices are the fields' columns.  The arguments are checked and
    the masks built at the call, so ``ValueError`` (for points that are
    not permutations of one size, and for n > 256) comes before any work.

    >>> tuple(bruhat_table([(1, 2), (2, 1)], [(2, 1), (1, 2)]))
    (3, 1)
    """
    sizes = {len(p) for p in itertools.chain(lower, upper)}
    if len(sizes) > 1:
        raise ValueError(f"size mismatch among sizes {sorted(sizes)}")
    if not sizes:
        return iter(())
    n = sizes.pop()
    for p in itertools.chain(lower, upper):
        validate(p)
    if n > 256:
        raise ValueError(f"bruhat_table needs n <= 256, got n = {n}")
    keys = bruhat_keys(n)
    key, size, width = keys._pack, keys.size, (n - 1) ** 2

    def counts(w: Perm) -> bytes:
        return key(w).to_bytes(size * width, "big")[size - 1 :: size]

    full = (1 << len(upper)) - 1
    # at_most[t] translates a count c to the digit "1" if c <= t, else "0"
    at_most = [b"1" * (t + 1) + b"0" * (255 - t) for t in range(n)]
    # the counts run from the last upper point to the first, so
    # int(..., 2) of a column puts upper[b] at bit b
    table = b"".join(map(counts, reversed(upper)))
    # masks[f][t] holds the upper points whose count in field f is at most t
    masks = []
    for f in range(width):
        column = table[f::width]
        top = max(column, default=0)
        masks.append(
            [int(column.translate(at_most[t]), 2) for t in range(top)]
            + [full] * (n - top)
        )
    pick = list.__getitem__
    return (
        functools.reduce(int.__and__, map(pick, masks, counts(v)), full)
        for v in lower
    )


def set_bits(mask: int) -> Iterator[int]:
    """The positions of the set bits of a nonnegative ``mask``, ascending;
    ValueError for a negative one, which has infinitely many.

    >>> list(set_bits(0b101100))
    [2, 3, 5]
    """
    if mask < 0:
        raise ValueError(f"set_bits needs a nonnegative mask, got {mask}")
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


if __name__ == "__main__":
    import doctest

    doctest.testmod()
