"""Permutations in one-line notation, reduced words, and Bruhat order.

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

import itertools
from typing import Sequence

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
    "random_reduced_word",
    "bruhat_leq",
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

    >>> inversions((3, 2, 4, 1, 5))
    4
    """
    n = len(w)
    return sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])


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


def random_reduced_word(w: Perm, rng) -> Word:
    """A reduced word for ``w`` built by stripping a random descent each step.

    ``rng`` is a random.Random instance; a seeded one gives a reproducible
    word.  Not uniform over reduced words, but reaches enough of them to
    exercise word-independence.
    """
    cur = list(w)
    stripped = []
    while True:
        ds = [i for i in range(len(cur) - 1) if cur[i] > cur[i + 1]]
        if not ds:
            break
        i = rng.choice(ds)
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        stripped.append(i + 1)
    return tuple(reversed(stripped))


def bruhat_leq(v: Perm, w: Perm) -> bool:
    """Whether v <= w in Bruhat order, by the tableau criterion.

    For each right descent position k of v, the increasing rearrangements
    of the initial segments v(1..k) and w(1..k) must compare entrywise.

    >>> bruhat_leq((2, 1, 3), (3, 1, 2))
    True
    >>> bruhat_leq((3, 6, 8, 4, 7, 5, 9, 1, 2), (6, 9, 4, 2, 8, 7, 5, 3, 1))
    False
    """
    if len(v) != len(w):
        raise ValueError(f"size mismatch: {len(v)} vs {len(w)}")
    for k in descents(v):
        vseg = sorted(v[:k])
        wseg = sorted(w[:k])
        if any(a > b for a, b in zip(vseg, wseg)):
            return False
    return True


def all_permutations(n: int) -> tuple[Perm, ...]:
    """All of S_n in lexicographic one-line order."""
    return tuple(itertools.permutations(range(1, n + 1)))


if __name__ == "__main__":
    import doctest

    doctest.testmod()
