"""Rolldowns and Betti numbers for poset pinball on Hessenberg varieties.

The torus-fixed points carried by a (diagram, h) pair are the permutations
``w`` whose attached filling (reading word ``w^{-1}``) is permissible.  The
rolldown of a fixed point collects the dimension pairs of its filling into
the top-part vector x and returns ``omega(x)^{-1}``; its length equals the
number of dimension pairs.  ``fillings._roll`` is the one product of x
vectors: it multiplies ``omega(x)^{-1}`` out as n - 1 slice rotations, with
no word built, for ``rolldown``, ``rolldown_table`` and ``verify_pinball``
(and, inverted, for ``omega``).  ``rolldown_word`` and ``rolldown_words``
give the reversed omega word itself.

``verify_pinball`` checks the three success conditions of Betti poset
pinball (Harada and Tymoczko, arXiv:1007.2750): rolldowns are pairwise
distinct, each rolldown sits below its fixed point in Bruhat order, and the
rolldown length distribution matches the Betti numbers.  It reads all
three from one enumeration pass, taking only the fixed point (the inverse
of the reading word, which the pass keeps) and x of each leaf state
(``fillings._leaf_states``).  So do ``fixed_points``, ``rolldown_words``,
``rolldown_table`` and ``betti_numbers``; none of them builds a filling, a
pairs tuple or a ``PermissibleRecord``.  The degree of a point is
``sum(x)``, since each dimension pair adds one to x.

The checks stream: each leaf is checked as the pass yields it, and
``verify_pinball`` keeps two count arrays (by degree and by rolldown
length), one bytes key per rolldown for distinctness, and the witnesses
of failed checks, never the (point, rolldown) table; its report counts
the points it checked.  ``hess334.verify_334_theorem`` hands its sorted
leaves to the same loop.  No (diagram, h) is known to fail: an exhaustive
sweep passes all 1,836 pairs with n <= 6 and all 6,435 with n = 7.  The
report still keeps a witness for every failure.

``rolldown``, ``rolldown_word`` and ``degree`` take one point and check
that it is a fixed point; the whole-table functions take their points
from the enumeration and check nothing twice.
"""

from __future__ import annotations

from collections import Counter
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .fillings import (
    Diagram,
    _leaf_states,
    _roll,
    dimension_pairs,
    diagram_size,
    filling_of_fixed_point,
    is_permissible,
    omega_word,
    permissibility_error,
    top_parts,
    validate_diagram,
    validate_hessenberg,
)
from .permutations import (
    Perm,
    Word,
    bruhat_keys,
    inversions,
    validate,
)

__all__ = [
    "fixed_points",
    "is_fixed_point",
    "rolldown",
    "rolldown_word",
    "rolldown_words",
    "rolldown_table",
    "degree",
    "betti_numbers",
    "CheckResult",
    "PinballReport",
    "verify_pinball",
]


def fixed_points(diagram: Diagram, h: Sequence[int]) -> tuple[Perm, ...]:
    """The fixed points for (diagram, h), sorted by one-line notation."""
    return tuple(sorted(s.point() for s in _leaf_states(diagram, h)))


def is_fixed_point(w: Perm, diagram: Diagram, h: Sequence[int]) -> bool:
    return is_permissible(filling_of_fixed_point(w, diagram), h)


def _checked_filling(w: Perm, diagram: Diagram, h: Sequence[int]):
    w = validate(w)
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    if len(h) != diagram_size(diagram):
        raise ValueError(f"h has length {len(h)}, diagram has {diagram_size(diagram)} boxes")
    filling = filling_of_fixed_point(w, diagram)
    if not is_permissible(filling, h):
        raise ValueError(
            f"{w} is not a fixed point for this (diagram, h): "
            + permissibility_error(filling, h)
        )
    return filling


def rolldown_word(w: Perm, diagram: Diagram, h: Sequence[int]) -> Word:
    """A reduced word for rolldown(w): the omega word of x, reversed.

    >>> rolldown_word((4, 3, 2, 1, 5), (5,), (3, 3, 4, 5, 5))
    (3, 1, 2, 1)
    """
    filling = _checked_filling(w, diagram, h)
    return _word_of(top_parts(dimension_pairs(filling, h), len(w)))


def _word_of(x) -> Word:
    return tuple(reversed(omega_word(x)))


def rolldown(w: Perm, diagram: Diagram, h: Sequence[int]) -> Perm:
    """The rolldown omega(x)^{-1} of a fixed point w.

    >>> rolldown((4, 3, 2, 1, 5), (5,), (3, 3, 4, 5, 5))
    (4, 2, 1, 3, 5)
    """
    filling = _checked_filling(w, diagram, h)
    return _roll(top_parts(dimension_pairs(filling, h), len(w)))


def degree(w: Perm, diagram: Diagram, h: Sequence[int]) -> int:
    """The number of dimension pairs of w's filling (= length of rolldown)."""
    filling = _checked_filling(w, diagram, h)
    return len(dimension_pairs(filling, h))


def rolldown_words(diagram: Diagram, h: Sequence[int]) -> dict[Perm, Word]:
    """Rolldown words of every fixed point, keyed in sorted fixed-point order.

    >>> rolldown_words((3,), (2, 3, 3))[(2, 1, 3)]
    (1,)
    """
    return dict(
        sorted(
            (s.point(), _word_of(s.x())) for s in _leaf_states(diagram, h)
        )
    )


def rolldown_table(diagram: Diagram, h: Sequence[int]) -> dict[Perm, Perm]:
    """Rolldowns of every fixed point, keyed in sorted fixed-point order."""
    return dict(
        sorted((s.point(), _roll(s.x())) for s in _leaf_states(diagram, h))
    )


def betti_numbers(diagram: Diagram, h: Sequence[int]) -> tuple[int, ...]:
    """b_k = number of permissible fillings with exactly k dimension pairs.

    The trailing entry is the top nonzero Betti number, so the tuple has
    length 1 + max degree.
    """
    counts = Counter(sum(s.x()) for s in _leaf_states(diagram, h))
    return tuple(counts[k] for k in range(max(counts) + 1))


class CheckResult(NamedTuple):
    """Outcome of one named check, with witnesses for any failure."""

    name: str
    passed: bool
    witnesses: tuple = ()


class PinballReport(NamedTuple):
    """Results of the three pinball success conditions over ``points``
    fixed points."""

    diagram: Diagram
    h: tuple[int, ...]
    betti: tuple[int, ...]
    points: int
    injective: bool
    collisions: tuple[tuple[Perm, tuple[Perm, ...]], ...]
    below_fixed_point: bool
    bruhat_failures: tuple[tuple[Perm, Perm], ...]
    betti_matched: bool
    betti_mismatches: tuple[tuple[int, int, int], ...]

    @property
    def passed(self) -> bool:
        return self.injective and self.below_fixed_point and self.betti_matched

    def checks(self) -> tuple[CheckResult, ...]:
        return (
            CheckResult("rolldowns-distinct", self.injective, self.collisions),
            CheckResult(
                "rolldown-below-fixed-point",
                self.below_fixed_point,
                self.bruhat_failures,
            ),
            CheckResult("betti-match", self.betti_matched, self.betti_mismatches),
        )


def verify_pinball(diagram: Diagram, h: Sequence[int]) -> PinballReport:
    """Check the pinball success conditions for (diagram, h) exhaustively.

    Each leaf of one enumeration pass is checked as it comes (``_report``):
    only the counts by degree and by length, one encoding of each rolldown
    and the witnesses of failed checks are kept, never the whole table.
    """
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    return _report(diagram, h, _leaves(diagram, h))


def _leaves(diagram: Diagram, h: Sequence[int]) -> Iterator[tuple[Perm, Perm, int]]:
    """(fixed point, rolldown, degree) of each leaf state of the one
    enumeration pass, in the pass's order; the degree is ``sum(x)``."""
    roll = _roll
    for state in _leaf_states(diagram, h):
        x = state.x()
        yield state.point(), roll(x), sum(x)


def _report(
    diagram: Diagram, h: tuple[int, ...], leaves: Iterable[tuple[Perm, Perm, int]]
) -> PinballReport:
    """The three pinball checks over ``leaves``, one leaf at a time.

    The Betti side counts the degrees; the rolldown lengths are counted as
    inversions of the rolldown permutations, so the two sides of
    ``betti-match`` are computed independently.  A (point, rolldown) pair is
    kept only when the rolldown is not below its point.  Distinctness reads
    one dict from the bytes of each rolldown to the bytes of its first
    point (tuples past n = 255); only a clash builds a list.
    """
    n = diagram_size(diagram)
    keys = bruhat_keys(n)
    key, leq = keys.key, keys.leq
    encode = bytes if n < 256 else tuple
    top = n * (n - 1) // 2  # the longest length in S_n
    degrees = [0] * (top + 1)
    lengths = [0] * (top + 1)
    owner: dict = {}  # rolldown -> its first point, both encoded
    clashes: dict = {}  # rolldown -> every point of a shared rolldown
    bruhat_failures: list[tuple[Perm, Perm]] = []
    points = 0
    for w, r, d in leaves:
        points += 1
        degrees[d] += 1
        lengths[inversions(r)] += 1
        if not leq(key(r), key(w)):
            bruhat_failures.append((w, r))
        code, mine = encode(r), encode(w)
        first = owner.setdefault(code, mine)
        if first != mine:
            clashes.setdefault(code, [first]).append(mine)
    bruhat_failures.sort(key=itemgetter(0))
    collisions = tuple(
        sorted((tuple(r), tuple(sorted(map(tuple, ws)))) for r, ws in clashes.items())
    )

    betti_mismatches = tuple(
        (k, b, count)
        for k, (b, count) in enumerate(zip(degrees, lengths))
        if b != count
    )

    return PinballReport(
        diagram=diagram,
        h=h,
        betti=_trimmed(degrees),
        points=points,
        injective=not collisions,
        collisions=collisions,
        below_fixed_point=not bruhat_failures,
        bruhat_failures=tuple(bruhat_failures),
        betti_matched=not betti_mismatches,
        betti_mismatches=betti_mismatches,
    )


def _trimmed(counts: list[int]) -> tuple[int, ...]:
    """``counts`` up to its last nonzero entry."""
    top = len(counts)
    while top and not counts[top - 1]:
        top -= 1
    return tuple(counts[:top])
