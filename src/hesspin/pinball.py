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
``sum(x)``, since each dimension pair adds one to x.  No (diagram, h) is
known to fail: an exhaustive sweep passes all 1,836 pairs with n <= 6 and
all 6,435 with n = 7.  The report still keeps a witness for every failure.

``rolldown``, ``rolldown_word`` and ``degree`` take one point and check
that it is a fixed point; the whole-table functions take their points
from the enumeration and check nothing twice.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import zip_longest
from operator import itemgetter
from typing import Sequence

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


def _betti(degrees) -> tuple[int, ...]:
    counts = Counter(degrees)
    return tuple(counts[k] for k in range(max(counts) + 1))


def betti_numbers(diagram: Diagram, h: Sequence[int]) -> tuple[int, ...]:
    """b_k = number of permissible fillings with exactly k dimension pairs.

    The trailing entry is the top nonzero Betti number, so the tuple has
    length 1 + max degree.
    """
    return _betti(sum(s.x()) for s in _leaf_states(diagram, h))


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one named check, with witnesses for any failure."""

    name: str
    passed: bool
    witnesses: tuple = ()


@dataclass(frozen=True)
class PinballReport:
    """Results of the three pinball success conditions."""

    diagram: Diagram
    h: tuple[int, ...]
    betti: tuple[int, ...]
    rolldowns: tuple[tuple[Perm, Perm], ...]
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

    One loop over the leaf states of the enumeration pass gives each fixed
    point, its rolldown, its degree, the rolldown's length and the Bruhat
    comparison of the two.  The Betti side counts degrees, read off x as
    ``sum(x)`` (the number of dimension pairs); the rolldown lengths are
    counted as inversions of the rolldown permutations, so the two sides
    of ``betti-match`` are computed independently.
    """
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    n = diagram_size(diagram)
    keys = bruhat_keys(n)
    key, leq, roll = keys.key, keys.leq, _roll
    found: list[tuple[Perm, Perm]] = []
    degrees: list[int] = []
    lengths: list[int] = []
    bruhat_failures: list[tuple[Perm, Perm]] = []
    for state in _leaf_states(diagram, h):
        x = state.x()
        w = state.point()
        r = roll(x)
        found.append((w, r))
        degrees.append(sum(x))
        lengths.append(inversions(r))
        if not leq(key(r), key(w)):
            bruhat_failures.append((w, r))
    by_point = itemgetter(0)
    found.sort(key=by_point)
    bruhat_failures.sort(key=by_point)
    rolls = tuple(found)

    # the first point of each rolldown; only a clash builds a list
    owner: dict[Perm, Perm] = {}
    clashes: dict[Perm, list[Perm]] = {}
    for w, r in rolls:
        first = owner.setdefault(r, w)
        if first is not w:
            clashes.setdefault(r, [first]).append(w)
    collisions = tuple((r, tuple(clashes[r])) for r in sorted(clashes))

    betti = _betti(degrees)
    by_length = _betti(lengths)
    betti_mismatches = tuple(
        (k, b, count)
        for k, (b, count) in enumerate(zip_longest(betti, by_length, fillvalue=0))
        if b != count
    )

    return PinballReport(
        diagram=diagram,
        h=h,
        betti=betti,
        rolldowns=rolls,
        injective=not collisions,
        collisions=collisions,
        below_fixed_point=not bruhat_failures,
        bruhat_failures=tuple(bruhat_failures),
        betti_matched=not betti_mismatches,
        betti_mismatches=betti_mismatches,
    )
