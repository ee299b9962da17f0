"""Rolldowns and Betti numbers for poset pinball on Hessenberg varieties.

The torus-fixed points carried by a (diagram, h) pair are the permutations
``w`` whose attached filling (reading word ``w^{-1}``) is permissible.  The
rolldown of a fixed point collects the dimension pairs of its filling into
the top-part vector x and returns ``omega(x)^{-1}``; its length equals the
number of dimension pairs.  ``fillings._omega`` is the one product of x
vectors: it builds ``omega(x)`` by n - 1 list inserts, with no word built.
``verify_pinball`` reads it as it is, ``fillings._roll`` inverts it for
``rolldown`` and ``rolldown_table``, and the 334 theorem inverts the
omega(x) of its leaves.  ``rolldown_word`` and ``rolldown_words`` give the
reversed omega word itself.

``verify_pinball`` checks the three success conditions of Betti poset
pinball (Harada and Tymoczko, arXiv:1007.2750): rolldowns are pairwise
distinct, each rolldown sits below its fixed point in Bruhat order, and the
rolldown length distribution matches the Betti numbers.  It reads all
three from one enumeration pass, taking only the reading word and x of
each leaf state (``fillings._leaf_states``).  Bruhat order, length and
distinctness are all unchanged by w -> w^{-1}, so it checks them on the
inverses: the reading word w^{-1}, which the pass keeps, and omega(x),
the inverse of the rolldown.  Only the witnesses of failed checks are
inverted back.  ``fixed_points``, ``rolldown_words``, ``rolldown_table``
and ``betti_numbers`` also read only the fixed point (``point()``) or x;
none of them builds a filling, a pairs tuple or a ``PermissibleRecord``.
The degree of a point is ``sum(x)``, since each dimension pair adds one to
x.

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
from typing import Iterable, Iterator, NamedTuple, Sequence

from .fillings import (
    Diagram,
    _leaf_states,
    _omega,
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
    inverse,
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
    """(reading word, omega(x), degree) of each leaf state of the one
    enumeration pass, in the pass's order: the inverses of the fixed point
    and of its rolldown, and ``sum(x)``."""
    omega = _omega
    for state in _leaf_states(diagram, h):
        x = state.x()
        yield tuple(state.word), omega(x), sum(x)


def _report(
    diagram: Diagram, h: tuple[int, ...], leaves: Iterable[tuple[Perm, Perm, int]]
) -> PinballReport:
    """The three pinball checks over ``leaves``, one leaf at a time.

    Each leaf (u, o, d) holds the inverses u = w^{-1} of a fixed point and
    o = r^{-1} of its rolldown, and the point's degree.  Bruhat order,
    length and distinctness are unchanged by inversion, so r <= w is
    checked as o <= u, r's length is o's inversion count, and the r are
    distinct exactly when the o are; only the witnesses are inverted back.

    The Betti side counts the degrees; the rolldown lengths are counted as
    inversions of the permutations o, in the one loop over o that packs
    its Bruhat key (``BruhatKeys.key_and_length``), so the two sides of
    ``betti-match`` are computed independently.  A leaf is kept only when its rolldown is not below its
    point.  Distinctness reads one dict from the bytes of each o to the
    bytes of its first u (tuples past n = 255); only a clash builds a list.
    """
    n = diagram_size(diagram)
    keys = bruhat_keys(n)
    key, key_and_length, leq = keys.key, keys.key_and_length, keys.leq
    encode = bytes if n < 256 else tuple
    top = n * (n - 1) // 2  # the longest length in S_n
    degrees = [0] * (top + 1)
    lengths = [0] * (top + 1)
    owner: dict = {}  # o -> the u of its first point, both encoded
    clashes: dict = {}  # o -> the u of every point of a shared rolldown
    above: list[tuple[Perm, Perm]] = []
    points = 0
    for u, o, d in leaves:
        points += 1
        degrees[d] += 1
        ko, length = key_and_length(o)
        lengths[length] += 1
        if not leq(ko, key(u)):
            above.append((u, o))
        code, mine = encode(o), encode(u)
        first = owner.setdefault(code, mine)
        if first != mine:
            clashes.setdefault(code, [first]).append(mine)
    bruhat_failures = sorted((inverse(u), inverse(o)) for u, o in above)
    collisions = tuple(
        sorted(
            (inverse(tuple(o)), tuple(sorted(inverse(tuple(u)) for u in us)))
            for o, us in clashes.items()
        )
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
