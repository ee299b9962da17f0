"""Rolldowns and Betti numbers for poset pinball on Hessenberg varieties.

The torus-fixed points carried by a (diagram, h) pair are the permutations
``w`` whose attached filling (reading word ``w^{-1}``) is permissible.  The
rolldown of a fixed point collects the dimension pairs of its filling into
the top-part vector x and returns ``omega(x)^{-1}``; its length equals the
number of dimension pairs.  ``fillings._omega`` is the one product of x
vectors: it builds ``omega(x)`` by n - 1 list inserts, with no word built,
and ``rolldown`` and ``rolldown_table`` invert it.
The leaves that ``verify_pinball`` checks read omega(x) off the packed x
of their leaf state, as the product of two cached halves
(``fillings._halves``) whose entries ``_omega`` builds, already encoded
as record bytes (``fillings._record_code``).  ``rolldown_word`` and
``rolldown_words`` give the reversed omega word itself.

``verify_pinball`` checks the three success conditions of Betti poset
pinball (Harada and Tymoczko, arXiv:1007.2750): rolldowns are pairwise
distinct, each rolldown sits below its fixed point in Bruhat order, and the
rolldown length distribution matches the Betti numbers.  It reads all
three from one enumeration pass, taking only the reading word and the
packed x of each leaf state (``fillings._leaf_states``).  Bruhat order,
length and distinctness are all unchanged by w -> w^{-1}, so it checks
them on the inverses: the reading word w^{-1}, which the pass keeps, and
omega(x), the inverse of the rolldown: length by counting inversions,
for all points of one degree at once (``_lengths``), and Bruhat order by
their packed keys (``permutations.BruhatKeys``), packed only when the two
differ.  Both are held as record bytes, one byte an entry for n < 256,
so a leaf whose rolldown is its own point (every leaf of the full flag
h = (n, ..., n)) is settled by one bytes comparison, by the reflexivity
of Bruhat order, and packs no key.  Only the witnesses of failed checks
are decoded and inverted back to tuples.  ``fixed_points``,
``rolldown_words``, ``rolldown_table`` and ``betti_numbers`` also read
only the fixed point (``point()``), x or the degree; none of them builds
a filling or a pairs tuple.  The degree of a point, its number of
dimension pairs, is read off the count field of the packed x
(``fillings._packing``), which the pass adds to as it settles each pair
set; the rolldown's length is still counted from omega(x) itself.

The checks stream: ``_report`` reads the leaf states of the pass in one
loop, checks each for Bruhat order as the pass yields it, and keeps one
fixed-width (omega(x), reading word) record of 2n small integers per
point, appended as two byte strings to the array of its degree, and the
witnesses of failed checks, never the (point, rolldown) table or an object
per point.  Once the pass ends, the bucket sizes are the Betti numbers,
the lengths are counted one bucket at a time, and each bucket is checked
for distinctness; its report counts the points it checked.
``hess334.verify_334_theorem`` reads its (point, rolldown) table off the
same records, so the rolldowns it checks are the ones checked here.  No
(diagram, h) is known to fail: an exhaustive sweep passes all 1,836 pairs
with n <= 6 and all 6,435 with n = 7.  The report still keeps a witness for
every failure.

``is_fixed_point``, ``rolldown``, ``rolldown_word`` and ``degree`` take one
point and make one set of argument checks; all but ``is_fixed_point`` then
place its filling's reading word (``fillings._placed``), which refuses a
point that is not a fixed point, and read x or the degree off the state.
The whole-table functions take their points from the enumeration and
check nothing twice.
"""

from __future__ import annotations

import struct
import sys
from array import array
from collections import Counter
from functools import partial
from operator import itemgetter
from typing import NamedTuple, Sequence

from .fillings import (
    Diagram,
    _halves,
    _leaf_states,
    _packing,
    _placed,
    _omega,
    _record_code,
    _violation,
    diagram_size,
    filling_of_fixed_point,
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
    """Whether w's filling is permissible; ValueError on bad arguments."""
    return _violation(*_filling(w, diagram, h)) is None


def _filling(w: Perm, diagram: Diagram, h: Sequence[int]):
    # (w's filling, h), once w, the diagram and h are checked, one h(i) per box
    w = validate(w)
    diagram = validate_diagram(diagram)
    h = validate_hessenberg(h)
    if len(h) != diagram_size(diagram):
        raise ValueError(f"h has length {len(h)}, diagram has {diagram_size(diagram)} boxes")
    return filling_of_fixed_point(w, diagram), h


def _state(w: Perm, diagram: Diagram, h: Sequence[int]):
    # the prefix state of w's filling with every box placed, after the one
    # set of checks; ValueError unless w is a fixed point
    filling, h = _filling(w, diagram, h)
    return _placed(filling, inverse(w), h)


def rolldown_word(w: Perm, diagram: Diagram, h: Sequence[int]) -> Word:
    """A reduced word for rolldown(w): the omega word of x, reversed.

    >>> rolldown_word((4, 3, 2, 1, 5), (5,), (3, 3, 4, 5, 5))
    (3, 1, 2, 1)
    """
    return _word_of(_state(w, diagram, h).x())


def _word_of(x) -> Word:
    # omega_word(x) reversed, x unchecked: u_l reversed is l - x_l, ...,
    # l - 1, for l from n down to 2
    return tuple(
        letter for l in range(len(x) + 1, 1, -1) for letter in range(l - x[l - 2], l)
    )


def rolldown(w: Perm, diagram: Diagram, h: Sequence[int]) -> Perm:
    """The rolldown omega(x)^{-1} of a fixed point w.

    >>> rolldown((4, 3, 2, 1, 5), (5,), (3, 3, 4, 5, 5))
    (4, 2, 1, 3, 5)
    """
    return inverse(_omega(_state(w, diagram, h).x()))


def degree(w: Perm, diagram: Diagram, h: Sequence[int]) -> int:
    """The number of dimension pairs of w's filling (= length of rolldown)."""
    return _state(w, diagram, h).degree()


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
        sorted(
            (s.point(), inverse(_omega(s.x()))) for s in _leaf_states(diagram, h)
        )
    )


def betti_numbers(diagram: Diagram, h: Sequence[int]) -> tuple[int, ...]:
    """b_k = number of permissible fillings with exactly k dimension pairs.

    The trailing entry is the top nonzero Betti number, so the tuple has
    length 1 + max degree.
    """
    counts = Counter(s.degree() for s in _leaf_states(diagram, h))
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
    only one fixed-width record of each (rolldown, point) pair, bucketed by
    degree, and the witnesses of failed checks are kept, never the whole
    table.
    """
    return _report(validate_diagram(diagram), validate_hessenberg(h))[0]


def _report(diagram: Diagram, h: tuple[int, ...]) -> tuple[PinballReport, list[array]]:
    """The three pinball checks over the leaf states of one enumeration
    pass for (diagram, h), one leaf at a time, and the record arrays they
    read, one (o, u) record of 2n entries per point.

    Each leaf gives u = w^{-1}, the reading word of its fixed point w,
    o = r^{-1} = omega(x), the inverse of its rolldown, read off its
    packed x by the two tables of ``fillings._halves``, and its degree d,
    the count field of the packed x (``fillings._packing``).  Both u and
    o are record bytes: the entries of the smallest array type that holds
    n (``fillings._record_code``), so a byte each for n < 256.  Bruhat
    order, length and distinctness are unchanged by inversion, so r <= w
    is checked as o <= u, r's length is o's inversion count, and the r are
    distinct exactly when the o are; only the witnesses are decoded and
    inverted back.  Bruhat order is reflexive, so o == u, one bytes
    comparison, settles o <= u, and the keys of o and u are packed and
    compared only when the two differ.

    Each leaf appends one fixed-width record (o, u), 2n entries, to the
    array of its degree, as two byte strings, and is kept as a witness
    only when its rolldown is not below its point.  The Betti side of
    ``betti-match`` counts the records of each degree.  The rolldown
    lengths are counted once the pass ends, as the inversions of the o of
    each bucket's records all at once (``_lengths``), so the two sides are
    computed independently.

    Equal o have equal lengths, so a record whose length differs from its
    degree moves to the bucket of its length, and two records with one o
    then share a bucket.  For a passing (diagram, h) no record moves and
    the bucket sizes are its Betti numbers.  Each bucket is then checked
    on its own: the set of the bytes of its o, built at C level, is
    smaller than the bucket exactly when two records share an o, and only
    then is the bucket walked in Python to collect the owners of each
    shared o.  So u and o are never held as objects per point, and the
    largest bucket bounds the objects held at once.  The buckets, by then
    one per rolldown length, are returned with the report, and
    ``hess334.verify_334_theorem`` reads its (point, rolldown) table off
    them.
    """
    states = _leaf_states(diagram, h)  # h checked against the diagram first
    n = diagram_size(diagram)
    keys = bruhat_keys(n)
    key, leq = keys._pack, keys.leq
    code = _record_code(n)
    entries_of = partial(array, code)  # record bytes -> their entries
    encode = bytes if code == "B" else lambda word: entries_of(word).tobytes()
    degree = _packing(n).count  # the count field of a packed x
    _, low, high, omegas, gathers = _halves(n)
    top = n * (n - 1) // 2  # the longest length in S_n
    buckets = [array(code) for _ in range(top + 1)]  # records (o, u) by degree
    bruhat_failures: list[tuple[Perm, Perm]] = []  # (w, r), inverted back
    for state in states:
        t = state.tops[-1]
        o = gathers[t & high](omegas[t & low])
        u = encode(state.word)
        if o != u:
            ov, uv = entries_of(o), entries_of(u)
            if not leq(key(ov), key(uv)):
                bruhat_failures.append((inverse(uv), inverse(ov)))
        records = buckets[t & degree]
        records.frombytes(o)
        records.frombytes(u)
    bruhat_failures.sort()

    step = 2 * n  # the entries of one record
    degrees = [len(records) // step for records in buckets]
    lengths = [0] * (top + 1)
    moved: dict[int, array] = {}  # length -> the records that move there
    for d, records in enumerate(buckets):
        if not records:  # _lengths costs n(n - 1)/2 steps even when empty
            continue
        found = _lengths(records, n)
        if found.count(d) == len(found):
            lengths[d] += len(found)
            continue
        kept = array(code)
        for k, length in enumerate(found):
            lengths[length] += 1
            record = records[k * step : (k + 1) * step]
            if length == d:
                kept += record
            else:
                moved.setdefault(length, array(code)).extend(record)
        buckets[d] = kept
    for length, records in moved.items():
        buckets[length] += records

    width = n * array(code).itemsize  # the bytes of one o or one u
    first = struct.Struct(f"{width}s{width}x")  # (o,) as bytes, u skipped
    head = itemgetter(0)
    entries = struct.Struct(f"{step}{code}")  # o + u as 2n ints
    collisions = []
    for records in buckets:
        size = len(records) // step
        if size < 2 or len(set(map(head, first.iter_unpack(records)))) == size:
            continue
        owners: dict = {}  # o -> the u of every record with that o
        for entry in entries.iter_unpack(records):
            owners.setdefault(entry[:n], []).append(entry[n:])
        collisions += (
            (inverse(o), tuple(sorted(map(inverse, us))))
            for o, us in owners.items()
            if len(us) > 1
        )
    collisions.sort()

    betti_mismatches = tuple(
        (k, b, count)
        for k, (b, count) in enumerate(zip(degrees, lengths))
        if b != count
    )

    return PinballReport(
        diagram=diagram,
        h=h,
        betti=_trimmed(degrees),
        points=sum(degrees),
        injective=not collisions,
        collisions=tuple(collisions),
        below_fixed_point=not bruhat_failures,
        bruhat_failures=tuple(bruhat_failures),
        betti_matched=not betti_mismatches,
        betti_mismatches=betti_mismatches,
    ), buckets


def _lengths(records: array, n: int) -> array:
    """The inversion count of the o of each (o, u) record in ``records``,
    2n entries a record, counted for all records at once.

    Column i of the o (every 2n-th entry from i) is spread into fields of
    twice the entries' width and read as one int C_i, record k in field k.
    With G the top (guard) bit of every field, ((C_i | G) - C_j) & G sets
    the guard of each record whose o(i) > o(j): the entries are distinct
    and below the guard, so no borrow leaves its field (the packed
    comparison of ``BruhatKeys.leq``).  The sum over all i < j, shifted
    down by the guard's place, holds each record's length in its field,
    which holds n(n - 1)/2 for every n the entry type allows.  The result
    has one entry per record, of the field's array type.
    """
    itemsize = records.itemsize
    wide = next(c for c in "HILQ" if array(c).itemsize == 2 * itemsize)
    shift = 16 * itemsize - 1  # the guard's place in its field
    size = len(records) // (2 * n)
    order = sys.byteorder
    guards = int.from_bytes(array(wide, [1 << shift]) * size, order)
    column = array(wide, bytes(2 * itemsize * size))
    # the low halves of the fields of ``column``, as entries of ``records``
    low = memoryview(column).cast("B").cast(records.typecode)[order == "big" :: 2]
    entries = memoryview(records)
    above = []  # C_i | G for the columns i before j
    total = 0
    for j in range(n):
        low[:] = entries[j :: 2 * n]
        c = int.from_bytes(column, order)
        for a in above:
            total += (a - c) & guards
        above.append(c | guards)
    return array(wide, (total >> shift).to_bytes(2 * itemsize * size, order))


def _trimmed(counts: list[int]) -> tuple[int, ...]:
    """``counts`` up to its last nonzero entry."""
    top = len(counts)
    while top and not counts[top - 1]:
        top -= 1
    return tuple(counts[:top])
