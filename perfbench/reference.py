"""A reference process that measures how fast the CPU it shares with hesspin runs.

The reference machine (see README.md) is a shared host.  Each of its CPUs
changes speed from one second to the next, independently of the other
CPU, and how much of the time a CPU runs slow drifts over minutes; a
30-second run of the same code can take a quarter longer than the run
before it.  Two
processes on the same CPU, however, slow down together: their work per
second keeps a ratio that varies by under 1% where each alone varies by
5% or more.

So ``run.py`` starts this script at a low priority (nice 12) on the CPU
where it runs every hesspin invocation.  The scheduler then gives it
short turns all through each invocation, in which it runs ``unit``, a
fixed piece of work of under a millisecond, and adds up the CPU time the
units took.  That samples the CPU's speed through the invocation, for
about 7% of the CPU.  Each byte written to its standard input asks for a
mark: the units done and their CPU nanoseconds so far, one line on
standard output.  It ends when its standard input closes.

``run.py`` rescales each invocation's time by ``NOMINAL_NS`` over the
mean unit time between the marks around it: the time it would have taken
on a CPU that runs a unit in ``NOMINAL_NS``.  The unit does the same kinds
of work as hesspin (Bruhat comparisons of permutation tuples, products of
dict-of-tuple polynomials, compact JSON encoding), so that a slow CPU
slows both alike, and it imports nothing from hesspin, so a change to
hesspin leaves it alone.
"""

from __future__ import annotations

import itertools
import json
import os
import select
import sys
import time

# CPU nanoseconds of one unit, rounded from its typical time beside hesspin
# on the reference machine (2-core Intel Xeon, Linux 6.18, Python 3.11.7),
# where units take 0.8 to 1.1 ms.  Only the scale of the rescaled times
# depends on it.
NOMINAL_NS = 1_000_000

# Priority beside the nice-0 children: turns of about 7% of the CPU give
# about 70 units per second of hesspin, while nice 19 (about 1.5%) gave
# rescaled times that spread half as much again.
NICE = 12

_PERMS = tuple(itertools.permutations(range(1, 6)))[::4]
_FACTORS = (
    {(1, 0, 0): 1, (0, 1, 0): -1},
    {(0, 0, 1): 1, (1, 0, 0): 1},
    {(0, 1, 0): 2, (0, 0, 1): -1},
)


def _descents(v):
    return [k for k in range(1, len(v)) if v[k - 1] > v[k]]


def _leq(v, w) -> bool:
    """Bruhat order by the tableau criterion."""
    for k in _descents(v):
        if any(a > b for a, b in zip(sorted(v[:k]), sorted(w[:k]))):
            return False
    return True


def _mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for a, x in p.items():
        for b, y in q.items():
            key = tuple(i + j for i, j in zip(a, b))
            out[key] = out.get(key, 0) + x * y
    return {k: c for k, c in out.items() if c}


def unit() -> int:
    """One fixed piece of work; returns a checksum of its results."""
    hits = sum(_leq(v, w) for v in _PERMS[:8] for w in _PERMS)
    poly = {(0, 0, 0): 1}
    for i in range(6):
        poly = _mul(poly, _FACTORS[i % 3])
    text = json.dumps(
        [{"exponents": list(k), "coefficient": c} for k, c in sorted(poly.items())],
        sort_keys=True,
        separators=(",", ":"),
    )
    return hits * 1_000_003 + len(poly) * 1009 + len(text)


CHECKSUM = unit()


def serve() -> None:
    """Run units until standard input closes, answering each byte with a mark."""
    os.nice(NICE)
    units = cpu_ns = 0
    while True:
        if select.select([0], [], [], 0)[0]:
            asked = os.read(0, 4096)
            if not asked:
                return
            sys.stdout.write(f"{units} {cpu_ns}\n" * len(asked))
            sys.stdout.flush()
        start = time.process_time_ns()
        result = unit()
        cpu_ns += time.process_time_ns() - start
        units += 1
        if result != CHECKSUM:
            raise SystemExit(f"reference unit returned {result}, expected {CHECKSUM}")


if __name__ == "__main__":
    serve()
