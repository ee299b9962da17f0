"""Run one hesspin CLI invocation in-process with its library layers traced.

Usage (from the repository root, with ``src`` on ``PYTHONPATH``):

    python3 perfbench/tracer.py --run-id ID --out TRACE.json -- verify --n 6

Before calling ``hesspin.cli.main``, every public function (``__all__``) of
the six library modules is wrapped, once per module that binds it, so a
call is attributed to the module it was made from: ``hess334.bruhat_leq``
and ``billey.bruhat_leq`` get separate wrappers around the one
``permutations.bruhat_leq``.  Stage functions (``SPANNED``) record a span
each; every other public function is a small or hot helper and only
counts its calls.  Nothing under ``src/`` is modified.

The CLI's standard output goes to a sink that hashes and counts it.  The
spans are kept in memory and written to ``--out`` when the invocation
ends.  The last line of standard output is one JSON object with the exit
code, the output's sha256, and every count and time, named as in
``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib
import itertools
import json
import sys
import time
import types
from collections import Counter

MODULES = ("permutations", "fillings", "pinball", "billey", "hess334", "cli")

# Functions that mark a stage of the pipeline; each call records a span.
SPANNED = frozenset(
    {
        "cli.main",
        "cli.build_parser",
        "fillings.enumerate_permissible",
        "pinball.fixed_points",
        "pinball.rolldown_table",
        "pinball.betti_numbers",
        "pinball.verify_pinball",
        "billey.sigma_restriction",
        "billey.restriction_matrix",
        "billey.check_upper_triangular",
        "hess334.summand_census",
        "hess334.simple_summand_census",
        "hess334.verify_334_theorem",
    }
)

# Public methods counted like functions: (module, class, method) -> name.
METHODS = {("billey", "Polynomial", "__mul__"): "billey.Polynomial.mul"}


def _matrix_nonzero(matrix) -> int:
    return sum(1 for row in matrix.values for value in row if value.coeff)


# Counters over returned values: function -> (counter name, measure).
RESULT_COUNTERS = {
    "billey.reduced_subword_positions": ("billey.subwords", len),
    "billey.restriction_matrix": ("billey.matrix_nonzero", _matrix_nonzero),
    "fillings.enumerate_permissible": ("fillings.fillings_enumerated", len),
}


class Tracer:
    """Spans and counters of one traced invocation, held in memory."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        # Call counters are C-level ticks, the cheapest count per call.
        self.ticks: dict[str, itertools.count] = {}
        self.counts: Counter = Counter()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.ids = itertools.count()
        self.wrapped: list[str] = []

    def wrap(self, fn, name: str, binding: str):
        """A wrapper for ``fn`` (public name ``name``) bound in ``binding``."""
        counts = self.counts
        tick = self.ticks.setdefault(f"{name}.calls.{binding}", itertools.count()).__next__
        measured = RESULT_COUNTERS.get(name)
        if measured:
            counts[measured[0]] += 0
        if name not in SPANNED:
            if measured is None:

                @functools.wraps(fn)
                def counted(*args, **kwargs):
                    tick()
                    return fn(*args, **kwargs)

                return counted

            counter, measure = measured

            @functools.wraps(fn)
            def counted_measured(*args, **kwargs):
                tick()
                result = fn(*args, **kwargs)
                counts[counter] += measure(result)
                return result

            return counted_measured

        spans, stack, ids, run_id = self.spans, self.stack, self.ids, self.run_id

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            tick()
            span_id = next(ids)
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((span_id, parent, name, start, end, run_id))
            if measured:
                counts[measured[0]] += measured[1](result)
            return result

        return spanned

    def install(self) -> None:
        """Wrap every binding of every public library function."""
        modules = {m: importlib.import_module(f"hesspin.{m}") for m in MODULES}
        public = {}
        for short, module in modules.items():
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if (
                    isinstance(obj, types.FunctionType)
                    and obj.__module__ == module.__name__
                ):
                    public[obj] = f"{short}.{attr}"
        for binding, module in modules.items():
            for attr, obj in list(vars(module).items()):
                name = public.get(obj) if isinstance(obj, types.FunctionType) else None
                if name is not None:
                    setattr(module, attr, self.wrap(obj, name, binding))
        self.wrapped = sorted(public.values())
        for (short, cls_name, method), name in METHODS.items():
            cls = getattr(modules[short], cls_name, None)
            fn = getattr(cls, method, None)
            if isinstance(fn, types.FunctionType):
                setattr(cls, method, self.wrap(fn, name, short))
                self.wrapped.append(name)

    def summary(self) -> dict:
        """Counts, inclusive and self times, keyed by metric name.

        Reading a tick advances it, so this is called once, at the end.
        """
        counts = dict(self.counts)
        for key, tick in self.ticks.items():
            counts[key] = next(tick)
            total = key.split(".calls.")[0] + ".calls"
            counts[total] = counts.get(total, 0) + counts[key]
        times = {}
        for name in self.wrapped:
            if name in SPANNED:
                times[f"{name}.s"] = 0.0
                times[f"{name}.self_s"] = 0.0
                times[name.split(".")[0] + ".self_s"] = 0.0
        for name, duration, own in self_times(self.spans):
            times[f"{name}.s"] += duration
            times[f"{name}.self_s"] += own
            times[name.split(".")[0] + ".self_s"] += own
        return {"counts": counts, "times": times}


def self_times(spans):
    """(name, duration, self time) per span.

    Self time is the span's duration minus the part of it that its direct
    child spans cover.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = []
    for span_id, _, name, start, end, _ in spans:
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start = max(c_start, reach)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((name, end - start, end - start - covered))
    return out


class HashingSink:
    """A text stream that keeps only the sha256 and size of what it gets."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.size = 0

    def write(self, text: str) -> int:
        data = text.encode("utf-8")
        self.digest.update(data)
        self.size += len(data)
        return len(text)

    def flush(self) -> None:
        pass


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True, help="where to write the spans")
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    tracer = Tracer(args.run_id)
    tracer.install()
    from hesspin import cli

    sink = HashingSink()
    stdout = sys.stdout
    sys.stdout = sink
    try:
        code = cli.main(argv)
    finally:
        sys.stdout = stdout

    summary = tracer.summary()
    summary["counts"]["cli.bytes_out"] = sink.size
    with open(args.out, "w") as fh:
        json.dump(
            {
                "run_id": args.run_id,
                "argv": argv,
                "wrapped": tracer.wrapped,
                "span_fields": ["id", "parent", "name", "start", "end", "run_id"],
                "spans": tracer.spans,
                **summary,
            },
            fh,
        )
    result = {"code": code, "sha256": sink.digest.hexdigest(), **summary}
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
