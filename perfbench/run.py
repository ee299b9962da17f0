"""Benchmark of the hesspin command line tool.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each workload is a fixed list of ``hesspin ... --format json`` invocations
(see ``WORKLOADS`` and ``perfbench/README.md``).  Every invocation runs in
a fresh interpreter on the checkout's ``src``, one at a time: a closed
loop with a single client.  The seed only shuffles the order of the
invocations within each pass; the inputs are exhaustive for their n.

``--trace 0`` repeats, while the next pass is expected to end within
``--seconds``: time a few fresh ``import hesspin.cli`` (the set-up), then
one whole pass over the workload.  Every child runs on one CPU beside the
reference process of ``perfbench/reference.py``, which samples that CPU's
speed; each child's times are rescaled to a CPU of the reference speed
(see ``reference.py``).  It reports the end-to-end metrics as medians.
``--trace 1`` runs one untraced pass and two traced passes
(``perfbench/tracer.py``), checks that every count repeats exactly, and
reports the per-layer metrics named in ``BENCHMARK.json``.

Every invocation's exit code and the sha256 of its standard output are
checked against ``perfbench/digests.json``, recorded at the commit that
added the benchmark; a ``verify`` run must also end with a passing
``result`` record.  Human-readable lines come first; the last line of
standard output is the JSON result.  A record with the environment, the
seed and every sample is written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple, Optional

import reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

_FULL_FLAG_8 = ",".join(["8"] * 8)

# name -> (invocations, items of work per pass, what an item is)
WORKLOADS = {
    "basis334-n8": (
        (("verify", "--n", "8", "--mode", "basis334"),),
        36864,
        "restriction matrix entries",
    ),
    "pinball-wide-n8": (
        (
            ("verify", "--n", "8", "--h", _FULL_FLAG_8, "--mode", "pinball"),
            ("fillings", "--n", "8", "--h", _FULL_FLAG_8),
        ),
        2 * 40320,
        "fillings processed",
    ),
    "full-torus-n7": (
        (("matrix", "--n", "7", "--full-torus"),),
        9216,
        "polynomial entries",
    ),
}

# Fresh interpreters timed for setup_s before each pass, so that the
# samples span the run rather than one moment of a shared machine.
SETUP_PER_PASS = 12

# Every child runs on CHILD_CPU, beside the reference process; this
# process, which reads their output, stays on another CPU when it can.
_USABLE = sorted(os.sched_getaffinity(0))
CHILD_CPU, PARENT_CPU = _USABLE[0], _USABLE[-1]

RESULT_OK = {"check": "result", "passed": True, "witnesses": []}


class Outcome(NamedTuple):
    """One finished child process."""

    key: str
    wall: float
    cpu: float
    rss_kb: int
    code: int
    sha256: str
    last_line: bytes
    units: int = 0  # reference units done while the child ran
    unit_ns: int = 0  # and their CPU nanoseconds


def pin_child() -> None:
    os.sched_setaffinity(0, {CHILD_CPU})


class Reference:
    """The process of ``reference.py``, on the CPU every child runs on."""

    def __enter__(self) -> "Reference":
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            preexec_fn=pin_child,
        )
        return self

    def __exit__(self, *exc) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()

    def mark(self) -> tuple[int, int]:
        """Units done so far and their CPU nanoseconds."""
        try:
            self.proc.stdin.write(b"m")
            self.proc.stdin.flush()
        except BrokenPipeError:
            pass
        line = self.proc.stdout.readline()
        if not line:
            raise SystemExit(f"error: reference process ended with exit {self.proc.wait()}")
        units, unit_ns = map(int, line.split())
        return units, unit_ns


def scale(outcomes) -> float:
    """Reference unit time over the mean unit time while ``outcomes`` ran."""
    units = sum(o.units for o in outcomes)
    if not units:
        raise SystemExit("error: the reference process did no work beside the children")
    return reference.NOMINAL_NS * units / sum(o.unit_ns for o in outcomes)


def invocation_key(argv) -> str:
    return " ".join((*argv, "--format", "json"))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(key: str, cmd: list[str], ref: Optional[Reference]) -> Outcome:
    """Run ``cmd`` on CHILD_CPU, hashing its output as it streams; rusage
    via wait4; with ``ref``, the reference units done meanwhile."""
    marks = [ref.mark()] if ref else []
    start = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, preexec_fn=pin_child
    )
    digest = hashlib.sha256()
    kept: list[bytes] = []
    while chunk := proc.stdout.read(1 << 16):
        digest.update(chunk)
        kept.append(chunk)
        del kept[:-2]
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    if ref:
        marks.append(ref.mark())
    (units0, ns0), (units1, ns1) = marks or [(0, 0), (0, 0)]
    last_line = b"".join(kept).rstrip(b"\n").rpartition(b"\n")[2]
    return Outcome(
        key=key,
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        rss_kb=usage.ru_maxrss,
        code=proc.returncode,
        sha256=digest.hexdigest(),
        last_line=last_line,
        units=units1 - units0,
        unit_ns=ns1 - ns0,
    )


def run_cli(argv, ref: Optional[Reference]) -> Outcome:
    cmd = [sys.executable, "-m", "hesspin.cli", *argv, "--format", "json"]
    return spawn(invocation_key(argv), cmd, ref)


def problems(key: str, code: int, sha256: str, last_line: Optional[bytes], digests) -> list[str]:
    """Why an invocation failed its output gate; empty when it passed."""
    found = []
    if code != 0:
        found.append(f"exit code {code}")
    if sha256 != digests[key]["sha256"]:
        found.append(f"stdout sha256 {sha256} != recorded {digests[key]['sha256']}")
    if last_line is not None and key.startswith("verify "):
        try:
            result = json.loads(last_line)
        except ValueError:
            result = None
        if result != RESULT_OK:
            found.append(f"result record {last_line[:200]!r} is not passed: true")
    return found


def environment() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(_USABLE),
        "python": platform.python_version(),
        "cpu_model": model,
        "platform": platform.platform(),
    }


def time_setup(ref: Reference) -> Outcome:
    """A fresh interpreter importing hesspin.cli.

    Fails unless hesspin is imported from the checkout's ``src``.
    """
    expected = str(SRC / "hesspin" / "cli.py")
    cmd = [
        sys.executable,
        "-c",
        "import sys, hesspin.cli; sys.stdout.write(hesspin.cli.__file__ + '\\n')",
    ]
    outcome = spawn("setup", cmd, ref)
    where = outcome.last_line.decode(errors="replace")
    if outcome.code != 0 or where != expected:
        raise SystemExit(
            f"error: import hesspin.cli gave exit {outcome.code} from"
            f" {where!r}, expected {expected!r}"
        )
    return outcome


def tail_percentile(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it.

    Only a percentile above the median counts as a tail, so this needs at
    least 20 samples.
    """
    n = len(samples)
    if n < 20:
        return f"none ({n} samples; a tail needs at least 20)"
    k = n - 11
    return f"p{100 * (k + 1) / n:.0f} = {sorted(samples)[k]:.4f} s ({n} samples)"


def run_untraced(invocations, seconds: float, rng: random.Random, ref: Reference):
    """Set-up samples and whole passes, while the next pass is expected to
    end within ``seconds``.

    One untimed import first writes the bytecode cache, which users pay once.
    """
    time_setup(ref)
    start = time.perf_counter()
    setup: list[Outcome] = []
    passes: list[list[Outcome]] = []
    pass_s: list[float] = []
    while True:
        pass_start = time.perf_counter()
        setup.extend(time_setup(ref) for _ in range(SETUP_PER_PASS))
        passes.append([run_cli(argv, ref) for argv in rng.sample(invocations, len(invocations))])
        pass_s.append(time.perf_counter() - pass_start)
        if time.perf_counter() - start + statistics.median(pass_s) > seconds:
            return setup, passes


def traced_pass(name: str, invocations, rng: random.Random, seed: int, index: int):
    """One pass of traced invocations; returns outcomes and merged figures."""
    run_id = f"{name}-seed{seed}-pass{index}"
    outcomes, figures = [], {}
    for argv in rng.sample(invocations, len(invocations)):
        out = OUT / f"trace-{name}-pass{index}-{invocations.index(argv)}.json"
        cmd = [
            sys.executable,
            str(BENCH / "tracer.py"),
            "--run-id",
            run_id,
            "--out",
            str(out),
            "--",
            *argv,
            "--format",
            "json",
        ]
        outcome = spawn(invocation_key(argv), cmd, None)
        try:
            summary = json.loads(outcome.last_line)
        except ValueError:
            summary = {"code": outcome.code or 1, "sha256": "", "counts": {}, "times": {}}
        outcomes.append((outcome, summary))
        for table in ("counts", "times"):
            merged = figures.setdefault(table, {})
            for key, value in summary[table].items():
                merged[key] = merged.get(key, 0) + value
    return outcomes, figures


def main() -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the hesspin CLI.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "hesspin" / "cli.py").is_file():
        print(f"error: no hesspin sources under {SRC}", file=sys.stderr)
        return 2
    with open(BENCH / "digests.json") as fh:
        digests = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    invocations, items, item_kind = WORKLOADS[args.workload]
    os.sched_setaffinity(0, {PARENT_CPU})
    rng = random.Random(args.seed)
    env = environment()
    OUT.mkdir(exist_ok=True)
    failures: list[str] = []
    metrics: dict[str, dict] = {}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))

    def gate(key: str, code: int, sha256: str, last_line, label: str = "") -> bool:
        """Record why an invocation failed; True if it did."""
        found = problems(key, code, sha256, last_line, digests)
        failures.extend(f"{label}{key}: {why}" for why in found)
        return bool(found)

    if args.trace == 0:
        with Reference() as ref:
            setup, passes = run_untraced(invocations, args.seconds, rng, ref)
        outcomes = [o for p in passes for o in p]
        attempted = len(outcomes)
        failed = sum(gate(o.key, o.code, o.sha256, o.last_line) for o in outcomes)
        raw_walls = [sum(o.wall for o in p) for p in passes]
        walls = [sum(o.wall * scale([o]) for o in p) for p in passes]
        cpus = [sum(o.cpu * scale([o]) for o in p) for p in passes]
        setup_scale = scale(setup)
        wall = statistics.median(walls)
        values = {
            "wall_s": wall,
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": max(o.rss_kb for o in outcomes) / 1024,
            "items_per_s": items / wall,
            "setup_s": statistics.median(o.wall for o in setup) * setup_scale,
        }
        record.update(
            setup_s=[o.wall for o in setup],
            setup_scale=setup_scale,
            pass_wall_s=walls,
            pass_cpu_s=cpus,
            pass_measured_wall_s=raw_walls,
            invocation_scales=[[scale([o]) for o in p] for p in passes],
        )
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(
            f"times are rescaled to a CPU that runs a reference unit in"
            f" {reference.NOMINAL_NS / 1e6:g} ms (reference.py)"
        )
        print(
            f"wall_s over {len(walls)} passes: median {wall:.4f} s rescaled,"
            f" {statistics.median(raw_walls):.4f} s measured; tail {tail_percentile(walls)}"
        )
        print(f"items_per_s counts {items} {item_kind} per pass")
        print(
            f"setup_s median of {len(setup)} fresh imports: {values['setup_s']:.4f} s rescaled,"
            f" {statistics.median(o.wall for o in setup):.4f} s measured"
        )
    else:
        untraced = [run_cli(argv, None) for argv in rng.sample(invocations, len(invocations))]
        attempted = len(untraced)
        failed = sum(gate(o.key, o.code, o.sha256, o.last_line) for o in untraced)
        traced_walls, figures = [], []
        for index in (1, 2):
            outcomes, merged = traced_pass(args.workload, invocations, rng, args.seed, index)
            for o, summary in outcomes:
                code = summary["code"] if o.code == 0 else o.code
                failed += gate(o.key, code, summary["sha256"], None, "traced ")
            attempted += len(outcomes)
            traced_walls.append(sum(o.wall for o, _ in outcomes))
            figures.append(merged)
        first, second = figures
        changed = sorted(
            k
            for k in set(first["counts"]) | set(second["counts"])
            if first["counts"].get(k) != second["counts"].get(k)
        )
        failures.extend(f"count {k} differs between traced passes" for k in changed)
        values = dict(first["counts"])
        for key in first["times"]:
            values[key] = statistics.median([first["times"][key], second["times"].get(key, 0.0)])
        values["trace_overhead_s"] = statistics.median(traced_walls) - sum(o.wall for o in untraced)
        absent = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        record.update(traced_pass_wall_s=traced_walls, counts=first["counts"], absent=absent)
        print(f"counts repeat exactly across two traced passes: {not changed}")
        print("absent (function not in this checkout, reported as 0): " + (", ".join(absent) or "none"))

    for name, metric in metrics.items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(f"failed_frac = {failed}/{attempted} = {failed / attempted:.4g}")
    for why in failures:
        print(f"FAILED {why}", file=sys.stderr)
    record.update(metrics=metrics, attempted=attempted, failed=failed, failures=failures)
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
