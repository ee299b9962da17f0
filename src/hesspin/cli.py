"""Command line front end emitting exact combinatorial tables.

Four subcommands cover the pipeline:

  fillings    permissible fillings with reading words, dimension pairs, x
  rolldowns   fixed points with rolldown words and degrees (single row)
  verify      pinball success conditions, or the 334 module-basis checks
  matrix      projected restriction matrix over all fixed points (single row)

Every subcommand takes --n, --h (comma list, defaulting to the 334 family
for n >= 4 and its nearest valid relative below), --lambda (row lengths,
defaulting to the single row) and --format {table,json,csv}.

The json format is the machine format: one record per line, keys sorted,
integers that can grow without bound carried as strings.  Projected values
serialize as {"coeff": "<int>", "deg": <int>} with {"coeff": "0", "deg": 0}
as the zero sentinel; full multivariate values (matrix --full-torus) as
lists of {"exps": [..], "coeff": "<int>"}.  Identical flags produce
byte-identical output.  json and csv lines are written as their records
are made; table output is written once all rows are known.

Exit status: 0 on success, 1 when a verification fails, 2 on invalid input,
3 on an internal error (a broken invariant of the library, reported in one
line on stderr), 4 when the output cannot be written (a reader that closed
the pipe early, or a full disk; also reported in one line on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .fillings import (
    _leaf_states,
    _reading_layout,
    diagram_size,
    hessenberg_334,
    single_row,
    validate_diagram,
    validate_hessenberg,
)
from .permutations import from_word
from .pinball import CheckResult, rolldown_table, rolldown_words, verify_pinball

if TYPE_CHECKING:
    from .billey import S1Value

__all__ = ["main", "build_parser", "parse_records", "default_hessenberg"]


def default_hessenberg(n: int) -> tuple[int, ...]:
    """The 334 family for n >= 4; below that, its nearest valid relative."""
    if n >= 4:
        return hessenberg_334(n)
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    return {1: (1,), 2: (2, 2), 3: (3, 3, 3)}[n]


def _comma_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        )


# ---------------------------------------------------------------------------
# Formatting


def _fmt_entries(values: Sequence[int], n: int) -> str:
    sep = "" if n <= 9 else ","
    return sep.join(str(v) for v in values)


def _fmt_word(word: Sequence[int]) -> str:
    return " ".join(f"s_{i}" for i in word) if word else "e"


def _fmt_pairs(pairs) -> str:
    return " ".join(f"({a},{b})" for a, b in pairs) if pairs else "-"


def _fmt_s1(value: S1Value) -> str:
    coeff, deg = value
    if coeff == 0:
        return "0"
    if deg == 0:
        return str(coeff)
    lead = {1: "", -1: "-"}.get(coeff, str(coeff))
    return f"{lead}t" if deg == 1 else f"{lead}t^{deg}"


def _s1_json(value: S1Value) -> dict:
    return {"coeff": str(value.coeff), "deg": value.degree}


def _jsonable(obj):
    """A witness as json: tuples as lists, each ``S1Value`` as its dict.
    An ``S1Value`` is told by its fields, so pinball witnesses are encoded
    without importing ``billey``."""
    if isinstance(obj, (tuple, list)):
        if getattr(obj, "_fields", None) == ("coeff", "degree"):
            return _s1_json(obj)
        return [_jsonable(x) for x in obj]
    return obj


# ---------------------------------------------------------------------------
# Emission


_JSON = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def parse_records(text: str) -> list[dict]:
    """Parse machine (json) output back into its records."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def _emit_table(headers, rows, out) -> None:
    widths = [len(cell) for cell in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip()

    out.write(line(headers) + "\n")
    out.write("  ".join("-" * width for width in widths) + "\n")
    for row in rows:
        out.write(line(row) + "\n")


def _encoded(record):
    """The json line of an item whose record is ``record(item)``."""
    encode = _JSON.encode
    return lambda item: encode(record(item)) + "\n"


def _emit(args, items, headers, line, row) -> None:
    """Write one line per item: ``line(item)`` in json, ``row(item)``'s
    cells in csv and table.

    json and csv write each line as its item arrives; table keeps its rows,
    since every row sets the column widths.
    """
    out = sys.stdout
    if args.format == "json":
        for item in items:
            out.write(line(item))
    elif args.format == "csv":
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(map(row, items))
    else:
        _emit_table(headers, [row(item) for item in items], out)


# ---------------------------------------------------------------------------
# Argument resolution


def _resolve(args) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    n = args.n
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n}")
    h = tuple(args.h) if args.h is not None else default_hessenberg(n)
    if len(h) != n:
        raise ValueError(f"h has {len(h)} values but n = {n}")
    validate_hessenberg(h)
    shape = tuple(args.shape) if args.shape is not None else single_row(n)
    validate_diagram(shape)
    if diagram_size(shape) != n:
        raise ValueError(
            f"shape {shape} has {diagram_size(shape)} cells but n = {n}"
        )
    return n, h, shape


def _require_single_row(shape, command: str) -> None:
    if len(shape) != 1:
        raise ValueError(f"{command} needs the single-row shape, got {shape}")


# ---------------------------------------------------------------------------
# Subcommands


class _Texts(dict):
    """The text of each key, made by ``make(key)`` when the key is first
    looked up and kept for every later lookup."""

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        text = self[key] = self.make(key)
        return text


def _fillings_texts(n: int, shape):
    """The json line and the csv/table cells of a leaf state of the pass
    (``fillings._leaf_states``): what ``_JSON`` writes of its
    ``PermissibleRecord``'s ``_asdict()``, keys sorted, and the table row.

    Both are joined from the texts of the values 0..n and of each settled
    pair set, keyed by the pass's cached ``pairs_of`` tuples.  The reading
    word's texts are made once per leaf; on the single row they are the
    filling's one row, on several rows each row is joined from them."""
    nums = [str(v) for v in range(n + 1)].__getitem__
    rows = None if len(shape) == 1 else _reading_layout(shape)[2]
    sep = "" if n <= 9 else ","
    pair_json = _Texts(lambda ps: ",".join(f"[{a},{b}]" for a, b in ps))
    pair_cell = _Texts(_fmt_pairs)

    def line(state) -> str:
        texts = list(map(nums, state.word))
        word = ",".join(texts)
        return "".join((
            '{"filling":[[',
            word if rows is None else "],[".join(
                [",".join([texts[p] for p in row]) for row in rows]
            ),
            ']],"pairs":[',
            ",".join(map(pair_json.__getitem__, filter(None, state.pairs_of))),
            '],"word":[',
            word,
            '],"x":[',
            ",".join(map(nums, state.x())),
            "]}\n",
        ))

    def cells(state) -> tuple[str, ...]:
        texts = list(map(nums, state.word))
        word = sep.join(texts)
        return (
            word if rows is None else " | ".join(
                [sep.join([texts[p] for p in row]) for row in rows]
            ),
            word,
            " ".join(map(pair_cell.__getitem__, filter(None, state.pairs_of))) or "-",
            ",".join(map(nums, state.x())) or "-",
        )

    return line, cells


def cmd_fillings(args) -> int:
    n, h, shape = _resolve(args)
    _emit(
        args,
        _leaf_states(shape, h),
        ("filling", "reading-word", "dimension-pairs", "x"),
        *_fillings_texts(n, shape),
    )
    return 0


def cmd_rolldowns(args) -> int:
    n, h, shape = _resolve(args)
    _require_single_row(shape, "rolldowns")

    def record(item) -> dict:
        w, roll, word = item
        return {"w": w, "rolldown": roll, "word": word, "length": len(word)}

    def row(item) -> tuple[str, ...]:
        w, roll, word = item
        return (
            _fmt_entries(w, n),
            _fmt_entries(roll, n),
            _fmt_word(word),
            str(len(word)),
        )

    items = (
        (w, from_word(n, word), word) for w, word in rolldown_words(shape, h).items()
    )
    _emit(args, items, ("w", "rolldown", "word", "length"), _encoded(record), row)
    return 0


def cmd_verify(args) -> int:
    n, h, shape = _resolve(args)
    if args.mode == "basis334":
        _require_single_row(shape, "verify --mode basis334")
        if n >= 4 and h != hessenberg_334(n):
            raise ValueError(f"basis334 needs h = {hessenberg_334(n)}, got {h}")
        from .hess334 import verify_334_theorem

        report = verify_334_theorem(n)
    else:
        report = verify_pinball(shape, h)
    _emit(
        args,
        (*report.checks(), CheckResult("result", report.passed)),
        ("check", "status", "witnesses"),
        _encoded(
            lambda c: {
                "check": c.name,
                "passed": c.passed,
                "witnesses": _jsonable(c.witnesses),
            }
        ),
        lambda c: (c.name, "pass" if c.passed else "FAIL", str(len(c.witnesses))),
    )
    return 0 if report.passed else 1


def _torus_line():
    """The json line of a ``matrix --full-torus`` row (v, polynomials), as
    ``_JSON`` writes {"entries": [[{"coeff", "exps"}, ...], ...], "v": v}:
    terms in ``sorted_terms()`` order, joined from a table of the text after
    each exponent tuple's coefficient, built as the tuples first appear."""
    after = _Texts(lambda exps: '","exps":[' + ",".join(map(str, exps)) + "]}")

    def entry(p) -> str:
        terms = [
            '{"coeff":"' + str(coeff) + after[exps] for exps, coeff in p.sorted_terms()
        ]
        return "[" + ",".join(terms) + "]"

    def line(item) -> str:
        v, entries = item
        return "".join((
            '{"entries":[',
            ",".join(map(entry, entries)),
            '],"v":[',
            ",".join(map(str, v)),
            "]}\n",
        ))

    return line


def _torus_cell():
    """The csv/table cell of a full-torus polynomial, its ``repr``, with
    each exponent tuple's variable names (``t3^2*t5``) made once, as the
    tuples first appear."""
    from .billey import _monomial, _polynomial_text

    names = _Texts(_monomial).__getitem__
    return lambda p: _polynomial_text(p.sorted_terms(), names)


def cmd_matrix(args) -> int:
    n, h, shape = _resolve(args)
    _require_single_row(shape, "matrix")
    from .billey import restriction_matrix, sigma_rows

    table = rolldown_table(shape, h)
    points = tuple(sorted(table))
    if args.full_torus:
        items = zip(points, sigma_rows((table[v] for v in points), points))
        line, as_cell = _torus_line(), _torus_cell()
    else:
        items = zip(points, restriction_matrix(points, table).dense_rows())
        line = _encoded(
            lambda item: {"v": item[0], "entries": [_s1_json(e) for e in item[1]]}
        )
        as_cell = _fmt_s1

    def row(item) -> tuple[str, ...]:
        v, entries = item
        return (_fmt_entries(v, n), *map(as_cell, entries))

    headers = ("v", *(_fmt_entries(w, n) for w in points))
    _emit(args, items, headers, line, row)
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hesspin",
        description=(
            "Exact tables for Hessenberg fixed points, rolldowns and"
            " equivariant restrictions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def add_common(sp) -> None:
        sp.add_argument(
            "--n", type=int, required=True, help="size of the symmetric group S_n"
        )
        sp.add_argument(
            "--h",
            type=_comma_ints,
            default=None,
            metavar="H1,H2,...",
            help=(
                "Hessenberg function values"
                " (default: 334 family, clamped for n < 4)"
            ),
        )
        sp.add_argument(
            "--lambda",
            dest="shape",
            type=_comma_ints,
            default=None,
            metavar="L1,L2,...",
            help="Young diagram row lengths (default: single row)",
        )
        sp.add_argument(
            "--format",
            choices=("table", "json", "csv"),
            default="table",
            help="output format (json is the machine format, one record per line)",
        )

    p_fillings = sub.add_parser(
        "fillings", help="permissible fillings with dimension pairs"
    )
    add_common(p_fillings)
    p_fillings.set_defaults(func=cmd_fillings)

    p_rolldowns = sub.add_parser(
        "rolldowns", help="fixed points with rolldown words and degrees"
    )
    add_common(p_rolldowns)
    p_rolldowns.set_defaults(func=cmd_rolldowns)

    p_verify = sub.add_parser(
        "verify", help="pinball success or the 334 module-basis checks"
    )
    add_common(p_verify)
    p_verify.add_argument(
        "--mode",
        choices=("pinball", "basis334"),
        default="pinball",
        help="which verification to run",
    )
    p_verify.set_defaults(func=cmd_verify)

    p_matrix = sub.add_parser(
        "matrix", help="projected restriction matrix over all fixed points"
    )
    add_common(p_matrix)
    p_matrix.add_argument(
        "--full-torus",
        action="store_true",
        dest="full_torus",
        help="emit multivariate restrictions instead of the circle projection",
    )
    p_matrix.set_defaults(func=cmd_matrix)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except ValueError as exc:
        _report(f"error: {exc}")
        return 2
    except RuntimeError as exc:
        _report(f"internal error: {exc}")
        return 3
    except OSError as exc:
        _report(f"error: cannot write output: {exc}")
        _drop_stdout()
        return 4


def _report(line: str) -> None:
    """Print the one error line to stderr if it can be written.  The exit
    status carries the outcome either way, so a failing stderr must not
    turn it into a traceback and exit 1."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _drop_stdout() -> None:
    """Point the process's standard output at os.devnull once writing to it
    failed, so that the interpreter's final flush does not fail again.  A
    stream put in place of ``sys.stdout`` (by a caller or a test) is left
    alone."""
    if sys.stdout is sys.__stdout__:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


if __name__ == "__main__":
    sys.exit(main())
