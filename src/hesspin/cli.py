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
byte-identical output.  Output is written in blocks of whole lines: the
text is held until it reaches 64 KiB (the capacity of a Linux pipe) and
then written with one ``write``, so a json or csv block goes out as soon
as its last record is made, before the next record is, and the rest goes
out in one final write.  Table output is written once all rows are known,
in the same blocks.  Records made before an error are written before the
error is reported.

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
from functools import partial
from typing import TYPE_CHECKING, Optional, Sequence

from .fillings import (
    _halves,
    _key_pairs,
    _leaf_states,
    _packing,
    _reading_layout,
    _Table,
    diagram_size,
    hessenberg_334,
    single_row,
    validate_diagram,
    validate_hessenberg,
)
from .permutations import from_word, set_bits

if TYPE_CHECKING:
    from .billey import S1Value

__all__ = ["main", "build_parser", "default_hessenberg"]


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


def _table_lines(headers, rows):
    """The lines of a table: the header, a rule, then one line per row,
    columns as wide as their widest cell."""
    widths = [len(cell) for cell in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells) -> str:
        return "  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(cells)
        ).rstrip() + "\n"

    yield line(headers)
    yield "  ".join("-" * width for width in widths) + "\n"
    yield from map(line, rows)


class _Echo:
    """A file whose ``write`` returns its text, so that a ``csv.writer`` on
    it returns each row's line from ``writerow``."""

    write = staticmethod(str)


def _csv_lines(headers, rows):
    """The csv lines of the header, then of each row."""
    writerow = csv.writer(_Echo(), lineterminator="\n").writerow
    yield writerow(headers)
    yield from map(writerow, rows)


def _encoded(record):
    """The json line of an item whose record is ``record(item)``."""
    encode = _JSON.encode
    return lambda item: encode(record(item)) + "\n"


# the capacity of a Linux pipe: one write of a block fills the pipe once
_BLOCK = 1 << 16


def _emit(args, items, headers, line, row) -> None:
    """Write one line per item: ``line(item)`` in json, ``row(item)``'s
    cells in csv and table.

    The lines are held until they reach ``_BLOCK`` characters, then written
    with one ``write``; the rest is written when the items end, or when
    making one fails, so every line made is written before the error
    propagates.  json and csv lines are made as their items arrive; table
    keeps its rows, since every row sets the column widths.
    """
    if args.format == "json":
        lines = map(line, items)
    elif args.format == "csv":
        lines = _csv_lines(headers, map(row, items))
    else:
        lines = _table_lines(headers, [row(item) for item in items])
    write = sys.stdout.write
    held, size = [], 0
    try:
        for text in lines:
            held.append(text)
            size += len(text)
            if size >= _BLOCK:
                block = "".join(held)
                held, size = [], 0
                write(block)
    finally:
        if held:
            write("".join(held))


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


def _fillings_texts(n: int, shape):
    """The json line and the csv/table cells of a leaf state of the pass
    (``fillings._leaf_states``): the json object with keys filling, pairs,
    word and x, sorted, and the table row.

    Both are joined from texts made once per run, each the first time its
    key is looked up: the values 0..n, each settled pair set, keyed by the
    pass's ``pairs_of`` keys (0, no pairs, skipped), and each half of the
    packed x, keyed as the tables of ``fillings._halves`` are.  The
    reading word's texts are made once per leaf; on the single row they
    are the filling's one row, on several rows each row is joined from
    them."""
    nums = [str(v) for v in range(n + 1)].__getitem__
    rows = None if len(shape) == 1 else _reading_layout(shape)[2]
    sep = "" if n <= 9 else ","
    pair_json = _Table(lambda key: ",".join(f"[{a},{b}]" for a, b in _key_pairs(key)))
    pair_cell = _Table(lambda key: _fmt_pairs(_key_pairs(key)))
    x = _packing(n).x
    m, low, high = _halves(n)[:3]  # x_2..x_m in the low half
    low_x = _Table(lambda key: ",".join(map(nums, x(key)[: m - 1])))
    high_x = _Table(lambda key: ",".join(map(nums, x(key)[m - 1 :])))
    x_sep = "," if 1 < m < n else ""  # only then are both halves nonempty

    def line(state) -> str:
        texts = list(map(nums, state.word))
        word = ",".join(texts)
        t = state.tops[-1]
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
            low_x[t & low],
            x_sep,
            high_x[t & high],
            "]}\n",
        ))

    def cells(state) -> tuple[str, ...]:
        texts = list(map(nums, state.word))
        word = sep.join(texts)
        t = state.tops[-1]
        return (
            word if rows is None else " | ".join(
                [sep.join([texts[p] for p in row]) for row in rows]
            ),
            word,
            " ".join(map(pair_cell.__getitem__, filter(None, state.pairs_of))) or "-",
            low_x[t & low] + x_sep + high_x[t & high] or "-",
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
    from .pinball import rolldown_words

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
    from .pinball import CheckResult, verify_pinball

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


def _torus_texts(n: int, columns: int):
    """The json line and the csv/table cells of a ``matrix --full-torus``
    row (v, mask, held), read off the terms the recurrence holds
    (``billey._held_rows``): each nonzero entry's flat tuple exps, coeff,
    ... is already in ``sorted_terms()`` order and joined as it comes, and
    every zero entry is one constant, the text of no terms, so no
    ``Polynomial`` is built.  A json term is joined from a table of the text
    after each exponent tuple's coefficient, and a cell, the entry's
    ``repr``, from a table of each tuple's variable names (``t3^2*t5``)."""
    from .billey import _monomial, _polynomial_text

    after = _Table(lambda exps: '","exps":[' + ",".join(map(str, exps)) + "]}")

    def dense(text):
        zero = text(())

        def texts(mask: int, held) -> list[str]:
            out = [zero] * columns
            for b, terms in zip(set_bits(mask), held):
                out[b] = text(zip(terms[::2], terms[1::2]))
            return out

        return texts

    entries = dense(
        lambda ts: "[" + ",".join(['{"coeff":"' + str(c) + after[e] for e, c in ts]) + "]"
    )
    cells = dense(partial(_polynomial_text, monomial=_Table(_monomial).__getitem__))

    def line(item) -> str:
        v, mask, held = item
        vs = ",".join(map(str, v))
        return '{"entries":[' + ",".join(entries(mask, held)) + '],"v":[' + vs + "]}\n"

    return line, lambda item: (_fmt_entries(item[0], n), *cells(item[1], item[2]))


def cmd_matrix(args) -> int:
    n, h, shape = _resolve(args)
    _require_single_row(shape, "matrix")
    from .billey import _checked_rows, _held_rows, p_rows
    from .pinball import rolldown_table

    table = rolldown_table(shape, h)
    points = tuple(sorted(table))
    if args.full_torus:
        rows = _checked_rows([table[v] for v in points], points)[0]
        items = zip(points, *_held_rows(rows, points, torus=True))
        line, row = _torus_texts(n, len(points))
    else:
        items = zip(points, p_rows((table[v] for v in points), points))
        line = _encoded(
            lambda item: {"v": item[0], "entries": [_s1_json(e) for e in item[1]]}
        )
        row = lambda item: (_fmt_entries(item[0], n), *map(_fmt_s1, item[1]))

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
