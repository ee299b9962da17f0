"""CLI output pinned byte for byte, and the streaming of long outputs.

``data/cli_sha256.json`` holds the exit status, size and sha256 of the
standard output of ``fillings``, ``rolldowns`` and ``verify --mode
pinball`` in json, csv and table format, for n = 4..7 with the 334,
Peterson and full-flag h and for the Springer shape ``--lambda 2,2 --h
1,2,3,4``.  They were recorded before these commands moved onto one
enumeration pass per run, from the per-point implementation.

It also pins ``matrix --n 4..7``, projected and ``--full-torus``, in the
same three formats.  Those were recorded while ``sigma_restriction`` still
summed Polynomial products over the reduced subwords it walked, before
its backward pass over packed monomials.  ``matrix --n 8 --full-torus
--format json`` was recorded while ``sigma_rows`` still ran that backward
pass once per entry, before it moved onto the forward column recurrence.
``matrix --n 5 --full-torus`` with the Peterson and the full-flag h, whose
entries are mostly nonzero and have negative coefficients, was recorded
while the CLI still wrote each entry from a ``Polynomial`` of ``sigma_rows``,
before it read the held terms.

``verify --mode basis334`` is pinned for n = 4..8 in the same three
formats.  Those were recorded while ``p_summand_counts`` still ran a
forward prefix recurrence pruned by Bruhat keys, before the backward
census.  The output lists each check with its status and witness count,
so while every check passes it is the same for every n.
"""

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hesspin import billey, cli, fillings
from hesspin.cli import default_hessenberg, main
from hesspin.fillings import (
    dimension_pairs,
    enumerate_permissible,
    hessenberg_full,
    hessenberg_identity,
    hessenberg_peterson,
    reading_word,
    single_row,
    top_parts,
)
from hesspin.pinball import fixed_points, rolldown_table

from oracles import all_diagram_h

PINNED = json.loads((Path(__file__).parent / "data" / "cli_sha256.json").read_text())


@pytest.mark.parametrize("argv", sorted(PINNED))
def test_output_matches_pinned_digest(capsys, argv):
    code = main(argv.split())
    out = capsys.readouterr().out.encode()
    expected = PINNED[argv]
    assert code == expected["code"]
    assert len(out) == expected["bytes"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]


def _subprocess_output(argv, env):
    """The exit status and standard output of ``python -m hesspin.cli
    argv`` on this checkout, run in ``env``."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    path = env.get("PYTHONPATH")
    env = dict(env, PYTHONPATH=src + os.pathsep + path if path else src)
    result = subprocess.run(
        [sys.executable, "-m", "hesspin.cli", *argv],
        env=env,
        capture_output=True,
        timeout=120,
    )
    return result.returncode, result.stdout


FULL_FLAG_7 = "fillings --n 7 --h 7,7,7,7,7,7,7"


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_subprocess_output_matches_pinned_digest(fmt, unbuffered):
    # a real stdout, unbuffered or not, gets the pinned bytes
    argv = f"{FULL_FLAG_7} --format {fmt}"
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    code, out = _subprocess_output(argv.split(), env)
    expected = PINNED[argv]
    assert code == expected["code"]
    assert len(out) == expected["bytes"]
    assert hashlib.sha256(out).hexdigest() == expected["sha256"]


@pytest.mark.parametrize("k", [0, 1, 1000])
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_records_before_an_internal_error_are_written(monkeypatch, capsys, fmt, k):
    # json and csv write the first k records (1000 span more than one
    # block) and no more; table writes nothing, as it waits for every row
    argv = [*FULL_FLAG_7.split(), "--format", fmt]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    real = cli._leaf_states

    def failing(shape, h):
        for count, state in enumerate(real(shape, h)):
            if count == k:
                raise RuntimeError(f"broken after {k} records")
            yield state

    monkeypatch.setattr(cli, "_leaf_states", failing)
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ("" if fmt == "table" else "".join(lines[: k + (fmt == "csv")]))
    assert err == f"internal error: broken after {k} records\n"


class _Watched(io.StringIO):
    """A stdout that notes, at each write, how many records had been
    produced and what was written."""

    def __init__(self, produced):
        super().__init__()
        self.produced = produced
        self.writes = []

    def write(self, text):
        self.writes.append((len(self.produced), text))
        return super().write(text)


BLOCK = 64 * 1024


def _assert_blocks(out: _Watched, records: int, header: int = 0) -> None:
    """``out`` got ``records`` record lines after ``header`` lines, in
    blocks: every write ends a line and holds the lines of exactly the
    records produced by then, so a block is written as soon as it fills,
    before the next record is made.  Every write holds less than 64 KiB
    plus its last line, and every write but the last at least 64 KiB."""
    texts = [text for _, text in out.writes]
    assert len(texts) >= 5
    for text in texts[:-1]:
        assert len(text) >= BLOCK
    for text in texts:
        # the text before the write's last line
        assert text.rfind("\n", 0, -1) + 1 < BLOCK
    written = 0
    for produced, text in out.writes:
        assert text.endswith("\n")
        written += text.count("\n")
        assert produced == written - header
    assert produced == len(out.produced) == records


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fillings_streams(monkeypatch, fmt):
    produced = []
    real = cli._leaf_states

    def watched(shape, h):
        for state in real(shape, h):
            produced.append(state)
            yield state

    monkeypatch.setattr(cli, "_leaf_states", watched)
    out = _Watched(produced)
    monkeypatch.setattr(sys, "stdout", out)
    assert main([*FULL_FLAG_7.split(), "--format", fmt]) == 0
    _assert_blocks(out, 5040, header=fmt == "csv")


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fillings_build_no_records(monkeypatch, capsys, fmt):
    # the lines are read off the leaf states of the pass
    def refuse(*args):
        raise AssertionError("filling or pairs built")

    monkeypatch.setattr(fillings._PrefixState, "filling", refuse)
    monkeypatch.setattr(fillings._PrefixState, "pairs", refuse)
    for argv in (["--n", "6", "--h", "6,6,6,6,6,6"], ["--n", "5", "--lambda", "3,2"]):
        assert main(["fillings", *argv, "--format", fmt]) == 0
    with pytest.raises(AssertionError, match="filling or pairs built"):
        enumerate_permissible((5,), default_hessenberg(5))
    # the default h at n = 5 is the 334 family
    count = 720 + len(fixed_points((3, 2), default_hessenberg(5)))
    assert capsys.readouterr().out.count("\n") == count + 2 * (fmt == "csv")


def test_fillings_json_builds_no_table_cells(monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("table cell built for json output")

    monkeypatch.setattr(cli, "_fmt_entries", refuse)
    monkeypatch.setattr(cli, "_fmt_pairs", refuse)
    assert main(["fillings", "--n", "5", "--format", "json"]) == 0
    assert capsys.readouterr().out.count("\n") == 24


def _assert_json_lines_generic(capsys, diagram, h) -> None:
    """``fillings --format json`` writes what ``json.dumps`` makes of each
    permissible filling with its reading word, sorted dimension pairs and
    x, from the per-filling functions; compared line by line, so that a
    failure shows one line."""
    argv = ["fillings", "--n", str(len(h)), "--format", "json"]
    argv += ["--h", ",".join(map(str, h)), "--lambda", ",".join(map(str, diagram))]
    assert main(argv) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines.pop() == ""
    fills = enumerate_permissible(diagram, h)
    assert len(lines) == len(fills) > 0
    for line, filling in zip(lines, fills):
        pairs = dimension_pairs(filling, h)
        record = {
            "filling": filling,
            "pairs": sorted(pairs),
            "word": reading_word(filling),
            "x": top_parts(pairs, len(h)),
        }
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))


# n = 1 (x empty), the identity h (no pairs), and two-digit values at
# n = 10, 11 on one row and on several rows
JSON_CASES = [
    ((1,), (1,)),
    ((4,), hessenberg_identity(4)),
    ((3, 2), hessenberg_identity(5)),
    ((10,), hessenberg_peterson(10)),
    ((11,), hessenberg_peterson(11)),
    ((4, 3, 2, 1), hessenberg_peterson(10)),
    ((9, 2), hessenberg_peterson(11)),
]


@pytest.mark.parametrize("n", range(1, 6))
def test_fillings_json_matches_generic_encoder(capsys, n):
    # the lines are joined from string tables; json.dumps is the reference
    for diagram, h in all_diagram_h(n):
        _assert_json_lines_generic(capsys, diagram, h)


@pytest.mark.parametrize("diagram,h", JSON_CASES, ids=lambda case: str(case))
def test_fillings_json_edge_cases(capsys, diagram, h):
    _assert_json_lines_generic(capsys, diagram, h)


def _full_torus_lines_generic(capsys, h) -> list[str]:
    """``matrix --full-torus --format json`` writes what ``json.dumps``
    makes of each row of ``sigma_rows``; compared line by line, so that a
    failure shows one line.  The lines, for the caller to inspect."""
    n = len(h)
    argv = ["matrix", "--n", str(n), "--h", ",".join(map(str, h))]
    assert main(argv + ["--full-torus", "--format", "json"]) == 0
    lines = capsys.readouterr().out.split("\n")
    assert lines.pop() == ""
    table = rolldown_table(single_row(n), h)
    points = sorted(table)
    rows = list(billey.sigma_rows([table[v] for v in points], points))
    assert len(lines) == len(rows) == len(points) > 0
    for line, v, row in zip(lines, points, rows):
        entries = [
            [{"exps": list(e), "coeff": str(c)} for e, c in p.sorted_terms()]
            for p in row
        ]
        record = {"v": v, "entries": entries}
        assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
    return lines


# the full flag at n = 6 has 720 x 720 entries, about 215 MB of json
FULL_TORUS_H = sorted(
    {
        h
        for n in range(1, 7)
        for h in (default_hessenberg(n), hessenberg_peterson(n), hessenberg_full(n))
        if n < 6 or h != hessenberg_full(n)
    },
    key=lambda h: (len(h), h),
)


def test_full_torus_json_matches_generic_encoder(capsys):
    # the lines are joined from string tables; json.dumps is the reference
    negative = empty = False
    for h in FULL_TORUS_H:
        for line in _full_torus_lines_generic(capsys, h):
            negative = negative or '"coeff":"-' in line
            empty = empty or "[]" in line
    # a minus sign and a zero entry are both written somewhere
    assert negative and empty


def test_full_torus_cells_match_repr():
    # the table and csv cells are joined from the held terms and
    # per-exponent name texts
    table = rolldown_table(single_row(4), hessenberg_full(4))
    points = sorted(table)
    rows = [table[v] for v in points]
    cells = cli._torus_texts(4, len(points))[1]
    held = billey._held_rows(rows, points, torus=True)
    for item, polys in zip(zip(points, *held), billey.sigma_rows(rows, points)):
        assert cells(item) == ("".join(map(str, item[0])), *map(repr, polys))
    cells = cli._torus_texts(2, 1)[1]
    for terms in ({(0, 0): -3}, {(0, 1): -1, (2, 0): 1}, {(1, 1): 2, (0, 0): 1}, {}):
        p = billey.Polynomial(2, terms)
        flat = tuple(x for term in p.sorted_terms() for x in term)
        mask, held = (1, [flat]) if flat else (0, [])
        assert cells(((2, 1), mask, held)) == ("21", repr(p))


@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_full_torus_builds_no_polynomial(monkeypatch, capsys, fmt):
    # every entry is written from the terms the recurrence holds
    built = []

    def trusted(cls, nvars, terms):
        built.append(terms)

    def init(self, nvars, terms=None):
        built.append(terms)

    monkeypatch.setattr(billey.Polynomial, "_trusted", classmethod(trusted))
    monkeypatch.setattr(billey.Polynomial, "__init__", init)
    assert main(["matrix", "--n", "5", "--h", "5,5,5,5,5", "--full-torus", "--format", fmt]) == 0
    assert built == []
    header = {"json": 0, "csv": 1, "table": 2}[fmt]
    assert capsys.readouterr().out.count("\n") == 120 + header
    # the count sees a polynomial that is built
    billey.Polynomial(2)
    assert built == [None]


def test_rolldowns_make_one_enumeration_pass(enumerations, capsys):
    assert main(["rolldowns", "--n", "6", "--format", "json"]) == 0
    assert len(enumerations) == 1
    assert capsys.readouterr().out.count("\n") == 48


def test_full_torus_streams_rows(monkeypatch):
    produced = []
    real = billey._held_rows

    def watched(rows, points, torus=False):
        masks, held = real(rows, points, torus=torus)

        def stream():
            for terms in held:
                produced.append(terms)
                yield terms

        return masks, stream()

    # cmd_matrix imports _held_rows from billey when it runs, and reads
    # each row's held terms as it writes the row
    monkeypatch.setattr(billey, "_held_rows", watched)
    out = _Watched(produced)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["matrix", "--n", "7", "--full-torus", "--format", "json"]) == 0
    # 96 rows, about 0.6 MB
    _assert_blocks(out, 96)


def test_matrix_streams_rows(monkeypatch):
    produced = []
    real = billey.p_rows

    def watched(rows, points):
        for row in real(rows, points):
            produced.append(row)
            yield row

    # cmd_matrix imports p_rows from billey when it runs
    monkeypatch.setattr(billey, "p_rows", watched)
    out = _Watched(produced)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["matrix", "--n", "8", "--format", "json"]) == 0
    # 192 rows, about 0.8 MB
    _assert_blocks(out, 192)
