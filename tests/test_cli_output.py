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
its backward pass over packed monomials.

``verify --mode basis334`` is pinned for n = 4..8 in the same three
formats.  Those were recorded while ``p_summand_counts`` still ran a
forward prefix recurrence pruned by Bruhat keys, before the backward
census.  The output lists each check with its status and witness count,
so while every check passes it is the same for every n.
"""

import hashlib
import io
import json
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


class _Watched(io.StringIO):
    """A stdout that notes how many records were produced at each write."""

    def __init__(self, produced):
        super().__init__()
        self.produced = produced
        self.seen = []

    def write(self, text):
        self.seen.append(len(self.produced))
        return super().write(text)


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_fillings_streams(monkeypatch, fmt):
    produced = []
    real = cli._leaf_states

    def watched(shape, h):
        for state in real(shape, h):
            produced.append(state)
            yield state

    monkeypatch.setattr(cli, "_leaf_states", watched)
    # the table emitter is the one that keeps every row
    monkeypatch.setattr(cli, "_emit_table", None)
    out = _Watched(produced)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["fillings", "--n", "6", "--h", "6,6,6,6,6,6", "--format", fmt]) == 0
    assert len(produced) == 720
    # record k is written before record k + 1 is enumerated
    assert out.seen[-720:] == list(range(1, 721))
    assert out.getvalue().count("\n") == 720 + (fmt == "csv")


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
    # the table and csv cells are joined from per-exponent name texts
    cell = cli._torus_cell()
    h = hessenberg_full(4)
    table = rolldown_table(single_row(4), h)
    points = sorted(table)
    for row in billey.sigma_rows([table[v] for v in points], points):
        for p in row:
            assert cell(p) == repr(p)
    for terms in ({(0, 0): -3}, {(0, 1): -1, (2, 0): 1}, {(1, 1): 2, (0, 0): 1}):
        p = billey.Polynomial(2, terms)
        assert cell(p) == repr(p)


def test_rolldowns_make_one_enumeration_pass(enumerations, capsys):
    assert main(["rolldowns", "--n", "6", "--format", "json"]) == 0
    assert len(enumerations) == 1
    assert capsys.readouterr().out.count("\n") == 48


def test_full_torus_streams_rows(monkeypatch):
    produced = []
    real = billey.sigma_rows

    def watched(rows, points):
        for row in real(rows, points):
            produced.append(row)
            yield row

    # cmd_matrix imports sigma_rows from billey when it runs
    monkeypatch.setattr(billey, "sigma_rows", watched)
    out = _Watched(produced)
    monkeypatch.setattr(sys, "stdout", out)
    assert main(["matrix", "--n", "5", "--full-torus", "--format", "json"]) == 0
    assert len(produced) == 24
    # row k is written before row k + 1 is computed
    assert out.seen == list(range(1, 25))


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
    assert main(["matrix", "--n", "6", "--format", "json"]) == 0
    assert len(produced) == 48
    # row k is written before row k + 1 is built
    assert out.seen == list(range(1, 49))
