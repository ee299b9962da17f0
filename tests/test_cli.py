"""Command line behavior: records, formats, determinism, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hesspin import hess334
from hesspin.cli import default_hessenberg, main

SRC = str(Path(__file__).resolve().parent.parent / "src")
FULL_FLAG_7 = ["fillings", "--n", "7", "--h", "7,7,7,7,7,7,7", "--format", "json"]


def spawn(argv, stdout, stderr=subprocess.PIPE):
    """``python -m hesspin.cli argv`` on this checkout, writing to ``stdout``
    and ``stderr``."""
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + path if path else SRC)
    return subprocess.Popen(
        [sys.executable, "-m", "hesspin.cli", *argv],
        stdout=stdout,
        stderr=stderr,
        env=env,
    )


def parse_records(text):
    """The records of json output, one per line."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDefaults:
    def test_default_h(self):
        assert default_hessenberg(6) == (3, 3, 4, 5, 6, 6)
        assert default_hessenberg(3) == (3, 3, 3)
        assert default_hessenberg(2) == (2, 2)
        assert default_hessenberg(1) == (1,)
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be positive"):
                default_hessenberg(n)


class TestFillings:
    def test_worked_example_present(self, capsys):
        code, out, _ = run(capsys, "fillings", "--n", "5", "--format", "json")
        assert code == 0
        records = parse_records(out)
        assert len(records) == 24
        hit = next(r for r in records if r["word"] == [2, 4, 3, 1, 5])
        assert hit["pairs"] == [[1, 2], [1, 3], [1, 4]]
        assert hit["x"] == [1, 1, 1, 0]

    def test_n1_single_record(self, capsys):
        code, out, _ = run(capsys, "fillings", "--n", "1", "--format", "json")
        assert code == 0
        records = parse_records(out)
        assert records == [{"filling": [[1]], "pairs": [], "word": [1], "x": []}]

    def test_peterson_count(self, capsys):
        code, out, _ = run(
            capsys, "fillings", "--n", "4", "--h", "2,3,4,4", "--format", "json"
        )
        assert code == 0
        assert len(parse_records(out)) == 8

    def test_two_row_shape(self, capsys):
        code, out, _ = run(
            capsys,
            "fillings", "--n", "4", "--h", "1,2,3,4",
            "--lambda", "2,2", "--format", "json",
        )
        assert code == 0
        for record in parse_records(out):
            assert [len(row) for row in record["filling"]] == [2, 2]


class TestRolldowns:
    def test_worked_example_row(self, capsys):
        code, out, _ = run(capsys, "rolldowns", "--n", "5", "--format", "json")
        assert code == 0
        records = parse_records(out)
        hit = next(r for r in records if r["w"] == [4, 3, 2, 1, 5])
        assert hit["word"] == [3, 1, 2, 1]
        assert hit["length"] == 4

    def test_identity_row_and_census(self, capsys):
        code, out, _ = run(capsys, "rolldowns", "--n", "4", "--format", "json")
        records = parse_records(out)
        identity = [1, 2, 3, 4]
        hit = next(r for r in records if r["w"] == identity)
        assert hit == {"length": 0, "rolldown": identity, "w": identity, "word": []}
        assert len(records) == 12

    def test_requires_single_row(self, capsys):
        code, _, err = run(capsys, "rolldowns", "--n", "4", "--lambda", "2,2")
        assert code == 2
        assert "single-row" in err


class TestVerify:
    def test_basis334_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--n", "4", "--mode", "basis334", "--format", "json"
        )
        assert code == 0
        records = parse_records(out)
        assert all(r["passed"] for r in records)
        assert records[-1]["check"] == "result"

    def test_basis334_rejects_n3(self, capsys):
        code, _, err = run(capsys, "verify", "--n", "3", "--mode", "basis334")
        assert code == 2
        assert "n >= 4" in err

    def test_basis334_rejects_other_h(self, capsys):
        code, _, err = run(
            capsys, "verify", "--n", "4", "--h", "2,3,4,4", "--mode", "basis334"
        )
        assert code == 2
        assert "basis334" in err

    def test_pinball_springer(self, capsys):
        code, out, _ = run(
            capsys,
            "verify", "--n", "4", "--h", "1,2,3,4", "--lambda", "2,2",
        )
        assert code == 0
        assert "rolldowns-distinct" in out
        assert "result" in out

    def test_pinball_full_flag(self, capsys):
        code, _, _ = run(capsys, "verify", "--n", "4", "--h", "4,4,4,4")
        assert code == 0


class TestMatrix:
    def test_structure(self, capsys):
        code, out, _ = run(capsys, "matrix", "--n", "4", "--format", "json")
        assert code == 0
        records = parse_records(out)
        assert len(records) == 12
        points = [r["v"] for r in records]
        assert points == sorted(points)
        index = {tuple(p): i for i, p in enumerate(points)}
        for i, record in enumerate(records):
            diag = record["entries"][i]
            assert diag != {"coeff": "0", "deg": 0}
        # v = 1243 is not below w = 1324: sentinel zero
        row = records[index[(1, 2, 4, 3)]]
        assert row["entries"][index[(1, 3, 2, 4)]] == {"coeff": "0", "deg": 0}

    @pytest.mark.slow
    def test_n8_diagonal_entry(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--n", "8", "--h", "3,3,4,5,6,7,8,8",
            "--format", "json",
        )
        assert code == 0
        records = parse_records(out)
        target = [5, 4, 3, 2, 1, 8, 7, 6]
        index = next(i for i, r in enumerate(records) if r["v"] == target)
        assert records[index]["entries"][index] == {"coeff": "144", "deg": 7}

    def test_full_torus(self, capsys):
        code, out, _ = run(
            capsys, "matrix", "--n", "4", "--full-torus", "--format", "json"
        )
        assert code == 0
        records = parse_records(out)
        identity_row = next(r for r in records if r["v"] == [1, 2, 3, 4])
        assert all(
            entry == [{"coeff": "1", "exps": [0, 0, 0, 0]}]
            for entry in identity_row["entries"]
        )

    def test_requires_single_row(self, capsys):
        code, _, err = run(capsys, "matrix", "--n", "4", "--lambda", "3,1")
        assert code == 2
        assert "single-row" in err


class TestErrors:
    def test_invalid_h_names_inequality(self, capsys):
        code, _, err = run(capsys, "fillings", "--n", "4", "--h", "3,2,4,4")
        assert code == 2
        assert "h(2) = 2 violates weak increase" in err

    def test_h_length_mismatch(self, capsys):
        code, _, err = run(capsys, "fillings", "--n", "4", "--h", "3,3,3")
        assert code == 2
        assert "n = 4" in err

    def test_shape_size_mismatch(self, capsys):
        code, _, err = run(capsys, "fillings", "--n", "4", "--lambda", "3,2")
        assert code == 2
        assert "cells" in err

    def test_malformed_h(self, capsys):
        code, _, _ = run(capsys, "fillings", "--n", "4", "--h", "3,x,4,4")
        assert code == 2

    def test_unknown_format(self, capsys):
        code, _, _ = run(capsys, "fillings", "--n", "4", "--format", "yaml")
        assert code == 2

    def test_nonpositive_n(self, capsys):
        code, _, err = run(capsys, "fillings", "--n", "0")
        assert code == 2
        assert "n must be" in err

    def test_internal_error_is_one_line(self, capsys, monkeypatch):
        def broken(w):
            raise RuntimeError(f"unclassifiable filling {w}")

        monkeypatch.setattr(hess334, "_point", broken)
        code, out, err = run(capsys, "verify", "--n", "4", "--mode", "basis334")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: unclassifiable filling")
        assert err.count("\n") == 1

    def test_point_that_does_not_rebuild_is_internal(self, capsys, monkeypatch):
        # classification rebuilds each point from its subset; a constructor
        # that builds the wrong permutation must be caught, not trusted
        real = hess334._named
        monkeypatch.setattr(hess334, "_named", lambda *args: real(*args)[::-1])
        with pytest.raises(RuntimeError, match="unclassifiable"):
            hess334.classify((4, 3, 2, 1))
        code, out, err = run(capsys, "verify", "--n", "4", "--mode", "basis334")
        assert code == 3
        assert out == ""
        assert err.startswith("internal error: unclassifiable")
        assert err.count("\n") == 1


class TestOutputFailure:
    """A stdout that cannot be written ends the run with status 4 and one
    line on stderr, not a traceback.  A stderr that cannot be written loses
    that line, but not the status."""

    def test_pipe_closed_by_head(self):
        # about 0.7 MB of output: the reader closes long before the end
        cli = spawn(FULL_FLAG_7, subprocess.PIPE)
        head = subprocess.Popen(
            ["head", "-c", "100"], stdin=cli.stdout, stdout=subprocess.PIPE
        )
        cli.stdout.close()
        out, _ = head.communicate(timeout=60)
        err = cli.stderr.read().decode()
        cli.stderr.close()
        assert cli.wait(timeout=60) == 4
        assert out.startswith(b'{"filling":[[1,2,3,4,5,6,7]]') and len(out) == 100
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("n", ["3", "7"])
    def test_full_device(self, n):
        # n = 3 fits in the stdout buffer: it fails at the final flush
        with open("/dev/full", "w") as full:
            cli = spawn(["fillings", "--n", n, "--format", "json"], full)
            _, err = cli.communicate(timeout=60)
        assert cli.returncode == 4
        assert err.decode().splitlines() == [
            "error: cannot write output: [Errno 28] No space left on device"
        ]

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize(
        "argv,code",
        [
            (["verify", "--n", "0"], 2),
            (["verify", "--n", "4", "--mode", "basis334", "--format", "csv"], 4),
        ],
    )
    def test_unwritable_stderr_keeps_status(self, argv, code):
        # exit 1 would read as a failed verification
        with open("/dev/full", "w") as full:
            cli = spawn(argv, full, full)
            assert cli.wait(timeout=60) == code

    def test_in_process_stdout_raises(self, capsys, monkeypatch):
        class Closed:
            def write(self, text):
                raise BrokenPipeError(32, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        assert main(FULL_FLAG_7) == 4
        err = capsys.readouterr().err
        assert err == "error: cannot write output: [Errno 32] Broken pipe\n"


class TestDeterminismAndFormats:
    CASES = [
        ("fillings", "--n", "5", "--format", "json"),
        ("rolldowns", "--n", "5", "--format", "json"),
        ("matrix", "--n", "4", "--format", "json"),
        ("matrix", "--n", "4", "--format", "csv"),
        ("verify", "--n", "4", "--mode", "basis334", "--format", "json"),
        ("fillings", "--n", "4", "--format", "table"),
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: " ".join(a))
    def test_byte_identical_reruns(self, capsys, argv):
        code1, out1, _ = run(capsys, *argv)
        code2, out2, _ = run(capsys, *argv)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_machine_round_trip(self, capsys):
        _, out, _ = run(capsys, "rolldowns", "--n", "4", "--format", "json")
        records = parse_records(out)
        again = "".join(
            json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
            for r in records
        )
        assert again == out

    def test_formats_agree_on_data(self, capsys):
        _, json_out, _ = run(capsys, "rolldowns", "--n", "4", "--format", "json")
        _, csv_out, _ = run(capsys, "rolldowns", "--n", "4", "--format", "csv")
        records = parse_records(json_out)
        lines = csv_out.strip().splitlines()
        assert lines[0] == "w,rolldown,word,length"
        assert len(lines) == len(records) + 1
        for record, line in zip(records, lines[1:]):
            w_cell, roll_cell, word_cell, length_cell = line.split(",")
            assert w_cell == "".join(str(v) for v in record["w"])
            assert roll_cell == "".join(str(v) for v in record["rolldown"])
            assert int(length_cell) == record["length"]
            expected_word = (
                " ".join(f"s_{i}" for i in record["word"])
                if record["word"]
                else "e"
            )
            assert word_cell == expected_word
