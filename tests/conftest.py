"""Shared test plumbing: the acceptance verdict summary and a counter of
filling enumerations."""

import pytest

from hesspin import fillings

VERDICTS: list[str] = []


def record_verdict(line: str) -> None:
    VERDICTS.append(line)


def pytest_terminal_summary(terminalreporter):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def enumerations(monkeypatch):
    """Counts the runs of ``fillings._pass``, the one enumeration pass that
    ``enumerate_permissible``, ``hesspin fillings`` and every pinball table
    function read."""
    calls = []
    real = fillings._pass

    def counted(diagram, h):
        calls.append((diagram, h))
        return real(diagram, h)

    monkeypatch.setattr(fillings, "_pass", counted)
    return calls
