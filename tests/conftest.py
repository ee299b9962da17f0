"""Shared test plumbing: the acceptance verdict summary and a counter of
filling enumerations."""

import pytest

from hesspin import pinball

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
    """Counts the enumeration passes started from ``pinball``."""
    calls = []
    real = pinball.permissible_records

    def counted(diagram, h):
        calls.append((diagram, h))
        return real(diagram, h)

    monkeypatch.setattr(pinball, "permissible_records", counted)
    return calls
