"""Shared test plumbing: the acceptance verdict summary, a counter of
filling enumerations and a faulty omega(x) for the pinball leaves."""

from array import array

import pytest

from hesspin import fillings, pinball

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


@pytest.fixture
def omega_by(monkeypatch):
    """Makes ``faulty(x)`` the omega(x) of every leaf, where the leaves
    read it: the whole packed x keys the low table of ``pinball._halves``,
    which holds the record bytes of ``faulty(x)``
    (``fillings._record_code``), and the high table holds only the map
    that keeps them.  The pinball checks and the 334 theorem both read
    their rolldowns from these leaves."""
    real = fillings._halves

    def set_faulty(faulty):
        def halves(n):
            x = fillings._packing(n).x
            code = fillings._record_code(n)
            return real(n)._replace(
                low=real(n).low | real(n).high,
                high=0,
                omegas=fillings._Table(lambda key: array(code, faulty(x(key))).tobytes()),
                gathers={0: bytes},
            )

        monkeypatch.setattr(pinball, "_halves", halves)

    return set_faulty
