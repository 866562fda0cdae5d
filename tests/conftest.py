import pytest
from hypothesis import settings

# ``--hypothesis-profile=ci`` runs every property test ten times longer and with no
# deadline; CI runs tests/test_exactalg.py, the row arithmetic against its term-dict
# references, under it.
settings.register_profile("ci", max_examples=1000, deadline=None)

ACCEPTANCE_RESULTS: dict[str, tuple[bool, str]] = {}


@pytest.fixture
def acceptance():
    """Record one acceptance criterion outcome and assert it.

    The recorded outcomes are printed one line per criterion in the terminal
    summary, so a plain ``pytest`` run shows the acceptance scoreboard.
    """

    def record(criterion: str, ok: bool, note: str = ""):
        ACCEPTANCE_RESULTS[criterion] = (bool(ok), note)
        assert ok, f"acceptance criterion {criterion} failed: {note}"

    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for criterion in sorted(ACCEPTANCE_RESULTS):
        ok, note = ACCEPTANCE_RESULTS[criterion]
        suffix = f"  ({note})" if note else ""
        terminalreporter.write_line(f"{'PASS' if ok else 'FAIL'}  {criterion}{suffix}")
