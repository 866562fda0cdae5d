import pytest
from hypothesis import settings

# ``--hypothesis-profile=ci`` runs every property test ten times longer and with no
# deadline; CI runs tests/test_exactalg.py, the row arithmetic against its term-dict
# references, tests/test_combinat.py, tests/test_cache_order.py, memoised calls against
# cold ones, and tests/test_cfrac.py, the moment memos in any request order, under it.
settings.register_profile("ci", max_examples=1000, deadline=None)


def pytest_addoption(parser):
    parser.addoption(
        "--per-slot-codec", action="store_true",
        help="empty tqeuler.exactalg._TYPECODES, so that every slot width converts one slot "
             "at a time, as on big-endian machines, instead of through array",
    )


def pytest_configure(config):
    if config.getoption("--per-slot-codec"):
        from tqeuler import exactalg

        exactalg._TYPECODES.clear()

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
