import hashlib
import json

from tqeuler.registry import run_verification

# sha256 of every case's id, params (in order), status and detail, at the
# default bounds and at the maximum bounds (12, 10, 8).  Any change to the
# registry's cell order, grids, outcomes or skip texts changes them.
DEFAULT_REPORT_SHA256 = "5a23a827383ea7ba9b9e7443dafdce40492490f8512f0365a62f39a8fa215ce9"
MAX_REPORT_SHA256 = "65bea175214c0b83eec4511b741acf2f09d49543d67df38ad245dca19f4ca8c5"


def report_sha256(report) -> str:
    cells = [[c.id, list(c.params.items()), c.status, c.detail] for c in report.cases]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def test_default_report_frozen():
    assert report_sha256(run_verification()) == DEFAULT_REPORT_SHA256


def test_max_report_frozen():
    assert report_sha256(run_verification(12, 10, 8)) == MAX_REPORT_SHA256
