import hashlib
import json
from collections import Counter

import tqeuler
from tqeuler import combinat
from tqeuler.exactalg import monomial
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


def test_default_run_walks_each_euler_marked_sum_once(monkeypatch):
    # markpath-transfer and ballot-reduction share K_k = md_star_weight_sum(k), k <= 5;
    # a walk counts as Euler-ruled by the values of its rules, whatever functions carry them
    calls = Counter()
    walk = combinat.md_star_weight_sum_general

    def counting(k, up_rule, down_rule):
        heights = range(1, k + 2)
        if all(up_rule(h) == monomial(-1, 0, h) and down_rule(h) == monomial(-1, 1, h) for h in heights):
            calls[k] += 1
        return walk(k, up_rule, down_rule)

    monkeypatch.setattr(combinat, "md_star_weight_sum_general", counting)
    tqeuler.clear_caches()
    run_verification()
    assert calls == Counter(range(6))


def test_second_run_after_clear_caches_gives_the_same_report():
    first = report_sha256(run_verification())
    tqeuler.clear_caches()
    assert report_sha256(run_verification()) == first == DEFAULT_REPORT_SHA256
