import hashlib
import json
from collections import Counter
from itertools import product

import tqeuler
from tqeuler import combinat
from tqeuler.exactalg import monomial
from tqeuler.registry import REGISTRY, Bounds, run_verification

# sha256 of every case's id, params (in order), status and detail, at the
# default bounds and at the maximum bounds (12, 10, 8).  Any change to the
# registry's cell order, grids, outcomes or skip texts changes them.
DEFAULT_REPORT_SHA256 = "5a23a827383ea7ba9b9e7443dafdce40492490f8512f0365a62f39a8fa215ce9"
MAX_REPORT_SHA256 = "65bea175214c0b83eec4511b741acf2f09d49543d67df38ad245dca19f4ca8c5"

# sha256 of every grid cell (bounds, id, params in order) at each bound 0, 1 and on
# either side of the grid caps at 4, 5 and 6: 34,526 cells.  The reports above run
# only two bounds; this one guards the zero bounds and the caps without a check run.
EDGE_BOUNDS = list(product((0, 1, 4, 5, 6), (0, 1, 4, 5), (0, 1, 4, 5)))
EDGE_GRID_SHA256 = "51fcd78fcecdf9e32b826e614e92c7137f87ec41ceb5848ec89f25f250ef6d63"


def report_sha256(report) -> str:
    cells = [[c.id, list(c.params.items()), c.status, c.detail] for c in report.cases]
    return hashlib.sha256(json.dumps(cells).encode()).hexdigest()


def test_default_report_frozen():
    assert report_sha256(run_verification()) == DEFAULT_REPORT_SHA256


def test_max_report_frozen():
    assert report_sha256(run_verification(12, 10, 8)) == MAX_REPORT_SHA256


def test_grid_cells_frozen_at_the_bounds_edges():
    cells = [[n, k, b, ident.id, list(p.items())]
             for n, k, b in EDGE_BOUNDS for ident in REGISTRY for p in ident.grid(Bounds(n, k, b))]
    assert len(cells) == 34526
    assert hashlib.sha256(json.dumps(cells).encode()).hexdigest() == EDGE_GRID_SHA256


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


def outcomes(cells):
    """``(id, params) -> (status, detail)`` of each ``(identity, params)`` cell, checked in the
    given order; a raise is a failure with the text ``run_verification`` gives it."""
    out = {}
    for ident, params in cells:
        try:
            outcome = ident.check(params)
        except Exception as exc:
            outcome = ("fail", f"exception: {type(exc).__name__}: {exc}")
        out[ident.id, tuple(params.items())] = outcome
    return out


def test_no_result_depends_on_run_order_or_cache_state():
    # each identity run cold on its own, and then the whole matrix in reverse order with
    # the caches it left warm, give the statuses and details of one full run
    tqeuler.clear_caches()
    full = {(c.id, tuple(c.params.items())): (c.status, c.detail) for c in run_verification().cases}
    bounds = Bounds(8, 6, 4)
    cold = {}
    for ident in REGISTRY:
        tqeuler.clear_caches()
        cold.update(outcomes((ident, params) for params in ident.grid(bounds)))
    assert cold == full
    cells = [(ident, params) for ident in REGISTRY for params in ident.grid(bounds)]
    assert outcomes(reversed(cells)) == full
    assert len(full) == len(cells) == 1052
