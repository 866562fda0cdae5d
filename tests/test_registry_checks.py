"""The failure path of the registry's ``_same`` rows: the many-sided
equalities, and the T_k lemma rows, whose two sides are polynomials.

Each row of ``FAILURES`` replaces one side of an identity, runs that identity
at the default bounds and recomputes every side of every cell here, from the
definitions rather than from ``registry``.  A cell must fail exactly when its
sides differ, and its detail must name every side's value; a row that
dropped a side would print one value fewer.
"""

from fractions import Fraction

import pytest

import tqeuler
from tqeuler import combinat, formulas, qkit, registry
from tqeuler.exactalg import ONE, Q, T, ZERO, monomial

from reference import square_sum_reference


def _detail(*values) -> str:
    names = ("lhs", "mid", "rhs") if len(values) == 3 else ("lhs", "rhs")
    return " ; ".join(f"{name} = {value}" for name, value in zip(names, values))


SECANT = (1, 1, 5, 61, 1385)  # E_0, E_2, ..., E_8
TANGENT = (1, 2, 16, 272, 7936)  # E_1, E_3, ..., E_9
ODD_DOUBLE_FACTORIALS = (1, 1, 3, 15, 105, 945)
ZENG = formulas.zeng_value  # the real one, read before any test replaces it


def _bumped(real):
    """``gauss_binom`` with ``t`` added to ``[3, 1]``."""
    return lambda n, k, squared=False: real(n, k, squared) + (T if (n, k) == (3, 1) else ZERO)


def _bumped_at(real, cell):
    """``real`` with ``t`` added to its value at the arguments ``cell``."""
    return lambda *args: real(*args) + (T if args == cell else ZERO)


def _functional_sides(tk, k):
    return (ONE - T * Q) * tk(k).shift_t_by_q(1), tk(k) + monomial(1, 2, 2 * k + 1) * tk(k - 1)


def _alpha_sides(at, eps, b, k):
    return ((ONE - monomial(eps, 0, b)) * at(eps, b, k),
            at(eps, b - 1, k) + monomial(1, 0, 2 * k + 2 * b - 1) * at(eps, b - 1, k - 1))


def _beta_sides(at, eps, b, k):
    return (at(eps, -b, k),
            (ONE - monomial(eps, 0, 1 - b)) * at(eps, 1 - b, k)
            - monomial(1, 0, 2 * k - 2 * b + 1) * at(eps, -b, k - 1))


def _pascal_sides(g, n):
    return ([g(n, k) for k in range(n + 1)],
            [g(n - 1, k - 1) + monomial(1, 0, k) * g(n - 1, k) for k in range(n + 1)])


def _symmetry_sides(g, n):
    return ([g(n, k) for k in range(n + 1)],
            [monomial(1, 0, k) * g(n - 1, n - k - 1) + g(n - 1, n - k) for k in range(n + 1)] if n else [ONE])


# id: (module, name, replacement built from the real function,
#      every side's value from the replacement and the cell's params, number of failing cells)
FAILURES = {
    "tk-at-one": (qkit, "square_sum", lambda real: lambda m: ZERO,
                  lambda new, k: (square_sum_reference(k), ZERO, square_sum_reference(k)), 7),
    "tk-at-minus-one": (formulas, "tk_at", lambda real: lambda eps, b, k: ZERO,
                        lambda new, k: (ONE, ONE, ZERO), 7),
    "secant-anchor": (combinat, "alt_statistic_polynomial", lambda real: lambda m: ZERO,
                      lambda new, n: (SECANT[n], SECANT[n], 0), 5),
    "tangent-anchor": (combinat, "alt_statistic_polynomial", lambda real: lambda m: ZERO,
                       lambda new, n: (TANGENT[n], TANGENT[n], 0), 5),
    "dn-anchor": (combinat, "dyck_weight_sum", lambda real: lambda n, up, down: ZERO,
                  lambda new, n: (ODD_DOUBLE_FACTORIALS[n], ODD_DOUBLE_FACTORIALS[n], 0), 6),
    "zeng-numeric": (formulas, "zeng_value", lambda real: lambda n, t0, q0: Fraction(-1),
                     lambda new, n, t, q: (-1, ZENG(n, Fraction(t), Fraction(q))), 25),
    # [3, 1] is on the left at n = 3 and on the right at n = 4, in both rows
    "gauss-pascal": (qkit, "gauss_binom", _bumped, lambda new, n: _pascal_sides(new, n), 2),
    "gauss-symmetry": (qkit, "gauss_binom", _bumped, lambda new, n: _symmetry_sides(new, n), 2),
    # the T_k lemma rows print both polynomials.  T_3 is bumped, and through the recurrence every
    # T_k above it, so the cells k = 3..6 fail; tk_at(-1, 2, 3) is read by three alpha cells,
    # (-1, 2, 3) on the left and (-1, 3, 3), (-1, 3, 4) on the right; tk_at(1, -4, 5) by the beta
    # cells (1, 4, 5) and (1, 4, 6), the cell (1, 5, 5) being past max_b
    "tk-functional": (formulas, "tk_recurrence", lambda real: _bumped_at(real, (3,)), _functional_sides, 4),
    "alpha-recurrence": (formulas, "tk_at", lambda real: _bumped_at(real, (-1, 2, 3)), _alpha_sides, 3),
    "beta-recurrence": (formulas, "tk_at", lambda real: _bumped_at(real, (1, -4, 5)), _beta_sides, 2),
}


@pytest.mark.parametrize("ident", FAILURES)
def test_a_replaced_side_fails_with_every_value_in_the_detail(ident, monkeypatch, request):
    module, name, replacement, sides, failing = FAILURES[ident]
    new = replacement(getattr(module, name))
    monkeypatch.setattr(module, name, new)
    tqeuler.clear_caches()
    request.addfinalizer(tqeuler.clear_caches)  # no memo keeps a value built from the replacement
    report = registry.run_verification(select=ident)
    assert {c.id for c in report.cases} == {ident}
    for case in report.cases:
        values = sides(new, **case.params)
        if all(v == values[0] for v in values):
            assert (case.status, case.detail) == ("pass", None), case.params
        else:
            assert (case.status, case.detail) == ("fail", _detail(*values)), case.params
    assert report.summary["fail"] == failing


def test_two_sided_failure_detail_is_lhs_then_rhs():
    check = registry._same(lambda n: T, lambda n: ONE - Q)
    assert check({"n": 0}) == ("fail", "lhs = t ; rhs = 1 - q")


def test_three_sided_check_passes_only_when_all_agree():
    check = registry._same(lambda n: ONE, lambda n: ONE, lambda n: ONE + Q * n)
    assert check({"n": 0}) == ("pass", None)
    assert check({"n": 1}) == ("fail", "lhs = 1 ; mid = 1 ; rhs = 1 + q")


def test_md_star_reads_the_euler_marked_sum():
    tqeuler.clear_caches()
    for k in range(7):
        assert registry._md_star(k) == combinat.md_star_weight_sum(k)
