"""The failure path of the registry's ``_same`` rows: the many-sided
equalities and the predicates, whose second side is the constant ``True``.

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


def _false_at(real, cell):
    """The predicate ``real`` with its value at the params ``cell`` turned to ``False``."""
    return lambda *params: params != cell and real(*params)


def _bumped(real):
    """``gauss_binom`` with ``t`` added to ``[3, 1]``."""
    return lambda n, k, squared=False: real(n, k, squared) + (T if (n, k) == (3, 1) else ZERO)


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
    # a predicate false at one cell fails that cell alone, as "lhs = False ; rhs = True"
    "tk-functional": (formulas, "tk_functional_equation_holds", lambda real: _false_at(real, (3,)),
                      lambda new, k: (new(k), True), 1),
    "alpha-recurrence": (formulas, "alpha_step_holds", lambda real: _false_at(real, (-1, 2, 3)),
                         lambda new, eps, b, k: (new(eps, b, k), True), 1),
    "beta-recurrence": (formulas, "beta_step_holds", lambda real: _false_at(real, (1, 4, 6)),
                        lambda new, eps, b, k: (new(eps, b, k), True), 1),
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
