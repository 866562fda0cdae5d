import math
import random
from collections import Counter
from decimal import Decimal
from fractions import Fraction

import pytest
from reference import ballot_sum_reference, zeng_value_reference

import tqeuler
from tqeuler import cfrac, cli, combinat, exactalg, formulas, qkit, registry
from tqeuler.exactalg import LaurentPoly, ONE, Q, T, ZeroDenominatorError, const, monomial
from tqeuler.formulas import (
    DEFAULT_ZENG_BRACKET,
    dist_box_closed,
    dn_touchard_riordan,
    euler_hat_at_minus_inv_q,
    euler_hat_at_minus_q,
    euler_hat_ballot,
    euler_hat_josuat_verges,
    euler_hat_odd_pochhammer,
    secant_hat_closed,
    secant_hat_original,
    tangent_hat_closed,
    tangent_hat_original,
    tk_at,
    tk_at_minus_inv_q,
    tk_at_minus_q,
    tk_closed,
    tk_prodinger,
    tk_recurrence,
    tk_special,
    zeng_bracket_qint,
    zeng_value,
)
from tqeuler.qkit import a_k_poly, square_sum
from tqeuler.registry import ZENG_SAMPLE_POINTS

ONE_MINUS_Q = ONE - Q
T1 = LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1})
T2 = LaurentPoly(
    {(0, 0): 1, (0, 1): -1, (1, 1): -1, (0, 3): -1, (2, 3): 1, (0, 4): 1, (1, 4): 1}
)


def zeng_bracket_additive(m: int, t0: Fraction, q0: Fraction) -> Fraction:
    """The rejected bracket reading ``[m] = t*q**m + (1 + q + ... + q**(m-1))``: a
    negative control for :data:`~tqeuler.formulas.DEFAULT_ZENG_BRACKET`."""
    if q0 == 1:
        return t0 + m
    return t0 * q0**m + (1 - q0**m) / (1 - q0)


# Every qkit._ballot_sum route: its value at n, the namespace and key its kernel
# is looked up in when the route runs, the arguments the route passes the kernel
# after k, and the largest n the registry asks for.
BALLOT_ROUTES = {
    **{
        name: (lambda n, name=name: getattr(formulas, name)(n), vars(formulas), kernel, (), 12)
        for name, kernel in (
            ("euler_hat_ballot", "_euler_ballot_kernel"),
            ("secant_hat_closed", "_secant_kernel"),
            ("tangent_hat_closed", "_tangent_kernel"),
            ("dn_touchard_riordan", "_touchard_riordan_kernel"),
            ("euler_hat_josuat_verges", "_josuat_verges_kernel"),
            ("euler_hat_odd_pochhammer", "_odd_pochhammer_kernel"),
            ("secant_hat_original", "_secant_original_kernel"),
            ("tangent_hat_original", "_tangent_original_kernel"),
            ("euler_hat_at_minus_q", "_minus_q_kernel"),
            ("euler_hat_at_minus_inv_q", "_minus_inv_q_kernel"),
        )
    },
    **{
        f"ballot-reduction-{weights}": (
            lambda n, weights=weights: registry._ballot_marked_sum(n, weights),
            vars(registry), "_marked_kernel", (weights,), 5,
        )
        for weights in ("euler", "q-int")
    },
}

# empirical degree spans of T_k: t-exponents cover [0, k], q-exponents [0, k^2]
TK_DEGREE_BOX = {k: (0, k, 0, k * k) for k in range(9)}


class TestTkFamily:
    def test_base_cases(self):
        assert tk_recurrence(0) == ONE
        assert tk_recurrence(1) == T1
        assert tk_recurrence(2) == T2

    def test_closed_small(self):
        assert tk_closed(0) == ONE
        assert tk_closed(1) == T1

    def test_closed_equals_recurrence(self):
        for k in range(9):
            assert tk_closed(k) == tk_recurrence(k)

    def test_invariants(self):
        for k in range(9):
            tk = tk_recurrence(k)
            assert tk.substitute_t(-1, 0) == ONE
            assert tk.substitute_t(1, 0) == square_sum(k)
            assert tk.terms.get((0, 0)) == 1

    def test_degree_table(self):
        for k, box in TK_DEGREE_BOX.items():
            ets, eqs = zip(*tk_recurrence(k).terms)
            assert (min(ets), max(ets), min(eqs), max(eqs)) == box

    def test_functional_equation(self):
        lhs = (ONE - T * Q) * tk_recurrence(1).shift_t_by_q(1)
        expected = LaurentPoly({(0, 0): 1, (0, 1): -1, (1, 1): -1, (2, 3): 1})
        assert lhs == expected
        for k in range(1, 9):
            lhs = (ONE - T * Q) * tk_recurrence(k).shift_t_by_q(1)
            assert lhs == tk_recurrence(k) + monomial(1, 2, 2 * k + 1) * tk_recurrence(k - 1)

    def test_functional_equation_detects_corruption(self):
        corrupted = tk_recurrence(1) + monomial(1, 1, 1)  # drop the -t*q term
        lhs = (ONE - T * Q) * corrupted.shift_t_by_q(1)
        rhs = corrupted + monomial(1, 2, 3) * tk_recurrence(0)
        assert lhs != rhs


class TestSpecializations:
    def test_plus_q(self):
        got = tk_special(1, 1, 1)
        assert got == LaurentPoly({(0, 0): 1, (0, 1): -1, (0, 2): -1})

    def test_minus_one_any_k(self):
        for k in range(7):
            assert tk_special(-1, 0, k) == ONE

    def test_inverse_q_collapses(self):
        assert tk_special(1, -1, 2) == monomial(1, 0, 4)

    def test_all_quadrants_match_substitution(self):
        for k in range(7):
            for eps in (1, -1):
                for b in range(0, 5):
                    assert tk_special(eps, b, k) == tk_recurrence(k).substitute_t(eps, b)
                for b in range(1, 5):
                    assert tk_special(eps, -b, k) == tk_recurrence(k).substitute_t(eps, -b)

    def test_b_zero_reductions(self):
        for k in range(1, 9):
            assert tk_special(1, 0, k) == square_sum(k)
            assert tk_special(1, 1, k) == a_k_poly(k).divide_exact(1, [1])

    def test_range_error(self):
        with pytest.raises(ValueError):
            tk_special(1, 1, -1)
        with pytest.raises(ValueError):
            tk_special(0, 1, 1)

    def test_prodinger(self):
        assert tk_prodinger(1, 0) == ONE
        assert tk_prodinger(1, 1) == LaurentPoly({(0, 0): 1, (0, 1): -1, (0, 2): -1})
        for b in range(1, 5):
            for k in range(7):
                assert tk_prodinger(b, k) == tk_recurrence(k).substitute_t(1, b)
        with pytest.raises(ValueError):
            tk_prodinger(0, 1)

    def test_minus_q_closed(self):
        assert tk_at_minus_q(0) == ONE
        assert tk_at_minus_q(1) == LaurentPoly({(0, 0): 1, (0, 1): -1, (0, 2): 1})
        for k in range(9):
            assert tk_at_minus_q(k) == tk_recurrence(k).substitute_t(-1, 1)

    def test_minus_inv_q_closed(self):
        assert tk_at_minus_inv_q(1) == LaurentPoly({(0, 0): 2, (0, 1): -1})
        for k in range(9):
            assert tk_at_minus_inv_q(k) == tk_recurrence(k).substitute_t(-1, -1)

    def test_tk_at_is_direct_substitution(self):
        tqeuler.clear_caches()
        for _ in range(2):  # first call, then the cached row
            for eps in (1, -1):
                for b in range(-9, 10):
                    for k in range(11):
                        assert tk_at(eps, b, k) == tk_recurrence(k).substitute_t(eps, b)

    def test_alpha_beta_steps(self):
        for eps in (1, -1):
            for b in range(1, 6):
                for k in range(1, 6):
                    # alpha: T_k at t = eps q^b, one step down in b
                    assert (ONE - monomial(eps, 0, b)) * tk_at(eps, b, k) == (
                        tk_at(eps, b - 1, k) + monomial(1, 0, 2 * k + 2 * b - 1) * tk_at(eps, b - 1, k - 1))
                    # beta: T_k at t = eps q^-b, one step up from 1 - b
                    assert tk_at(eps, -b, k) == (
                        (ONE - monomial(eps, 0, 1 - b)) * tk_at(eps, 1 - b, k)
                        - monomial(1, 0, 2 * k - 2 * b + 1) * tk_at(eps, -b, k - 1))


class TestEulerFormulas:
    def test_ballot_form_small(self):
        assert euler_hat_ballot(0) == ONE
        assert euler_hat_ballot(1) == ONE_MINUS_Q * (ONE - T * Q)

    def test_ballot_form(self):
        for n in range(9):
            assert euler_hat_ballot(n) == cfrac.euler_hat(n)

    def test_odd_poch_sum(self):
        assert euler_hat_odd_pochhammer(1) == ONE_MINUS_Q * (ONE - T * Q)
        for n in range(9):
            assert euler_hat_odd_pochhammer(n) == cfrac.euler_hat(n)

    def test_josuat_verges(self):
        assert euler_hat_josuat_verges(1) == ONE_MINUS_Q * (ONE - T * Q)
        for n in range(7):
            assert euler_hat_josuat_verges(n) == cfrac.euler_hat(n)

    def test_secant_tangent_closed(self):
        assert secant_hat_closed(0) == ONE
        assert secant_hat_closed(2).divide_exact(1, [1] * 4) == LaurentPoly(
            {(0, 0): 2, (0, 1): 2, (0, 2): 1}
        )
        assert tangent_hat_closed(1).divide_exact(1, [1, 1]) == ONE + Q
        for n in range(7):
            eh = cfrac.euler_hat(n)
            assert secant_hat_closed(n) == eh.substitute_t(1, 0)
            assert tangent_hat_closed(n) == eh.substitute_t(1, 1)

    def test_original_forms(self):
        for n in range(7):
            assert secant_hat_original(n) == secant_hat_closed(n)
            assert tangent_hat_original(n) == ONE_MINUS_Q * tangent_hat_closed(n)

    def test_touchard_riordan(self):
        assert dn_touchard_riordan(0) == ONE
        assert dn_touchard_riordan(2) == LaurentPoly({(0, 0): 2, (0, 1): -3, (0, 3): 1})
        assert dn_touchard_riordan(2) == ONE_MINUS_Q**2 * (const(2) + Q)
        for n in range(11):
            assert dn_touchard_riordan(n) == cfrac.dn_hat(n)

    def test_minus_q_forms(self):
        assert euler_hat_at_minus_q(0) == ONE
        assert euler_hat_at_minus_q(1) == ONE_MINUS_Q * (ONE + monomial(1, 0, 2))
        for n in range(9):
            eh = cfrac.euler_hat(n)
            assert euler_hat_at_minus_q(n) == eh.substitute_t(-1, 1)
            assert euler_hat_at_minus_inv_q(n) == eh.substitute_t(-1, -1)


class TestBallotSum:
    """The cached ballot expansion against the one-packed-sum reference."""

    @pytest.mark.parametrize("route, space, kernel, args, top", BALLOT_ROUTES.values(), ids=list(BALLOT_ROUTES))
    def test_matches_reference_cold_and_warm(self, route, space, kernel, args, top):
        rng = random.Random(" ".join((kernel, *args)))
        ns = list(range(min(top, 10) + 1))
        tqeuler.clear_caches()
        for _ in ("cold", "warm"):
            rng.shuffle(ns)
            got = [route(n) for n in ns]
            assert got == [ballot_sum_reference(n, space[kernel], *args) for n in ns]

    def test_each_kernel_runs_once_per_k(self, monkeypatch):
        tqeuler.clear_caches()
        calls = Counter()
        # one spy per kernel: the two ballot-reduction routes share one, with different arguments
        kernels = {kernel: space for _, space, kernel, _, _ in BALLOT_ROUTES.values()}
        for kernel, space in kernels.items():

            def spy(k, *args, real=space[kernel], name=kernel):
                calls[name, k, *args] += 1
                return real(k, *args)

            monkeypatch.setitem(space, kernel, spy)
        for route, *_, top in BALLOT_ROUTES.values():
            for n in [*range(top + 1), *reversed(range(top + 1))]:
                route(n)
        assert calls == Counter(
            {(kernel, k, *args): 1 for _, _, kernel, args, top in BALLOT_ROUTES.values() for k in range(top + 1)}
        )
        assert qkit._kernel.cache_info().currsize <= len(BALLOT_ROUTES) * 13

    def test_negative_n_is_rejected(self):
        for route, *_ in BALLOT_ROUTES.values():
            with pytest.raises(ValueError):
                route(-1)

    def test_mutated_kernel_fails_verify_through_a_warm_cache(self, monkeypatch, capsys):
        argv = ["verify", "--select", "euler-josuat-verges", "--max-n", "4"]
        assert cli.main(argv) == 0  # every K_k with k <= 4 is now cached

        def bumped(k):
            # exact copy of the Josuat-Verges kernel with ONE EXPONENT bumped:
            # q**C(j+1, 2) becomes q**(C(j+1, 2) + 1)
            return [
                (-1 if (k + i) % 2 else 1, k - j, k - j + math.comb(j + 1, 2) + 1,
                 (bj, qkit.gauss_binom(2 * k - 2 * j, i)))
                for j in range(2 * k + 1) if (bj := qkit.gauss_binom(2 * k - j, j))
                for i in range(2 * k - 2 * j + 1)
            ]

        monkeypatch.setattr(formulas, "_josuat_verges_kernel", bumped)
        capsys.readouterr()
        assert cli.main(argv) == 1
        out = capsys.readouterr().out
        assert "fail" in out and "fail=0" not in out


class TestDistBoxClosed:
    def test_one_one(self):
        assert dist_box_closed(1, 1) == LaurentPoly({(0, 0): 1, (1, 1): 1})

    def test_zero_rows(self):
        for n in range(4):
            assert dist_box_closed(0, n) == ONE

    def test_matches_enumeration(self):
        for m in range(7):
            for n in range(7):
                assert dist_box_closed(m, n) == combinat.dist_box_polynomial(m, n)


class TestZeng:
    @staticmethod
    def euler_value(n, t0, q0):
        return cfrac.euler_hat(n).evaluate(t0, q0) / (1 - Fraction(q0)) ** (2 * n)

    def test_n0(self):
        assert zeng_value(0, Fraction(1, 3), Fraction(1, 2)) == 1

    def test_vanishing_numerator_point(self):
        # (t, q) = (2, 1/2) zeroes the factor 1 - t*q of the first moment
        assert zeng_value(1, 2, Fraction(1, 2)) == 0

    def test_matches_rational_evaluation(self):
        for n in range(5):
            for t0, q0 in ZENG_SAMPLE_POINTS[:5]:
                assert zeng_value(n, t0, q0) == self.euler_value(n, t0, q0)

    def test_bracket_reading_resolution(self):
        # the quotient reading reproduces the moments everywhere; the additive
        # reading fails at every sample point with n >= 1
        assert DEFAULT_ZENG_BRACKET is zeng_bracket_qint
        for n in range(1, 3):
            for t0, q0 in ZENG_SAMPLE_POINTS:
                ref = self.euler_value(n, t0, q0)
                assert zeng_value(n, t0, q0, zeng_bracket_qint) == ref
                assert zeng_value(n, t0, q0, zeng_bracket_additive) != ref

    @pytest.mark.parametrize("bracket", [zeng_bracket_qint, zeng_bracket_additive])
    def test_matches_reference(self, bracket):
        # the extra points raise: q = 1 in the quotient bracket, q = -1 through the vanishing
        # [2] of q_ints when n >= 1, and t = 0 always
        raising = ((Fraction(2), Fraction(1)), (Fraction(3), Fraction(-1)), (Fraction(0), Fraction(1, 2)))
        points = ZENG_SAMPLE_POINTS + raising
        for n in range(6):
            for t0, q0 in points:
                outcomes = []
                for value in (zeng_value, zeng_value_reference):
                    try:
                        outcomes.append(value(n, t0, q0, bracket))
                    except ZeroDenominatorError as exc:
                        outcomes.append(str(exc))
                assert outcomes[0] == outcomes[1]

    def test_rejects_bad_points(self):
        with pytest.raises(ZeroDenominatorError):
            zeng_value(1, 0, Fraction(1, 2))
        with pytest.raises(ZeroDenominatorError):
            zeng_value(1, 2, 1)
        with pytest.raises(ValueError):
            zeng_value(6, 2, Fraction(1, 2))

    @pytest.mark.parametrize("point", [0.5, 2.0, Decimal("0.5"), "1/2"])
    def test_rejects_non_rational_points(self, point):
        # a float is not taken at its binary value, whether it is exact (0.5, 2.0) or not
        with pytest.raises(TypeError):
            zeng_value(1, point, Fraction(1, 2))
        with pytest.raises(TypeError):
            zeng_value(1, 2, point)


def test_clear_caches_changes_no_result():
    def results():
        return (
            # out of order first: each request walks to its own order
            [cfrac.euler_hat(n) for n in (9, 4, 11, 0, 10)],
            [cfrac.dn_hat(n) for n in (8, 3, 0, 9)],
            [cfrac.euler_hat(n) for n in range(7)],
            [cfrac.dn_hat(n) for n in range(7)],
            [tk_recurrence(k) for k in range(6)],
            [qkit.gauss_binom(n, k) for n in range(7) for k in range(n + 1)],
            [euler_hat_ballot(n) for n in range(5)],
            [euler_hat_odd_pochhammer(n) for n in range(5)],
            [qkit.odd_pochhammer(i) for i in (6, 2, 9, 0)],
            [tk_at(eps, b, k) for eps in (1, -1) for b in range(-3, 4) for k in range(6)],
            [qkit.pochhammer(sign, power, length)
             for sign in (1, -1) for power in range(-3, 4) for length in range(6)],
            [registry._ballot_marked_sum(n, w) for n in range(5) for w in ("euler", "q-int")],
            # every ballot route out of order: each K_k is summed on its first request
            [route(n) for route, *_, top in BALLOT_ROUTES.values() for n in (9, 3, 11, 0) if n <= top],
            [
                (c.id, c.params, c.status, c.detail)
                for c in tqeuler.run_verification(max_n=3, max_k=3, max_b=2).cases
            ],
        )

    warm = results()
    memos = (tk_recurrence, formulas.tk_at, qkit._gauss, cfrac.euler_hat, cfrac.dn_hat,
             qkit.pochhammer, qkit._kernel, qkit.odd_pochhammer, qkit.square_sum)
    tqeuler.clear_caches()
    assert [memo.cache_info().currsize for memo in memos] == [0] * len(memos)
    assert results() == warm


def test_clear_caches_empties_every_memo():
    # every functools cache in these modules, so a memo that clear_caches leaves out fails here
    memos = {
        f"{fn.__module__}.{fn.__qualname__}": fn
        for module in (qkit, formulas, cfrac, combinat)
        for fn in vars(module).values()
        if hasattr(fn, "cache_clear")
    }
    # each one made by exactalg._memo, the one memo rule: typed keys, listed once
    assert sorted(map(id, memos.values())) == sorted(map(id, exactalg._MEMOS))
    assert all(memo.cache_parameters() == {"maxsize": None, "typed": True} for memo in memos.values())
    tqeuler.run_verification(max_n=3, max_k=3, max_b=2)
    assert all(memo.cache_info().currsize for memo in memos.values())
    tqeuler.clear_caches()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == dict.fromkeys(memos, 0)


@pytest.fixture(scope="module")
def max_report_cells():
    tqeuler.clear_caches()
    report = tqeuler.run_verification(12, 10, 8)
    return [(c.id, c.params, c.status, c.detail) for c in report.cases]


@pytest.mark.parametrize(
    "ident", ["tk-special-pp", "tk-prodinger", "alpha-recurrence", "beta-recurrence"]
)
def test_cached_sides_alone_match_the_full_report(ident, max_report_cells):
    tqeuler.clear_caches()
    alone = tqeuler.run_verification(12, 10, 8, select=ident).cases
    assert [(c.id, c.params, c.status, c.detail) for c in alone] == [
        cell for cell in max_report_cells if cell[0] == ident
    ]
