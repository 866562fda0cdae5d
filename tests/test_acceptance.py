"""Acceptance suite.

One test per acceptance criterion, each at its stated bound with exact
(zero-tolerance) polynomial or integer equality.  Every criterion reports a
PASS/FAIL line in the pytest terminal summary (see conftest).
"""

import math
import time
from collections import Counter

from tqeuler import cfrac, cli, combinat, formulas, qkit, registry
from tqeuler.exactalg import LaurentPoly, ONE, Q, ZERO, const, monomial
from tqeuler.qkit import gauss_binom, partition_box_binom, pochhammer

import reference

ONE_MINUS_Q = ONE - Q
ONE_PLUS_Q = ONE + Q


def euler_up(h):
    return LaurentPoly({(0, 0): 1, (0, h): -1})


def euler_down(h):
    return LaurentPoly({(0, 0): 1, (1, h): -1})


def test_01_grand_identity_matrix(acceptance):
    """euler_hat = ballot form = single-binomial form for n <= 8, and equal
    to the triple sum and the brute-force Dyck oracle for n <= 6, in < 60 s."""
    start = time.perf_counter()
    ok = True
    for n in range(9):
        eh = cfrac.euler_hat(n)
        ok = ok and formulas.euler_hat_ballot(n) == eh
        ok = ok and formulas.euler_hat_odd_pochhammer(n) == eh
        if n <= 6:
            ok = ok and formulas.euler_hat_josuat_verges(n) == eh
            ok = ok and combinat.dyck_weight_sum(n, euler_up, euler_down) == eh
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    acceptance("01-grand-identity-matrix", ok, f"{elapsed:.2f}s")


def test_02_t_model_agreement(acceptance):
    """All five T_k routes agree for k <= 5; recurrence = closed form to k <= 8."""
    ok = True
    for k in range(6):
        tr = formulas.tk_recurrence(k)
        ok = ok and formulas.tk_closed(k) == tr
        ok = ok and combinat.delta_prime_weight_sum(k) == tr
        ok = ok and combinat.sop_weight_sum(k) == tr
        ok = ok and combinat.m_path_weight_sum(k) == tr
    for k in range(9):
        ok = ok and formulas.tk_closed(k) == formulas.tk_recurrence(k)
    acceptance("02-t-model-agreement", ok)


def test_03_specialization_suite(acceptance):
    """Substitution formulas match direct substitution in all four quadrants
    (k <= 6, |b| <= 4), the alternative t = q**b form agrees for b >= 1, and
    the b = 0 rows reproduce the square-sum and constant-1 kernels."""
    ok = True
    for k in range(7):
        for eps in (1, -1):
            for b in range(0, 5):
                ok = ok and formulas.tk_special(eps, b, k) == (
                    formulas.tk_recurrence(k).substitute_t(eps, b)
                )
            for b in range(1, 5):
                ok = ok and formulas.tk_special(eps, -b, k) == (
                    formulas.tk_recurrence(k).substitute_t(eps, -b)
                )
        for b in range(1, 5):
            ok = ok and formulas.tk_prodinger(b, k) == formulas.tk_recurrence(k).substitute_t(1, b)
    for k in range(1, 7):
        ok = ok and formulas.tk_special(1, 0, k) == qkit.square_sum(k)
        ok = ok and formulas.tk_special(1, 1, k) == qkit.a_k_poly(k).divide_exact(1, [1])
        ok = ok and formulas.tk_special(-1, 0, k) == ONE
    acceptance("03-specialization-suite", ok)


def test_04_functional_equation(acceptance):
    """The t -> t*q functional equation holds for k <= 8, and both single-power
    step relations hold for 1 <= b <= 5 and 1 <= k <= 8: the three registry
    rows, each comparing its two polynomials, fail no cell."""
    report = registry.run_verification(0, 8, 5, select="tk-functional,alpha-recurrence,beta-recurrence")
    counts = Counter(c.id for c in report.cases)
    ok = not report.failed and counts == {"tk-functional": 8, "alpha-recurrence": 80, "beta-recurrence": 80}
    acceptance("04-functional-equation", ok)


def test_05_classical_anchors(acceptance):
    """Integer sequence anchors at q = 1 with enumeration oracles."""
    ok = True
    for n, want in enumerate((1, 1, 5, 61, 1385)):
        ok = ok and cfrac.en_even_q(n).evaluate(1, 1) == want
        ok = ok and len(reference.enum_alternating(2 * n)) == want
    for n, want in enumerate((1, 2, 16, 272, 7936)):
        ok = ok and cfrac.en_odd_q(n).evaluate(1, 1) == want
        ok = ok and len(reference.enum_alternating(2 * n + 1)) == want
    for n, want in enumerate((1, 1, 3, 15, 105, 945)):
        dn = cfrac.dn_hat(n).divide_exact(1, [1] * n)
        ok = ok and dn.evaluate(1, 1) == want
        oracle = combinat.dyck_weight_sum(n, lambda h: ONE, lambda h: const(h))
        ok = ok and oracle.evaluate(1, 1) == want
    acceptance("05-classical-anchors", ok)


def test_06_degenerate_identities(acceptance):
    """t = 1/q annihilates every positive moment; t = 0 recovers the
    normalized d_n; t = -1 recovers d_n in q**2 with the split prefactors."""
    ok = True
    for n in range(9):
        eh = cfrac.euler_hat(n)
        ok = ok and eh.substitute_t(1, -1) == (ONE if n == 0 else ZERO)
        ok = ok and eh.substitute_t_zero() == cfrac.dn_hat(n)
        dn = cfrac.dn_hat(n).divide_exact(1, [1] * n)
        ok = ok and eh.substitute_t(-1, 0) == ONE_PLUS_Q**n * ONE_MINUS_Q**n * dn.scale_q(2)
    acceptance("06-degenerate-identities", ok)


def test_07_lemma_checks(acceptance):
    """Distinct-part distribution, ballot reduction, both lattice-path
    families, and the marked-path weight transfer, all at desk scale."""
    ok = True
    for m in range(7):
        for n in range(7):
            ok = ok and combinat.dist_box_polynomial(m, n) == formulas.dist_box_closed(m, n)

    pairs = ((euler_up, euler_down), (qkit.q_int, qkit.q_int))
    for n in range(6):
        for up, down in pairs:
            lhs = combinat.dyck_weight_sum(n, up, down)
            rhs = ZERO
            for k in range(n + 1):
                rhs = rhs + qkit.ballot(n, k) * combinat.md_star_weight_sum_general(
                    k, lambda h: up(h) - ONE, lambda h: down(h) - ONE
                )
            ok = ok and lhs == rhs

    for eps in (1, -1):
        for b in range(0, 5):
            for k in range(0, 5):
                for n in range(1, k + 1):
                    lhs = combinat.l_path_weight_sum(b, k, 0, n, eps)
                    rhs = monomial(1, 0, (k - n) * (2 * k + 1)) * gauss_binom(
                        b, k - n, squared=True
                    )
                    ok = ok and lhs == rhs
                    if (b, k) != (0, 0):
                        lhs = combinat.lprime_path_weight_sum(b, k, 0, n, eps)
                        rhs = (
                            pochhammer(eps, 1 - b, b)
                            * qkit.neg_q_power((k - n) * (k + n - 2 * b + 2))
                            * partition_box_binom(k - n, b - 1, squared=True)
                        )
                        ok = ok and lhs == rhs
                if k >= 1:
                    for m in range(0, b + 1):
                        lhs = combinat.l_path_weight_sum(b, k, m, 0, eps)
                        rhs = (
                            pochhammer(eps, 1, m)
                            * monomial(1, 0, k * (2 * k + 2 * m + 1))
                            * gauss_binom(b - m - 1, k - 1, squared=True)
                        )
                        ok = ok and lhs == rhs
                for m in range(1, b + 1):
                    if (b, k) != (0, 0):
                        lhs = combinat.lprime_path_weight_sum(b, k, m, 0, eps)
                        rhs = (
                            pochhammer(eps, 1 - b, b - m)
                            * qkit.neg_q_power(k * (k - 2 * b + 2) + 2 * (b - m))
                            * partition_box_binom(b - m, k - 1, squared=True)
                        )
                        ok = ok and lhs == rhs

    for k in range(6):
        lhs = combinat.md_star_weight_sum(k)
        rhs = monomial(1, k, k * (k + 1)) * formulas.tk_recurrence(k).invert_variables()
        ok = ok and lhs == rhs
    acceptance("07-lemma-checks", ok)


def test_08_original_form_equivalence(acceptance):
    """The unshifted secant/tangent sums match the shifted ones, with the
    explicit (1-q) prefactor adjustment on the tangent side."""
    ok = True
    for n in range(7):
        ok = ok and formulas.secant_hat_original(n) == formulas.secant_hat_closed(n)
        ok = ok and formulas.tangent_hat_original(n) == ONE_MINUS_Q * formulas.tangent_hat_closed(
            n
        )
    acceptance("08-original-form-equivalence", ok)


def test_09_zeng_numeric(acceptance):
    """The rational double sum matches the fraction moments at five admissible
    points for every n <= 4, with the validated bracket reading."""
    ok = formulas.DEFAULT_ZENG_BRACKET is formulas.zeng_bracket_qint
    for n in range(5):
        for t0, q0 in registry.ZENG_SAMPLE_POINTS[:5]:
            want = cfrac.euler_hat(n).evaluate(t0, q0) / (1 - q0) ** (2 * n)
            ok = ok and formulas.zeng_value(n, t0, q0) == want
    acceptance("09-zeng-numeric", ok)


class TestMutationControl:
    """Criterion 10: corrupting a single transcribed term in either closed
    form makes the verification command fail."""

    def _corrupted_tk_closed(self, k):
        # exact copy of the closed form with ONE SIGN flipped: the shifted
        # binomial addend enters with minus instead of plus
        total = ZERO
        for j in range(k + 1):
            for i in range(j + 1):
                sign = -1 if (j + i) % 2 else 1
                head = monomial(sign, 2 * i, j * j + i * i + i)
                inner = gauss_binom(k - i, j - i, squared=True) - monomial(1, 1, 0) * gauss_binom(
                    k - i - 1, j - i - 1, squared=True
                )
                total = total + head * gauss_binom(k - j, i, squared=True) * inner
        return total

    def _corrupted_odd_poch_sum(self, n):
        # exact copy of the single-binomial form with ONE EXPONENT bumped:
        # q**C(k-i, 2) becomes q**(C(k-i, 2) + 1)
        total = ZERO
        for k in range(n + 1):
            inner = ZERO
            for i in range(k + 1):
                inner = inner + (
                    monomial(1, i, math.comb(k - i, 2) + 1)
                    * qkit.odd_pochhammer(i)
                    * gauss_binom(k + i, k - i)
                )
            total = total + qkit.ballot(n, k) * qkit.neg_q_power(k) * inner
        return total

    def test_10a_sign_flip_in_tk_closed_fails_verify(self, monkeypatch, capsys):
        monkeypatch.setattr(formulas, "tk_closed", self._corrupted_tk_closed)
        code = cli.main(["verify", "--select", "tk-closed", "--max-k", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fail" in out and "fail=0" not in out

    def test_10b_exponent_bump_in_odd_poch_sum_fails_verify(self, monkeypatch, capsys):
        monkeypatch.setattr(formulas, "euler_hat_odd_pochhammer", self._corrupted_odd_poch_sum)
        code = cli.main(["verify", "--select", "euler-odd-pochhammer", "--max-n", "4"])
        out = capsys.readouterr().out
        assert code == 1
        assert "fail" in out and "fail=0" not in out

    def test_10_record(self, acceptance, monkeypatch, capsys):
        monkeypatch.setattr(formulas, "tk_closed", self._corrupted_tk_closed)
        first = cli.main(["verify", "--select", "tk-closed", "--max-k", "4"])
        monkeypatch.undo()
        monkeypatch.setattr(formulas, "euler_hat_odd_pochhammer", self._corrupted_odd_poch_sum)
        second = cli.main(["verify", "--select", "euler-odd-pochhammer", "--max-n", "4"])
        capsys.readouterr()
        acceptance("10-mutation-control", first == 1 and second == 1)


def test_full_default_verify_passes(acceptance):
    """The complete default verification matrix runs clean."""
    report = registry.run_verification()
    acceptance(
        "00-full-verification-matrix",
        not report.failed,
        f"pass={report.summary['pass']} skipped={report.summary['skipped']}",
    )
