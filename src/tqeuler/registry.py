"""Data-driven identity registry and verification runner.

Each identity is a record with a stable id, a human-readable description,
a parameter grid derived from the requested bounds, and a check function
mapping one parameter point to a pass/fail/skipped outcome.  The registry is
the product's test surface: the CLI ``verify`` command simply executes it.

Checks resolve formula functions through the :mod:`tqeuler.formulas` module
object at call time, so replacing a formula (for example in a mutation test)
is observed by the runner.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Iterable

from . import cfrac, combinat, formulas, qkit
from .exactalg import LaurentPoly, ONE, ONE_MINUS_Q, ZERO, const, monomial

__all__ = [
    "Bounds",
    "Case",
    "VerificationReport",
    "Identity",
    "RegistryConfigError",
    "REGISTRY",
    "identity_ids",
    "run_verification",
    "HARD_MAX_N",
    "HARD_MAX_K",
    "HARD_MAX_B",
]

HARD_MAX_N = 12
HARD_MAX_K = 10
HARD_MAX_B = 8

SECANT_NUMBERS = (1, 1, 5, 61, 1385)
TANGENT_NUMBERS = (1, 2, 16, 272, 7936)
ODD_DOUBLE_FACTORIALS = (1, 1, 3, 15, 105, 945)


class RegistryConfigError(ValueError):
    """Invalid bounds, selector, or worker count for a verification run."""


@dataclass(frozen=True)
class Bounds:
    max_n: int
    max_k: int
    max_b: int


@dataclass(frozen=True)
class Case:
    id: str
    params: dict
    status: str
    ms: int
    detail: str | None = None

    def to_json_obj(self) -> dict:
        obj = {"id": self.id, "params": self.params, "status": self.status, "ms": self.ms}
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


@dataclass
class VerificationReport:
    cases: list[Case] = field(default_factory=list)

    @property
    def summary(self) -> dict[str, int]:
        out = {"pass": 0, "fail": 0, "skipped": 0}
        for c in self.cases:
            out[c.status] += 1
        return out

    @property
    def failed(self) -> bool:
        return any(c.status == "fail" for c in self.cases)

    def to_json_obj(self) -> dict:
        return {
            "version": 1,
            "cases": [c.to_json_obj() for c in self.cases],
            "summary": self.summary,
        }

    def to_json_text(self) -> str:
        return json.dumps(self.to_json_obj(), indent=2, sort_keys=True) + "\n"

    def render_text(self) -> str:
        lines = []
        for c in self.cases:
            params = " ".join(f"{k}={v}" for k, v in c.params.items())
            line = f"{c.status:<7} {c.id:<24} {params} ({c.ms} ms)"
            if c.detail and c.status != "pass":
                line += f"  [{c.detail}]"
            lines.append(line)
        s = self.summary
        lines.append(f"summary: pass={s['pass']} fail={s['fail']} skipped={s['skipped']}")
        return "\n".join(lines) + "\n"


Check = Callable[[dict], tuple[str, str | None]]
Grid = Callable[[Bounds], Iterable[dict]]


@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    grid: Grid
    check: Check


def _eq(lhs: LaurentPoly, rhs: LaurentPoly) -> tuple[str, str | None]:
    if lhs == rhs:
        return "pass", None
    return "fail", f"lhs = {lhs.render()} ; rhs = {rhs.render()}"


def _flag(ok: bool, note: str) -> tuple[str, str | None]:
    return ("pass", None) if ok else ("fail", note)


def _skip(note: str) -> tuple[str, str | None]:
    return "skipped", note


# ---------------------------------------------------------------------------
# grids


def _n_grid(bounds: Bounds) -> Iterable[dict]:
    return ({"n": n} for n in range(bounds.max_n + 1))


def _k_grid(bounds: Bounds) -> Iterable[dict]:
    return ({"k": k} for k in range(bounds.max_k + 1))


def _k1_grid(bounds: Bounds) -> Iterable[dict]:
    return ({"k": k} for k in range(1, bounds.max_k + 1))


def _bk_grid(b_lo: int, k_lo: int = 0, with_eps: bool = False):
    def grid(bounds: Bounds) -> Iterable[dict]:
        for b in range(b_lo, bounds.max_b + 1):
            for k in range(k_lo, bounds.max_k + 1):
                if with_eps:
                    for eps in (1, -1):
                        yield {"eps": eps, "b": b, "k": k}
                else:
                    yield {"b": b, "k": k}

    return grid


def _path_grid(to_y_axis: bool, m_lo: int = 0):
    cap = 4  # lemma checks run at desk scale

    def grid(bounds: Bounds) -> Iterable[dict]:
        for eps in (1, -1):
            for b in range(0, min(bounds.max_b, cap) + 1):
                for k in range(0, min(bounds.max_k, cap) + 1):
                    if to_y_axis:
                        for n in range(1, k + 1):
                            if (b, k) != (0, 0):
                                yield {"eps": eps, "b": b, "k": k, "n": n}
                    else:
                        if k < 1:
                            continue
                        for m in range(m_lo, b + 1):
                            yield {"eps": eps, "b": b, "k": k, "m": m}

    return grid


def _mn_grid(cap: int):
    def grid(bounds: Bounds) -> Iterable[dict]:
        top = min(bounds.max_n, cap)
        for m in range(top + 1):
            for n in range(top + 1):
                yield {"m": m, "n": n}

    return grid


# ---------------------------------------------------------------------------
# checks


def _chk_euler_ballot(p: dict):
    return _eq(formulas.euler_hat_ballot(p["n"]), cfrac.euler_hat(p["n"]))


def _chk_euler_odd_poch(p: dict):
    return _eq(formulas.euler_hat_odd_pochhammer(p["n"]), cfrac.euler_hat(p["n"]))


def _chk_euler_jv(p: dict):
    return _eq(formulas.euler_hat_josuat_verges(p["n"]), cfrac.euler_hat(p["n"]))


def _chk_euler_dyck(p: dict):
    n = p["n"]
    if n > 6:
        return _skip("brute-force Dyck oracle capped at n <= 6")
    lhs = combinat.dyck_weight_sum(
        n,
        lambda h: LaurentPoly({(0, 0): 1, (0, h): -1}),
        lambda h: LaurentPoly({(0, 0): 1, (1, h): -1}),
    )
    return _eq(lhs, cfrac.euler_hat(n))


def _chk_touchard(p: dict):
    return _eq(formulas.dn_touchard_riordan(p["n"]), cfrac.dn_hat(p["n"]))


def _chk_secant_closed(p: dict):
    return _eq(formulas.secant_hat_closed(p["n"]), cfrac.euler_hat(p["n"]).substitute_t(1, 0))


def _chk_tangent_closed(p: dict):
    return _eq(formulas.tangent_hat_closed(p["n"]), cfrac.euler_hat(p["n"]).substitute_t(1, 1))


def _chk_secant_original(p: dict):
    return _eq(formulas.secant_hat_original(p["n"]), formulas.secant_hat_closed(p["n"]))


def _chk_tangent_original(p: dict):
    return _eq(
        formulas.tangent_hat_original(p["n"]),
        ONE_MINUS_Q * formulas.tangent_hat_closed(p["n"]),
    )


def _chk_tk_closed(p: dict):
    return _eq(formulas.tk_closed(p["k"]), formulas.tk_recurrence(p["k"]))


def _chk_tk_delta(p: dict):
    k = p["k"]
    if k > 5:
        return _skip("staircase configuration oracle capped at k <= 5")
    return _eq(combinat.delta_prime_weight_sum(k), formulas.tk_recurrence(k))


def _chk_tk_sop(p: dict):
    k = p["k"]
    if k > 5:
        return _skip("overpartition oracle capped at k <= 5")
    return _eq(combinat.sop_weight_sum(k), formulas.tk_recurrence(k))


def _chk_tk_mpath(p: dict):
    k = p["k"]
    if k > 7:
        return _skip("west/southwest path oracle capped at k <= 7")
    return _eq(combinat.m_path_weight_sum(k), formulas.tk_recurrence(k))


def _chk_markpath(p: dict):
    k = p["k"]
    if k > 5:
        return _skip("marked Dyck path oracle capped at k <= 5")
    lhs = combinat.md_star_weight_sum(k)
    rhs = monomial(1, k, k * (k + 1)) * formulas.tk_recurrence(k).invert_variables()
    return _eq(lhs, rhs)


def _chk_tk_functional(p: dict):
    return _flag(
        formulas.tk_functional_equation_holds(p["k"]), f"functional equation fails at k={p['k']}"
    )


def _special_check(eps_sign: int, negate_b: bool):
    def chk(p: dict):
        b = -p["b"] if negate_b else p["b"]
        lhs = formulas.tk_special(formulas.SpecializationKey(eps_sign, b), p["k"])
        rhs = formulas.tk_recurrence(p["k"]).substitute_t(eps_sign, b)
        return _eq(lhs, rhs)

    return chk


def _chk_prodinger(p: dict):
    lhs = formulas.tk_prodinger(p["b"], p["k"])
    rhs = formulas.tk_recurrence(p["k"]).substitute_t(1, p["b"])
    return _eq(lhs, rhs)


def _chk_tk_at_one(p: dict):
    k = p["k"]
    lhs = formulas.tk_special(formulas.SpecializationKey(1, 0), k)
    if lhs != qkit.square_sum(k):
        return "fail", f"substitution formula at t=1 is not the square sum for k={k}"
    return _eq(lhs, formulas.tk_recurrence(k).substitute_t(1, 0))


def _chk_tk_at_minus_one(p: dict):
    k = p["k"]
    lhs = formulas.tk_special(formulas.SpecializationKey(-1, 0), k)
    if lhs != ONE:
        return "fail", f"substitution formula at t=-1 is not 1 for k={k}"
    return _eq(lhs, formulas.tk_recurrence(k).substitute_t(-1, 0))


def _chk_tk_at_q(p: dict):
    k = p["k"]
    lhs = formulas.tk_special(formulas.SpecializationKey(1, 1), k)
    rhs = qkit.a_k_poly(k).divide_exact(ONE_MINUS_Q)
    return _eq(lhs, rhs)


def _chk_tk_minus_q(p: dict):
    k = p["k"]
    return _eq(formulas.tk_at_minus_q(k), formulas.tk_recurrence(k).substitute_t(-1, 1))


def _chk_tk_minus_inv_q(p: dict):
    k = p["k"]
    return _eq(formulas.tk_at_minus_inv_q(k), formulas.tk_recurrence(k).substitute_t(-1, -1))


def _chk_alpha(p: dict):
    return _flag(
        formulas.alpha_step_holds(p["eps"], p["b"], p["k"]),
        f"alpha step fails at eps={p['eps']} b={p['b']} k={p['k']}",
    )


def _chk_beta(p: dict):
    return _flag(
        formulas.beta_step_holds(p["eps"], p["b"], p["k"]),
        f"beta step fails at eps={p['eps']} b={p['b']} k={p['k']}",
    )


def _chk_ballot_reduction(p: dict):
    n = p["n"]
    if n > 5:
        return _skip("marked Dyck path oracle capped at n <= 5")
    if p["weights"] == "euler":
        up = lambda h: LaurentPoly({(0, 0): 1, (0, h): -1})
        down = lambda h: LaurentPoly({(0, 0): 1, (1, h): -1})
    else:
        up = qkit.q_int
        down = qkit.q_int
    lhs = combinat.dyck_weight_sum(n, up, down)
    rhs = ZERO
    for k in range(n + 1):
        rhs = rhs + qkit.ballot(n, k) * combinat.md_star_weight_sum_general(
            k, lambda h: up(h) - ONE, lambda h: down(h) - ONE
        )
    return _eq(lhs, rhs)


def _chk_dist_box(p: dict):
    return _eq(
        combinat.dist_box_polynomial(p["m"], p["n"]), formulas.dist_box_closed(p["m"], p["n"])
    )


def _chk_box_binom(p: dict):
    return _eq(
        combinat.box_size_polynomial(p["m"], p["n"]), qkit.gauss_binom(p["m"] + p["n"], p["m"])
    )


def _chk_lpath_y(p: dict):
    eps, b, k, n = p["eps"], p["b"], p["k"], p["n"]
    lhs = combinat.l_path_weight_sum(b, k, 0, n, eps)
    rhs = monomial(1, 0, (k - n) * (2 * k + 1)) * qkit.gauss_binom(b, k - n, squared=True)
    return _eq(lhs, rhs)


def _chk_lpath_x(p: dict):
    eps, b, k, m = p["eps"], p["b"], p["k"], p["m"]
    lhs = combinat.l_path_weight_sum(b, k, m, 0, eps)
    rhs = (
        qkit.pochhammer(qkit.QSymbolSpec(eps, 1, m))
        * monomial(1, 0, k * (2 * k + 2 * m + 1))
        * qkit.gauss_binom(b - m - 1, k - 1, squared=True)
    )
    return _eq(lhs, rhs)


def _chk_lprime_y(p: dict):
    eps, b, k, n = p["eps"], p["b"], p["k"], p["n"]
    lhs = combinat.lprime_path_weight_sum(b, k, 0, n, eps)
    rhs = (
        qkit.pochhammer(qkit.QSymbolSpec(eps, 1 - b, b))
        * qkit.neg_q_power((k - n) * (k + n - 2 * b + 2))
        * qkit.partition_box_binom(k - n, b - 1, squared=True)
    )
    return _eq(lhs, rhs)


def _chk_lprime_x(p: dict):
    eps, b, k, m = p["eps"], p["b"], p["k"], p["m"]
    lhs = combinat.lprime_path_weight_sum(b, k, m, 0, eps)
    rhs = (
        qkit.pochhammer(qkit.QSymbolSpec(eps, 1 - b, b - m))
        * qkit.neg_q_power(k * (k - 2 * b + 2) + 2 * (b - m))
        * qkit.partition_box_binom(b - m, k - 1, squared=True)
    )
    return _eq(lhs, rhs)


def _chk_euler_inv_q(p: dict):
    n = p["n"]
    expected = ONE if n == 0 else ZERO
    return _eq(cfrac.euler_hat(n).substitute_t(1, -1), expected)


def _chk_euler_t_zero(p: dict):
    n = p["n"]
    return _eq(cfrac.euler_hat(n).substitute_t_zero(), cfrac.dn_hat(n))


def _chk_euler_t_minus_one(p: dict):
    n = p["n"]
    lhs = cfrac.euler_hat(n).substitute_t(-1, 0)
    dn = cfrac.dn_hat(n).divide_exact(ONE_MINUS_Q**n)
    one_plus_q = LaurentPoly({(0, 0): 1, (0, 1): 1})
    rhs = one_plus_q**n * ONE_MINUS_Q**n * dn.scale_q(2)
    return _eq(lhs, rhs)


def _chk_euler_minus_q(p: dict):
    n = p["n"]
    return _eq(formulas.euler_hat_at_minus_q(n), cfrac.euler_hat(n).substitute_t(-1, 1))


def _chk_euler_minus_inv_q(p: dict):
    n = p["n"]
    return _eq(formulas.euler_hat_at_minus_inv_q(n), cfrac.euler_hat(n).substitute_t(-1, -1))


def _chk_secant_anchor(p: dict):
    n = p["n"]
    value = cfrac.en_even_q(n).evaluate(1, 1)
    count = len(combinat.enum_alternating(2 * n))
    ok = value == SECANT_NUMBERS[n] == count
    return _flag(ok, f"E_{2*n}(1) = {value}, permutation count = {count}")


def _chk_tangent_anchor(p: dict):
    n = p["n"]
    value = cfrac.en_odd_q(n).evaluate(1, 1)
    count = len(combinat.enum_alternating(2 * n + 1))
    ok = value == TANGENT_NUMBERS[n] == count
    return _flag(ok, f"E_{2*n+1}(1) = {value}, permutation count = {count}")


def _chk_dn_anchor(p: dict):
    n = p["n"]
    dn = cfrac.dn_hat(n).divide_exact(ONE_MINUS_Q**n)
    value = dn.evaluate(1, 1)
    oracle = combinat.dyck_weight_sum(n, lambda h: ONE, lambda h: const(h)).evaluate(1, 1)
    ok = value == ODD_DOUBLE_FACTORIALS[n] == oracle
    return _flag(ok, f"d_{n}(1) = {value}, weighted Dyck count = {oracle}")


def _chk_alt_statistic(p: dict):
    n = p["n"]
    if n > 8:
        return _skip("permutation enumeration capped at size 8 for the statistic")
    dist = combinat.alt_statistic_polynomial(n)
    ref = cfrac.en_even_q(n // 2) if n % 2 == 0 else cfrac.en_odd_q(n // 2)
    return _eq(dist, ref)


def _chk_zeng(p: dict):
    n = p["n"]
    t0 = Fraction(p["t"])
    q0 = Fraction(p["q"])
    got = formulas.zeng_value(n, t0, q0)
    want = cfrac.euler_hat(n).evaluate(t0, q0) / (1 - q0) ** (2 * n)
    return _flag(got == want, f"zeng value {got} != rational evaluation {want}")


def _chk_gauss_pascal(p: dict):
    n = p["n"]
    for k in range(n + 1):
        lhs = qkit.gauss_binom(n, k)
        rhs = qkit.gauss_binom(n - 1, k - 1) + monomial(1, 0, k) * qkit.gauss_binom(n - 1, k)
        if lhs != rhs:
            return "fail", f"q-Pascal fails at ({n}, {k})"
    return "pass", None


def _chk_gauss_symmetry(p: dict):
    n = p["n"]
    for k in range(n + 1):
        if qkit.gauss_binom(n, k) != qkit.gauss_binom(n, n - k):
            return "fail", f"symmetry fails at ({n}, {k})"
    return "pass", None


def _zeng_grid(bounds: Bounds) -> Iterable[dict]:
    for n in range(min(bounds.max_n, 4) + 1):
        for t0, q0 in formulas.ZENG_SAMPLE_POINTS[:5]:
            yield {"n": n, "t": str(t0), "q": str(q0)}


def _ballot_reduction_grid(bounds: Bounds) -> Iterable[dict]:
    for n in range(min(bounds.max_n, 5) + 1):
        for weights in ("euler", "q-int"):
            yield {"n": n, "weights": weights}


def _anchor_grid(cap: int):
    def grid(bounds: Bounds) -> Iterable[dict]:
        return ({"n": n} for n in range(min(bounds.max_n, cap) + 1))

    return grid


def _alt_grid(bounds: Bounds) -> Iterable[dict]:
    return ({"n": n} for n in range(min(2 * bounds.max_n, 8) + 1))


def _pascal_grid(bounds: Bounds) -> Iterable[dict]:
    return ({"n": n} for n in range(1, 21))


def _symmetry_grid(bounds: Bounds) -> Iterable[dict]:
    return ({"n": n} for n in range(0, 21))


REGISTRY: tuple[Identity, ...] = (
    Identity("euler-dp-vs-ballot", "continued-fraction moments equal the ballot expansion over inverted T_k", _n_grid, _chk_euler_ballot),
    Identity("euler-odd-pochhammer", "continued-fraction moments equal the single-binomial closed form", _n_grid, _chk_euler_odd_poch),
    Identity("euler-josuat-verges", "continued-fraction moments equal the moment-style triple sum", _n_grid, _chk_euler_jv),
    Identity("euler-dyck-oracle", "continued-fraction moments equal the brute-force weighted Dyck sum", _n_grid, _chk_euler_dyck),
    Identity("touchard-riordan", "ballot closed form for the normalized d_n equals its fraction moments", _n_grid, _chk_touchard),
    Identity("secant-closed", "closed secant-side sum equals the t=1 substitution", _n_grid, _chk_secant_closed),
    Identity("tangent-closed", "closed tangent-side sum equals the t=q substitution", _n_grid, _chk_tangent_closed),
    Identity("secant-original", "unshifted secant form equals the shifted one", _n_grid, _chk_secant_original),
    Identity("tangent-original", "unshifted tangent form equals (1-q) times the shifted one", _n_grid, _chk_tangent_original),
    Identity("tk-closed", "T_k double-sum closed form equals the recurrence", _k_grid, _chk_tk_closed),
    Identity("tk-delta-config", "staircase arrow configurations sum to T_k", _k_grid, _chk_tk_delta),
    Identity("tk-overpartition", "self-conjugate overpartitions sum to T_k", _k_grid, _chk_tk_sop),
    Identity("tk-mpath", "west/southwest path sums equal T_k", _k_grid, _chk_tk_mpath),
    Identity("markpath-transfer", "marked-Dyck weight sum equals t^k q^(k(k+1)) T_k(1/t, 1/q)", _k_grid, _chk_markpath),
    Identity("tk-functional", "(1-tq) T_k(tq,q) = T_k(t,q) + t^2 q^(2k+1) T_{k-1}(t,q)", _k1_grid, _chk_tk_functional),
    Identity("tk-special-pp", "substitution formula at t = +q^b equals direct substitution", _bk_grid(0), _special_check(1, False)),
    Identity("tk-special-mp", "substitution formula at t = -q^b equals direct substitution", _bk_grid(0), _special_check(-1, False)),
    Identity("tk-special-pm", "substitution formula at t = +q^-b equals direct substitution", _bk_grid(1), _special_check(1, True)),
    Identity("tk-special-mm", "substitution formula at t = -q^-b equals direct substitution", _bk_grid(1), _special_check(-1, True)),
    Identity("tk-prodinger", "binomial double sum at t = q^b equals direct substitution", _bk_grid(1), _chk_prodinger),
    Identity("tk-at-one", "t = 1 specialization degenerates to the square sum", _k_grid, _chk_tk_at_one),
    Identity("tk-at-minus-one", "t = -1 specialization degenerates to 1", _k_grid, _chk_tk_at_minus_one),
    Identity("tk-at-q", "t = q specialization recovers the tangent-side kernel", _k1_grid, _chk_tk_at_q),
    Identity("tk-minus-q", "closed form for T_k(-q, q)", _k_grid, _chk_tk_minus_q),
    Identity("tk-minus-inv-q", "closed form for T_k(-1/q, q)", _k_grid, _chk_tk_minus_inv_q),
    Identity("alpha-recurrence", "step relation for T_k at t = eps q^b", _bk_grid(1, 1, with_eps=True), _chk_alpha),
    Identity("beta-recurrence", "step relation for T_k at t = eps q^-b", _bk_grid(1, 1, with_eps=True), _chk_beta),
    Identity("ballot-reduction", "Dyck weight sums reduce to ballot-weighted marked-path sums", _ballot_reduction_grid, _chk_ballot_reduction),
    Identity("dist-box", "distinct-part distribution over a box equals its closed form", _mn_grid(6), _chk_dist_box),
    Identity("box-binomial", "partition count in a box equals the Gaussian binomial", _mn_grid(6), _chk_box_binom),
    Identity("lpath-yaxis", "west/southwest path sums to the y-axis equal their closed form", _path_grid(True), _chk_lpath_y),
    Identity("lpath-xaxis", "west/southwest path sums to the x-axis equal their closed form", _path_grid(False, 0), _chk_lpath_x),
    Identity("lprime-yaxis", "west/south path sums to the y-axis equal their closed form", _path_grid(True), _chk_lprime_y),
    Identity("lprime-xaxis", "west/south path sums to the x-axis equal their closed form", _path_grid(False, 1), _chk_lprime_x),
    Identity("euler-inv-q", "t = 1/q collapses every positive moment to zero", _n_grid, _chk_euler_inv_q),
    Identity("euler-t-zero", "t = 0 recovers the normalized d_n", _n_grid, _chk_euler_t_zero),
    Identity("euler-t-minus-one", "t = -1 recovers d_n in q^2 with split prefactors", _n_grid, _chk_euler_t_minus_one),
    Identity("euler-minus-q", "ballot closed form at t = -q", _n_grid, _chk_euler_minus_q),
    Identity("euler-minus-inv-q", "ballot closed form at t = -1/q", _n_grid, _chk_euler_minus_inv_q),
    Identity("secant-anchor", "q = 1 secant values against alternating permutation counts", _anchor_grid(4), _chk_secant_anchor),
    Identity("tangent-anchor", "q = 1 tangent values against alternating permutation counts", _anchor_grid(4), _chk_tangent_anchor),
    Identity("dn-anchor", "d_n(1) against height-weighted Dyck counts", _anchor_grid(5), _chk_dn_anchor),
    Identity("alternating-statistic", "13-2 pattern distribution equals the classical q-Euler values", _alt_grid, _chk_alt_statistic),
    Identity("zeng-numeric", "rational double-sum evaluation matches the fraction moments", _zeng_grid, _chk_zeng),
    Identity("gauss-pascal", "q-Pascal recurrence for Gaussian binomials", _pascal_grid, _chk_gauss_pascal),
    Identity("gauss-symmetry", "Gaussian binomial symmetry", _symmetry_grid, _chk_gauss_symmetry),
)


def identity_ids() -> list[str]:
    return [ident.id for ident in REGISTRY]


def _select_identities(select: str | None) -> list[Identity]:
    if not select:
        return list(REGISTRY)
    wanted = [s.strip() for s in select.split(",") if s.strip()]
    if not wanted:
        raise RegistryConfigError("empty selector")
    chosen = [ident for ident in REGISTRY if any(w in ident.id for w in wanted)]
    if not chosen:
        raise RegistryConfigError(f"selector {select!r} matches no identity id")
    return chosen


def run_verification(
    max_n: int = 8,
    max_k: int = 6,
    max_b: int = 4,
    select: str | None = None,
    jobs: int = 1,
) -> VerificationReport:
    """Execute the verification matrix and return the report.

    Cells are independent and pure; with ``jobs > 1`` they run in a thread
    pool, and the report order is the deterministic generation order either
    way.
    """
    if not (0 <= max_n <= HARD_MAX_N):
        raise RegistryConfigError(f"max_n must be in 0..{HARD_MAX_N}")
    if not (0 <= max_k <= HARD_MAX_K):
        raise RegistryConfigError(f"max_k must be in 0..{HARD_MAX_K}")
    if not (0 <= max_b <= HARD_MAX_B):
        raise RegistryConfigError(f"max_b must be in 0..{HARD_MAX_B}")
    if jobs < 1:
        raise RegistryConfigError("jobs must be at least 1")
    bounds = Bounds(max_n, max_k, max_b)
    cells = [
        (ident, params) for ident in _select_identities(select) for params in ident.grid(bounds)
    ]

    def run_cell(cell):
        ident, params = cell
        start = time.perf_counter()
        try:
            status, detail = ident.check(params)
        except Exception as exc:  # a crash in a check is a failure, not an abort
            status, detail = "fail", f"exception: {type(exc).__name__}: {exc}"
        ms = int((time.perf_counter() - start) * 1000)
        return Case(ident.id, dict(params), status, ms, detail)

    if jobs == 1:
        cases = [run_cell(cell) for cell in cells]
    else:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            cases = list(pool.map(run_cell, cells))
    return VerificationReport(cases)
