"""Data-driven identity registry and verification runner.

Each identity is one row of the table ``REGISTRY``: a stable id, a
human-readable description, a parameter grid (one comprehension over the
requested bounds; the ``gauss-*`` grids ignore them and are fixed at
n <= 20), and a check mapping one parameter point to a pass/fail/skipped
outcome.  Every check is ``_same`` over two or more sides, which passes
when all of them are equal.  Every side is a value, a polynomial, an int or a
list of them, never a predicate, so a failing cell shows what each side
computed.  The registry is the product's test surface: the CLI ``verify``
command simply executes it, and what only ``verify`` reads lives here, the
zeng sample points among it.

Checks resolve formula functions through the :mod:`tqeuler.formulas` module
object at call time, so replacing a formula (for example in a mutation test)
is observed by the runner.  A value already memoised is not computed again;
``tqeuler.clear_caches()`` empties every memo.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Callable, Iterable

from . import cfrac, combinat, formulas, qkit
from ._record import Record
from .exactalg import Item, LaurentPoly, ONE, ONE_MINUS_Q, ZERO, _ONE_PLUS_Q, const, monomial
from .formulas import DYCK_ORACLE_MAX_N, HARD_MAX_B, HARD_MAX_K, HARD_MAX_N

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
    "DYCK_ORACLE_MAX_N",
    "ZENG_SAMPLE_POINTS",
]

SECANT_NUMBERS = (1, 1, 5, 61, 1385)
TANGENT_NUMBERS = (1, 2, 16, 272, 7936)
ODD_DOUBLE_FACTORIALS = (1, 1, 3, 15, 105, 945)
# the (t, q) points of zeng-numeric, which reads the first five
ZENG_SAMPLE_POINTS = (
    (Fraction(2), Fraction(1, 2)),
    (Fraction(1, 3), Fraction(1, 2)),
    (Fraction(3), Fraction(2)),
    (Fraction(-2), Fraction(1, 3)),
    (Fraction(5, 7), Fraction(2, 5)),
    (Fraction(1, 2), Fraction(3)),
)


class RegistryConfigError(ValueError):
    """Invalid bounds or selector for a verification run."""


class Bounds(Record):
    """The verification bounds, stored as ints: each goes through :func:`operator.index`,
    so a non-integer raises ``TypeError``; a value outside its hard cap raises
    :class:`RegistryConfigError`."""

    __slots__ = ("max_n", "max_k", "max_b")

    def __init__(self, max_n: int, max_k: int, max_b: int):
        values = []
        for name, value, top in (("max_n", max_n, HARD_MAX_N), ("max_k", max_k, HARD_MAX_K),
                                 ("max_b", max_b, HARD_MAX_B)):
            values.append(index(value))
            if not 0 <= values[-1] <= top:
                raise RegistryConfigError(f"{name} must be in 0..{top}")
        self._fill(*values)


class Case(Record):
    """One cell of a verification run: its outcome and its time in microseconds."""

    __slots__ = ("id", "params", "status", "us", "detail")

    def __init__(self, id: str, params: dict, status: str, us: int, detail: str | None = None):
        self._fill(id, params, status, us, detail)

    @property
    def ms(self) -> int:
        return self.us // 1000

    def to_json_obj(self) -> dict:
        obj = {"id": self.id, "params": self.params, "status": self.status, "ms": self.ms, "us": self.us}
        if self.detail is not None:
            obj["detail"] = self.detail
        return obj


class VerificationReport:
    """The cases of one run, in run order.  Mutable, so unhashable, and equal to a
    report with equal cases."""

    __hash__ = None

    def __init__(self, cases: list[Case] | None = None):
        self.cases = [] if cases is None else cases

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.cases == other.cases
        return NotImplemented

    def __repr__(self):
        return f"VerificationReport(cases={self.cases!r})"

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
        import json  # here, not at module level: most runs write no JSON report

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


# A dataclass, unlike the records above: perfbench/tracer.py rebuilds REGISTRY with
# dataclasses.replace, so dataclasses is imported for this one class.
@dataclass(frozen=True)
class Identity:
    id: str
    description: str
    grid: Grid
    check: Check


Side = Callable[..., object]


def _same(*sides: Side, cap: tuple[str, int, str] | None = None) -> Check:
    """The check that every ``side(**params)`` is equal.

    A failure lists every value, first to last, as ``lhs = ... ; rhs = ...``
    with any middle side as ``mid``.  ``cap = (param, top, oracle)`` skips
    every cell whose ``param`` exceeds ``top``: the brute-force ``oracle`` on
    one side is too slow past it.
    """
    names = ("lhs", *["mid"] * (len(sides) - 2), "rhs")

    def check(p: dict) -> tuple[str, str | None]:
        if cap is not None and p[cap[0]] > cap[1]:
            return "skipped", f"{cap[2]} capped at {cap[0]} <= {cap[1]}"
        values = [side(**p) for side in sides]
        if values.count(values[0]) == len(values):
            return "pass", None
        return "fail", " ; ".join(f"{name} = {v}" for name, v in zip(names, values))

    return check


# Each side is a lambda so that it looks ``formulas.*``, ``cfrac.*`` and the
# other modules' functions up when it runs: a replaced function (a mutation
# test, a tracer) is what the check calls.


def _euler_hat(n: int) -> LaurentPoly:
    return cfrac.euler_hat(n)


def _tk(k: int) -> LaurentPoly:
    return formulas.tk_recurrence(k)


def _euler_at(eps: int, b: int) -> Side:
    """``euler_hat(n)`` at ``t = eps * q**b``."""
    return lambda n: cfrac.euler_hat(n).substitute_t(eps, b)


def _special(eps: int, sign: int) -> Check:
    """The substitution formula at ``t = eps * q**(sign*b)`` against direct substitution."""
    return _same(
        lambda b, k: formulas.tk_special(eps, sign * b, k),
        lambda b, k: formulas.tk_at(eps, sign * b, k),
    )


def _d(n: int) -> LaurentPoly:
    """``d_n`` itself, with the ``(1-q)**n`` normalization divided out."""
    return cfrac.dn_hat(n).divide_exact(1, [1] * n)


def _step_rules(weights: str) -> tuple[Side, Side]:
    if weights == "euler":
        return qkit.euler_up, qkit.euler_down
    return qkit.q_int, qkit.q_int


def _marked_kernel(k: int, weights: str) -> list[Item]:
    """``K_k`` of ``ballot-reduction``: ``combinat.md_star_weight_sum`` under the rules ``weights``.

    Under the Euler rules ``K_k`` is the sum ``markpath-transfer`` checks.  Both read it from
    ``qkit._kernel`` under one key, so it is walked once per run.
    """
    return [(1, 0, 0, (combinat.md_star_weight_sum(k, *_step_rules(weights)),))]


def _ballot_marked_sum(n: int, weights: str) -> LaurentPoly:
    return qkit._ballot_sum(n, _marked_kernel, weights)


def _md_star(k: int) -> LaurentPoly:
    """``combinat.md_star_weight_sum(k)``, read from ``qkit._kernel`` as ``ballot-reduction`` keeps it."""
    return qkit._kernel(_marked_kernel, k, "euler")


# ---------------------------------------------------------------------------
# grids: each row's cells are one comprehension over the bounds, keys in the order the
# report prints them; the common grids, each grid two rows share, and the path rows' shared
# (eps, b, k) are named


def _N(bounds: Bounds) -> list[dict]:
    return [{"n": n} for n in range(bounds.max_n + 1)]


def _K(bounds: Bounds) -> list[dict]:
    return [{"k": k} for k in range(bounds.max_k + 1)]


def _ANCHOR(bounds: Bounds) -> list[dict]:
    return [{"n": n} for n in range(min(bounds.max_n, 4) + 1)]


def _BOX(bounds: Bounds) -> list[dict]:
    return [{"m": m, "n": n} for m in range(min(bounds.max_n, 6) + 1) for n in range(min(bounds.max_n, 6) + 1)]


def _K1(bounds: Bounds) -> list[dict]:
    return [{"k": k} for k in range(1, bounds.max_k + 1)]


def _B0K(bounds: Bounds) -> list[dict]:
    return [{"b": b, "k": k} for b in range(bounds.max_b + 1) for k in range(bounds.max_k + 1)]


def _B1K(bounds: Bounds) -> list[dict]:
    return [{"b": b, "k": k} for b in range(1, bounds.max_b + 1) for k in range(bounds.max_k + 1)]


def _STEPS(bounds: Bounds) -> list[dict]:  # runs b, then k, then eps; prints eps first
    return [{"eps": eps, "b": b, "k": k}
            for b in range(1, bounds.max_b + 1) for k in range(1, bounds.max_k + 1) for eps in (1, -1)]


def _desk(bounds: Bounds) -> list[tuple[int, int, int]]:
    """The ``(eps, b, k)`` of the lattice-path lemma checks, which run at desk scale: b, k <= 4."""
    return [(eps, b, k) for eps in (1, -1) for b in range(min(bounds.max_b, 4) + 1)
            for k in range(min(bounds.max_k, 4) + 1)]


def _YAXIS(bounds: Bounds) -> list[dict]:
    return [{"eps": eps, "b": b, "k": k, "n": n} for eps, b, k in _desk(bounds) for n in range(1, k + 1)]


# ---------------------------------------------------------------------------
# the table

REGISTRY: tuple[Identity, ...] = (
    Identity("euler-dp-vs-ballot", "continued-fraction moments equal the ballot expansion over inverted T_k",
        _N, _same(lambda n: formulas.euler_hat_ballot(n), _euler_hat)),
    Identity("euler-odd-pochhammer", "continued-fraction moments equal the single-binomial closed form",
        _N, _same(lambda n: formulas.euler_hat_odd_pochhammer(n), _euler_hat)),
    Identity("euler-josuat-verges", "continued-fraction moments equal the moment-style triple sum",
        _N, _same(lambda n: formulas.euler_hat_josuat_verges(n), _euler_hat)),
    Identity("euler-dyck-oracle", "continued-fraction moments equal the brute-force weighted Dyck sum",
        _N, _same(lambda n: combinat.dyck_weight_sum(n, qkit.euler_up, qkit.euler_down),
                  _euler_hat, cap=("n", DYCK_ORACLE_MAX_N, "brute-force Dyck oracle"))),
    Identity("touchard-riordan", "ballot closed form for the normalized d_n equals its fraction moments",
        _N, _same(lambda n: formulas.dn_touchard_riordan(n), lambda n: cfrac.dn_hat(n))),
    Identity("secant-closed", "closed secant-side sum equals the t=1 substitution",
        _N, _same(lambda n: formulas.secant_hat_closed(n), _euler_at(1, 0))),
    Identity("tangent-closed", "closed tangent-side sum equals the t=q substitution",
        _N, _same(lambda n: formulas.tangent_hat_closed(n), _euler_at(1, 1))),
    Identity("secant-original", "unshifted secant form equals the shifted one",
        _N, _same(lambda n: formulas.secant_hat_original(n), lambda n: formulas.secant_hat_closed(n))),
    Identity("tangent-original", "unshifted tangent form equals (1-q) times the shifted one",
        _N, _same(lambda n: formulas.tangent_hat_original(n),
                  lambda n: ONE_MINUS_Q * formulas.tangent_hat_closed(n))),
    Identity("tk-closed", "T_k double-sum closed form equals the recurrence",
        _K, _same(lambda k: formulas.tk_closed(k), _tk)),
    Identity("tk-delta-config", "staircase arrow configurations sum to T_k",
        _K, _same(lambda k: combinat.delta_prime_weight_sum(k), _tk,
                  cap=("k", 5, "staircase configuration oracle"))),
    Identity("tk-overpartition", "self-conjugate overpartitions sum to T_k",
        _K, _same(lambda k: combinat.sop_weight_sum(k), _tk, cap=("k", 5, "overpartition oracle"))),
    Identity("tk-mpath", "west/southwest path sums equal T_k",
        _K, _same(lambda k: combinat.m_path_weight_sum(k), _tk,
                  cap=("k", 7, "west/southwest path oracle"))),
    Identity("markpath-transfer", "marked-Dyck weight sum equals t^k q^(k(k+1)) T_k(1/t, 1/q)",
        _K, _same(_md_star,
                  lambda k: monomial(1, k, k * (k + 1)) * formulas.tk_recurrence(k).invert_variables(),
                  cap=("k", 5, "marked Dyck path oracle"))),
    Identity("tk-functional", "(1-tq) T_k(tq,q) = T_k(t,q) + t^2 q^(2k+1) T_{k-1}(t,q)",
        _K1, _same(lambda k: (ONE - monomial(1, 1, 1)) * _tk(k).shift_t_by_q(1),
                   lambda k: _tk(k) + monomial(1, 2, 2 * k + 1) * _tk(k - 1))),
    Identity("tk-special-pp", "substitution formula at t = +q^b equals direct substitution",
        _B0K, _special(1, 1)),
    Identity("tk-special-mp", "substitution formula at t = -q^b equals direct substitution",
        _B0K, _special(-1, 1)),
    Identity("tk-special-pm", "substitution formula at t = +q^-b equals direct substitution",
        _B1K, _special(1, -1)),
    Identity("tk-special-mm", "substitution formula at t = -q^-b equals direct substitution",
        _B1K, _special(-1, -1)),
    Identity("tk-prodinger", "binomial double sum at t = q^b equals direct substitution",
        _B1K, _same(lambda b, k: formulas.tk_prodinger(b, k), lambda b, k: formulas.tk_at(1, b, k))),
    Identity("tk-at-one", "t = 1 specialization degenerates to the square sum",
        _K, _same(lambda k: formulas.tk_special(1, 0, k),
                  lambda k: qkit.square_sum(k), lambda k: formulas.tk_at(1, 0, k))),
    Identity("tk-at-minus-one", "t = -1 specialization degenerates to 1",
        _K, _same(lambda k: formulas.tk_special(-1, 0, k),
                  lambda k: ONE, lambda k: formulas.tk_at(-1, 0, k))),
    Identity("tk-at-q", "t = q specialization recovers the tangent-side kernel",
        _K1, _same(lambda k: formulas.tk_special(1, 1, k),
                   lambda k: qkit.a_k_poly(k).divide_exact(1, [1]))),
    Identity("tk-minus-q", "closed form for T_k(-q, q)",
        _K, _same(lambda k: formulas.tk_at_minus_q(k), lambda k: formulas.tk_at(-1, 1, k))),
    Identity("tk-minus-inv-q", "closed form for T_k(-1/q, q)",
        _K, _same(lambda k: formulas.tk_at_minus_inv_q(k), lambda k: formulas.tk_at(-1, -1, k))),
    Identity("alpha-recurrence", "step relation for T_k at t = eps q^b",
        # (1 - eps q^b) a(b, k) = a(b-1, k) + q^(2k+2b-1) a(b-1, k-1), with a(b, k) = T_k(eps q^b, q)
        _STEPS, _same(lambda eps, b, k: (ONE - monomial(eps, 0, b)) * formulas.tk_at(eps, b, k),
                      lambda eps, b, k: formulas.tk_at(eps, b - 1, k)
                      + monomial(1, 0, 2 * k + 2 * b - 1) * formulas.tk_at(eps, b - 1, k - 1))),
    Identity("beta-recurrence", "step relation for T_k at t = eps q^-b",
        # b(b, k) = (1 - eps q^(1-b)) b(b-1, k) - q^(2k-2b+1) b(b, k-1), with b(b, k) = T_k(eps q^-b, q)
        _STEPS, _same(lambda eps, b, k: formulas.tk_at(eps, -b, k),
                      lambda eps, b, k: (ONE - monomial(eps, 0, 1 - b)) * formulas.tk_at(eps, 1 - b, k)
                      - monomial(1, 0, 2 * k - 2 * b + 1) * formulas.tk_at(eps, -b, k - 1))),
    Identity("ballot-reduction", "Dyck weight sums reduce to ballot-weighted marked-path sums",
        lambda bounds: [{"n": n, "weights": weights}
                        for n in range(min(bounds.max_n, 5) + 1) for weights in ("euler", "q-int")],
        _same(lambda n, weights: combinat.dyck_weight_sum(n, *_step_rules(weights)), _ballot_marked_sum)),
    Identity("dist-box", "distinct-part distribution over a box equals its closed form",
        _BOX, _same(lambda m, n: combinat.dist_box_polynomial(m, n), lambda m, n: formulas.dist_box_closed(m, n))),
    Identity("box-binomial", "partition count in a box equals the Gaussian binomial",
        _BOX, _same(lambda m, n: combinat.box_size_polynomial(m, n), lambda m, n: qkit.gauss_binom(m + n, m))),
    Identity("lpath-yaxis", "west/southwest path sums to the y-axis equal their closed form",
        _YAXIS, _same(lambda eps, b, k, n: combinat.l_path_weight_sum(b, k, 0, n, eps),
                      lambda eps, b, k, n: monomial(1, 0, (k - n) * (2 * k + 1))
                      * qkit.gauss_binom(b, k - n, squared=True))),
    Identity("lpath-xaxis", "west/southwest path sums to the x-axis equal their closed form",
        lambda bounds: [{"eps": eps, "b": b, "k": k, "m": m}
                        for eps, b, k in _desk(bounds) if k >= 1 for m in range(b + 1)],
        _same(lambda eps, b, k, m: combinat.l_path_weight_sum(b, k, m, 0, eps),
              lambda eps, b, k, m: qkit.pochhammer(eps, 1, m)
              * monomial(1, 0, k * (2 * k + 2 * m + 1))
              * qkit.gauss_binom(b - m - 1, k - 1, squared=True))),
    Identity("lprime-yaxis", "west/south path sums to the y-axis equal their closed form",
        _YAXIS, _same(lambda eps, b, k, n: combinat.lprime_path_weight_sum(b, k, 0, n, eps),
                      lambda eps, b, k, n: qkit.pochhammer(eps, 1 - b, b)
                      * qkit.neg_q_power((k - n) * (k + n - 2 * b + 2))
                      * qkit.partition_box_binom(k - n, b - 1, squared=True))),
    Identity("lprime-xaxis", "west/south path sums to the x-axis equal their closed form",
        lambda bounds: [{"eps": eps, "b": b, "k": k, "m": m}
                        for eps, b, k in _desk(bounds) if k >= 1 for m in range(1, b + 1)],
        _same(lambda eps, b, k, m: combinat.lprime_path_weight_sum(b, k, m, 0, eps),
              lambda eps, b, k, m: qkit.pochhammer(eps, 1 - b, b - m)
              * qkit.neg_q_power(k * (k - 2 * b + 2) + 2 * (b - m))
              * qkit.partition_box_binom(b - m, k - 1, squared=True))),
    Identity("euler-inv-q", "t = 1/q collapses every positive moment to zero",
        _N, _same(_euler_at(1, -1), lambda n: ONE if n == 0 else ZERO)),
    Identity("euler-t-zero", "t = 0 recovers the normalized d_n",
        _N, _same(lambda n: cfrac.euler_hat(n).substitute_t_zero(), lambda n: cfrac.dn_hat(n))),
    Identity("euler-t-minus-one", "t = -1 recovers d_n in q^2 with split prefactors",
        _N, _same(_euler_at(-1, 0), lambda n: _ONE_PLUS_Q**n * ONE_MINUS_Q**n * _d(n).scale_q(2))),
    Identity("euler-minus-q", "ballot closed form at t = -q",
        _N, _same(lambda n: formulas.euler_hat_at_minus_q(n), _euler_at(-1, 1))),
    Identity("euler-minus-inv-q", "ballot closed form at t = -1/q",
        _N, _same(lambda n: formulas.euler_hat_at_minus_inv_q(n), _euler_at(-1, -1))),
    Identity("secant-anchor", "q = 1 secant values against alternating permutation counts",
        _ANCHOR, _same(lambda n: cfrac.en_even_q(n).evaluate(1, 1), lambda n: SECANT_NUMBERS[n],
                       lambda n: combinat.alt_statistic_polynomial(2 * n).evaluate(1, 1))),
    Identity("tangent-anchor", "q = 1 tangent values against alternating permutation counts",
        _ANCHOR, _same(lambda n: cfrac.en_odd_q(n).evaluate(1, 1), lambda n: TANGENT_NUMBERS[n],
                       lambda n: combinat.alt_statistic_polynomial(2 * n + 1).evaluate(1, 1))),
    Identity("dn-anchor", "d_n(1) against height-weighted Dyck counts",
        lambda bounds: [{"n": n} for n in range(min(bounds.max_n, 5) + 1)],
        _same(lambda n: _d(n).evaluate(1, 1), lambda n: ODD_DOUBLE_FACTORIALS[n],
              lambda n: combinat.dyck_weight_sum(n, lambda h: ONE, const).evaluate(1, 1))),
    Identity("alternating-statistic", "13-2 pattern distribution equals the classical q-Euler values",
        lambda bounds: [{"n": n} for n in range(min(2 * bounds.max_n, 8) + 1)],
        # the third side: the q-tangent and q-secant S-fractions, c_h = [h][h+1] and [h]^2
        _same(lambda n: combinat.alt_statistic_polynomial(n),
              lambda n: cfrac.en_odd_q(n // 2) if n % 2 else cfrac.en_even_q(n // 2),
              lambda n: combinat.dyck_weight_sum(n // 2, qkit.q_int,
                                                 (lambda h: qkit.q_int(h + 1)) if n % 2 else qkit.q_int))),
    Identity("zeng-numeric", "rational double-sum evaluation matches the fraction moments",
        lambda bounds: [{"n": n, "t": str(t), "q": str(q)} for n in range(min(bounds.max_n, 4) + 1)
                        for t, q in ZENG_SAMPLE_POINTS[:5]],
        _same(lambda n, t, q: formulas.zeng_value(n, Fraction(t), Fraction(q)),
              lambda n, t, q: cfrac.euler_hat(n).evaluate(Fraction(t), Fraction(q))
              / (1 - Fraction(q)) ** (2 * n))),
    Identity("gauss-pascal", "q-Pascal recurrence for Gaussian binomials",
        lambda bounds: [{"n": n} for n in range(1, 21)],
        _same(lambda n: [qkit.gauss_binom(n, k) for k in range(n + 1)],
              lambda n: [qkit.gauss_binom(n - 1, k - 1) + monomial(1, 0, k) * qkit.gauss_binom(n - 1, k)
                         for k in range(n + 1)])),
    Identity("gauss-symmetry", "Gaussian binomial symmetry",
        lambda bounds: [{"n": n} for n in range(21)],
        # [n, n-k] = q^k [n-1, n-k-1] + [n-1, n-k]: for k > n/2 the second q-Pascal rule, which
        # the memo never takes, so with gauss-pascal the symmetry; for k <= n/2 the memo's own rule
        _same(lambda n: [qkit.gauss_binom(n, k) for k in range(n + 1)],
              lambda n: [monomial(1, 0, k) * qkit.gauss_binom(n - 1, n - k - 1) + qkit.gauss_binom(n - 1, n - k)
                         for k in range(n + 1)] if n else [ONE])),
)


def identity_ids() -> list[str]:
    return [ident.id for ident in REGISTRY]


def _select_identities(select: str | None) -> list[Identity]:
    if select is not None and not isinstance(select, str):
        raise RegistryConfigError(f"selector must be a comma-separated string, got {type(select).__name__}")
    if select is None:
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
) -> VerificationReport:
    """Execute the verification matrix and return the report, in the
    deterministic generation order of the cells."""
    bounds = Bounds(max_n, max_k, max_b)
    cases = []
    for ident in _select_identities(select):
        for params in ident.grid(bounds):
            start = time.perf_counter()
            try:
                status, detail = ident.check(params)
            except Exception as exc:  # a crash in a check is a failure, not an abort
                status, detail = "fail", f"exception: {type(exc).__name__}: {exc}"
            us = int((time.perf_counter() - start) * 1_000_000)
            cases.append(Case(ident.id, dict(params), status, us, detail))
    return VerificationReport(cases)
