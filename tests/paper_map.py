"""Which registry ids check which result of the paper.

The abstract states three results: an enumeration formula for the (t,q)-Euler
number that generalizes the q-Euler number of Han, Randrianarivony and Zeng;
a combinatorial expression for it; and a formula at t = +-q^r for any integer
r, whose special cases include Josuat-Verges's q-Euler formula and the
Touchard-Riordan formula.  ``RESULTS`` maps each to the ids that check it,
and to ``route``, the public name whose formula states it, a key of the
mutation-sweep map ``FROZEN`` in ``tests/test_mutation_sweep.py``.
``AUXILIARY`` lists the ids that check a building block of the routes rather
than a result, each with its reason.  ``tests/test_paper_map.py`` checks the
table against the registry.
"""

from typing import NamedTuple


class Result(NamedTuple):
    statement: str
    route: str
    ids: tuple[str, ...]


RESULTS = {
    "enumeration": Result(
        "the enumeration formula, a double sum for E_n(t, q)",
        "zeng_value",
        # a rational evaluation at sample points, until the cleared exact form of ROADMAP item 2
        ("zeng-numeric",),
    ),
    "combinatorial": Result(
        "the combinatorial expression: E_n as a ballot sum of T_k, with T_k summed over marked "
        "Dyck paths, staircase arrow configurations, overpartitions and lattice paths",
        "euler_hat_ballot",
        (
            "euler-dp-vs-ballot", "euler-dyck-oracle", "ballot-reduction", "markpath-transfer",
            # two closed forms of the ballot kernel t^k q^(k(k+1)) T_k(1/t, 1/q)
            "euler-odd-pochhammer", "euler-josuat-verges",
            "tk-closed", "tk-functional", "tk-delta-config", "tk-overpartition", "tk-mpath",
            "lpath-yaxis", "lpath-xaxis", "lprime-yaxis", "lprime-xaxis",
        ),
    ),
    "special": Result(
        "the formula at t = +-q^r, with the q-Euler and Touchard-Riordan formulas as special cases",
        "tk_special",
        (
            "tk-special-pp", "tk-special-mp", "tk-special-pm", "tk-special-mm", "tk-prodinger",
            "tk-at-one", "tk-at-minus-one", "tk-at-q", "tk-minus-q", "tk-minus-inv-q",
            "alpha-recurrence", "beta-recurrence",
            # the fixed points (eps, r) of the formula for E_n itself
            "secant-closed", "tangent-closed", "euler-minus-q", "euler-minus-inv-q", "euler-inv-q",
            "euler-t-minus-one",
            # the Touchard-Riordan special case, and d_n as the t = 0 value it is read from
            "touchard-riordan", "euler-t-zero", "dn-anchor",
            # the q-Euler special case: its unshifted forms, q = 1 values and 13-2 statistic
            "secant-original", "tangent-original", "secant-anchor", "tangent-anchor",
            "alternating-statistic",
        ),
    ),
}

AUXILIARY = {
    "gauss-pascal": "the q-Pascal recurrence of the Gaussian binomials every closed form is built from",
    "gauss-symmetry": "the symmetry of the Gaussian binomials every closed form is built from",
    "box-binomial": "partitions in a box, the reading of the Gaussian binomial the lattice-path forms use",
    "dist-box": "a lemma on partitions in a box, with no (t,q)-Euler number on either side",
}
