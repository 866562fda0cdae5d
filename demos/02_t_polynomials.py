"""Tour: the auxiliary family T_k(t, q) by five independent routes.

T_k is defined by a recurrence; it also equals a closed double sum over
base-q^2 binomial coefficients and three brute-force combinatorial sums:
staircase arrow configurations, self-conjugate overpartitions, and
west/southwest lattice paths.  All five agree exactly.
"""

from tqeuler import combinat, formulas

for k in range(5):
    routes = {
        "recurrence": formulas.tk_recurrence(k),
        "closed form": formulas.tk_closed(k),
        "staircase arrows": combinat.delta_prime_weight_sum(k),
        "overpartitions": combinat.sop_weight_sum(k),
        "lattice paths": combinat.m_path_weight_sum(k),
    }
    values = set(p.render() for p in routes.values())
    assert len(values) == 1, f"disagreement at k={k}"
    print(f"T_{k} = {routes['recurrence']}")
    print(f"      (agreed by {len(routes)} routes)")

print()
print("The marked-Dyck-path weight transfer:")
print("sum over marked paths = t^k q^(k(k+1)) T_k(1/t, 1/q)")
print("-" * 60)
from tqeuler.exactalg import monomial

for k in range(4):
    lhs = combinat.md_star_weight_sum(k)
    rhs = monomial(1, k, k * (k + 1)) * formulas.tk_recurrence(k).invert_variables()
    print(f"k={k}: {lhs}   == {rhs}: {lhs == rhs}")
