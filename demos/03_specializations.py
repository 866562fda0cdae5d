"""Tour: T_k at t = +-q^b and the functional equation.

Substituting a signed power of q for t turns T_k into explicit q-series with
Pochhammer prefactors; a functional equation under t -> t*q drives the step
relations used to derive those forms.
"""

from tqeuler import formulas
from tqeuler.exactalg import ONE, monomial

print("Specialization formulas vs direct substitution")
print("-" * 64)
for eps in (1, -1):
    for b in (2, -2):
        for k in (1, 3):
            closed = formulas.tk_special(eps, b, k)
            direct = formulas.tk_recurrence(k).substitute_t(eps, b)
            tag = f"t = {'+' if eps == 1 else '-'}q^{b}"
            print(f"T_{k} at {tag:>9}: match = {closed == direct}")

print()
print("Distinguished values")
print("-" * 64)
for k in range(5):
    print(f"T_{k}(1, q)   = {formulas.tk_special(1, 0, k)}")
for k in range(5):
    print(f"T_{k}(-q, q)  = {formulas.tk_at_minus_q(k)}")

print()
print("Functional equation (1 - tq) T_k(tq, q) = T_k + t^2 q^(2k+1) T_(k-1)")
print("-" * 64)
tk = formulas.tk_recurrence
for k in range(1, 6):
    lhs = (ONE - monomial(1, 1, 1)) * tk(k).shift_t_by_q(1)
    rhs = tk(k) + monomial(1, 2, 2 * k + 1) * tk(k - 1)
    print(f"k = {k}: sides equal = {lhs == rhs}")

print()
print("Rational spot check of the double-sum evaluation")
print("-" * 64)
from fractions import Fraction

from tqeuler import cfrac

for n in range(3):
    t0, q0 = Fraction(1, 3), Fraction(1, 2)
    via_sum = formulas.zeng_value(n, t0, q0)
    via_fraction = cfrac.euler_hat(n).evaluate(t0, q0) / (1 - q0) ** (2 * n)
    print(f"E_{n}({t0}, {q0}) = {via_sum}  (fraction route: {via_fraction})")
