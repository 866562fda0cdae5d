"""Tour: the (t,q)-Euler numbers from their continued fraction.

The generating function sum E_n(t,q) x^n is the S-fraction with coefficients
[n]_q [n]_{t,q}.  Everything here is computed in the normalized polynomial
form euler_hat(n) = (1-q)^(2n) E_n(t,q); the raw E_n is a rational function
and never materialized.
"""

from tqeuler import cfrac

print("Normalized (t,q)-Euler numbers, canonical text form")
print("-" * 60)
for n in range(4):
    print(f"euler_hat({n}) = {cfrac.euler_hat(n)}")

print()
print("Classical q-secant values E_2n(q)  (t = 1 specialization)")
print("-" * 60)
for n in range(4):
    poly = cfrac.en_even_q(n)
    print(f"E_{2*n}(q) = {poly}   -> at q=1: {poly.evaluate(1, 1)}")

print()
print("Classical q-tangent values E_2n+1(q)  (t = q specialization)")
print("-" * 60)
for n in range(4):
    poly = cfrac.en_odd_q(n)
    print(f"E_{2*n+1}(q) = {poly}   -> at q=1: {poly.evaluate(1, 1)}")

print()
print("Touchard-Riordan quantity d_n (fraction with coefficients [n]_q)")
print("-" * 60)
for n in range(5):
    hat = cfrac.dn_hat(n)
    dn = hat.divide_exact(1, [1] * n)
    print(f"d_{n} = {dn}   (normalized: {hat})")
