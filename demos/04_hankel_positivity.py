"""Coefficientwise Hankel-total positivity at desk scale.

The row polynomials of the recurrence appear to form a coefficientwise
Stieltjes moment sequence in all seven indeterminates jointly; here we
check bounded-order slices of that statement exactly.
"""
from fractions import Fraction
import random

from gkpfrac import gkp_triangle, hankel_tp, log_convexity, row_polys
from gkpfrac.hankel import bareiss_det, gkp_tilde_polys

print("=" * 72)
print("Factorials: the classical 3x3 Hankel determinant")
print("=" * 72)
det = bareiss_det([[1, 1, 2], [1, 2, 6], [2, 6, 24]])
print("  det [[1,1,2],[1,2,6],[2,6,24]] =", det)

print("\n" + "=" * 72)
print("Bell polynomials: 2x2 minors of the 4x4 Hankel matrix")
print("=" * 72)
ps = row_polys(gkp_triangle((0, 1, 0, 0, 0, 1), 7))
rep = hankel_tp(ps, 4, 2)
print("  all 2x2 minors coefficientwise nonnegative:", rep.ok)

print("\n" + "=" * 72)
print("All seven indeterminates symbolic: strong log-convexity to n = 8")
print("  (with nonnegative entries: order 2 for the 6x6 Hankel matrix of P_0..P_10)")
print("=" * 72)
ps = gkp_tilde_polys(10)
rep = log_convexity(ps, 8, strong=True)
print("  result:", rep)

print("\n" + "=" * 72)
print("Order-3 minors at random nonnegative rational parameters")
print("=" * 72)
rng = random.Random(1)
for _ in range(3):
    mu = tuple(Fraction(rng.randint(0, 4), rng.randint(1, 3))
               for _ in range(6))
    ps = row_polys(gkp_triangle(mu, 8))
    rep = hankel_tp(ps, 5, 3)
    print("  mu = %-40s -> %s" % (str(mu), "pass" if rep.ok else rep.witness))

print("\nA failing case, with its witness:")
from gkpfrac.exactalg import MPoly, variables
x, = variables("x")
rep = hankel_tp([MPoly.one(("x",)), x, x * x - 1], 2, 2)
print("  sequence (1, x, x^2 - 1):", rep.witness)
