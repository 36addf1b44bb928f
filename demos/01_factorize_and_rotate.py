"""Walkthrough: factor a tridiagonal operator and rotate its factors.

The running example is the p = 1 matrix with diagonal 2 and subdiagonal 1
(its first dual functional has Catalan-number moments). We factor J = L*U,
rotate to J(1) = U*L, and watch the classical kernel-polynomial formula
fall out of the rotation.
"""

from fractions import Fraction
from itertools import zip_longest

from banded_darboux import (
    BandedHessenberg,
    ShiftedInstance,
    chain_from_instance,
    characteristic_polys,
    darboux_transform,
    format_polynomial,
    format_row,
    shifted_lu,
    transformed_polys,
)

N = 8
J = BandedHessenberg(1, N, {0: [2] * N, -1: [0] + [1] * (N - 1)})
print("J: tridiagonal, diagonal 2, subdiagonal 1, unit superdiagonal")

# -- characteristic sequence ------------------------------------------------

# Each P_n is an integer row (nums, d_n): its coefficients are nums[i] / d_n,
# constant term first. format_row gives their wire forms, and
# format_polynomial prints those.
P = characteristic_polys(J, N)
for n, poly in enumerate(P[:6]):
    print(f"  P_{n} = {format_polynomial(format_row(poly))}")

# -- shifted LU (shift C = 0 is admissible: no P_n vanishes there) ----------

inst = ShiftedInstance(J, 0)
L, U, _ = shifted_lu(inst, inst.n)
print("\nJ = L * U")
print("  U diagonal   :", ", ".join(str(v) for v in U.diag))
# L comes as its rows below the diagonal: here one entry, L(i, i-1), each.
print("  L subdiagonal:", ", ".join(str(row[0]) for row in L[1:]))
print("  (each U entry is -P_{n+1}(0)/P_n(0))")
# P_n(0) is P_n's constant coefficient, nums[0] / d_n.
at_zero = [Fraction(nums[0], d) for nums, d in P]
for n in range(N):
    assert U.diag[n] == -at_zero[n + 1] / at_zero[n]

# -- rotate the factorization ------------------------------------------------

chain = chain_from_instance(inst, (), inst.n)  # p = 1: no free entries
[(_, J1)] = darboux_transform(chain, [1])
print("\nJ(1) = U * L + 0*I, trustworthy on rows 0..", J1.valid_rows - 1)
print("  new diagonal:", ", ".join(str(J1.a(i, i)) for i in range(4)), "...")

# -- kernel polynomials ------------------------------------------------------

[(_, K)] = transformed_polys(chain, 5, [1])
print("\nkernel sequence of the rotation:")
for n, poly in enumerate(K):
    print(f"  K_{n} = {format_polynomial(format_row(poly))}")

print("\nclassical check: K_n = (P_{n+1} - (P_{n+1}(0)/P_n(0)) P_n) / z")
# The ratio cancels the constant term, so dividing by z drops it. The
# check reads each row's coefficients as Fractions.
def coefficients(row):
    nums, d = row
    return [Fraction(c, d) for c in nums]


for n in range(5):
    ratio = at_zero[n + 1] / at_zero[n]
    pairs = zip_longest(coefficients(P[n + 1]), coefficients(P[n]), fillvalue=0)
    numerator = [a - ratio * b for a, b in pairs]
    assert numerator[0] == 0
    assert coefficients(K[n]) == numerator[1:]
print("  exact for n = 0..4")
