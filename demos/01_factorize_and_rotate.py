"""Walkthrough: factor a tridiagonal operator and rotate its factors.

The running example is the p = 1 matrix with diagonal 2 and subdiagonal 1
(its first dual functional has Catalan-number moments). We factor J = L*U,
rotate to J(1) = U*L, and watch the classical kernel-polynomial formula
fall out of the rotation.
"""

from itertools import zip_longest

from banded_darboux import (
    BandedHessenberg,
    ShiftedInstance,
    chain_from_instance,
    characteristic_polys,
    darboux_transform,
    format_polynomial,
    shifted_lu,
    transformed_polys,
)

N = 8
J = BandedHessenberg(1, N, {0: [2] * N, -1: [0] + [1] * (N - 1)})
print("J: tridiagonal, diagonal 2, subdiagonal 1, unit superdiagonal")

# -- characteristic sequence ------------------------------------------------

# Each P_n is its tuple of coefficients, constant term first.
P = characteristic_polys(J, N)
for n, poly in enumerate(P[:6]):
    print(f"  P_{n} = {format_polynomial(poly)}")

# -- shifted LU (shift C = 0 is admissible: no P_n vanishes there) ----------

inst = ShiftedInstance(J, 0)
L, U, _ = shifted_lu(inst, inst.n)
print("\nJ = L * U")
print("  U diagonal   :", ", ".join(str(v) for v in U.diag))
print("  L subdiagonal:", ", ".join(str(v) for v in L.band(-1)[1:]))
print("  (each U entry is -P_{n+1}(0)/P_n(0))")
# P_n(0) is P_n's constant coefficient.
for n in range(N):
    assert U.diag[n] == -P[n + 1][0] / P[n][0]

# -- rotate the factorization ------------------------------------------------

chain = chain_from_instance(inst, (), inst.n)  # p = 1: no free entries
J1 = darboux_transform(chain, [1])[1]
print("\nJ(1) = U * L + 0*I, trustworthy on rows 0..", J1.valid_rows - 1)
print("  new diagonal:", ", ".join(str(J1.a(i, i)) for i in range(4)), "...")

# -- kernel polynomials ------------------------------------------------------

[(_, K)] = transformed_polys(chain, 5, [1])
print("\nkernel sequence of the rotation:")
for n, poly in enumerate(K):
    print(f"  K_{n} = {format_polynomial(poly)}")

print("\nclassical check: K_n = (P_{n+1} - (P_{n+1}(0)/P_n(0)) P_n) / z")
# The ratio cancels the constant term, so dividing by z drops it.
for n in range(5):
    ratio = P[n + 1][0] / P[n][0]
    numerator = [a - ratio * b for a, b in zip_longest(P[n + 1], P[n], fillvalue=0)]
    assert numerator[0] == 0
    assert K[n] == tuple(numerator[1:])
print("  exact for n = 0..4")
