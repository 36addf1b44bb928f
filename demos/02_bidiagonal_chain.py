"""Walkthrough: splitting a wide lower factor into a bidiagonal chain.

With p subdiagonals, L splits as L = L(1) ... L(p) once p(p-1)/2 leading
entries are prescribed. Different prescriptions give different chains over
the same L, and every chain rotates into new banded operators.
"""

from fractions import Fraction
from functools import reduce
import random

from banded_darboux import (
    ShiftedInstance,
    chain_from_instance,
    darboux_transform,
    multiply_window,
    random_hessenberg,
    shifted_lu,
)

rng = random.Random(12)
p, N = 3, 9
J = random_hessenberg(rng, p, N, bound=5)
inst = ShiftedInstance(J, Fraction(1, 2))
# L comes as its rows below the diagonal: [L(i, i-p), .., L(i, i-1)].
L, U, _ = shifted_lu(inst, inst.n)
print(f"random p={p} instance, shift 1/2; L has {len(L[0])} subdiagonals")
print(f"  L row {N - 1}: {', '.join(str(v) for v in L[-1])}")

# -- two different prescriptions over the same L ------------------------------

for label, rows in [
    ("zeros", [[0, 0], [0]]),
    ("ones ", [[1, 1], [1]]),
]:
    chain = chain_from_instance(inst, rows, inst.n)
    print(f"\nfree entries {label}:")
    for j, f in enumerate(chain.factors, start=1):
        head = ", ".join(str(v) for v in f.sub[:4])
        print(f"  L({j}) subdiagonal starts: {head}, ...")
    product = reduce(multiply_window, chain.factors)
    assert [[product.band(c - i)[i] if c >= 0 else 0 for c in range(i - p, i)]
            for i in range(N)] == L
    assert chain.upper == U
    print("  product reconstructs L exactly; U is shared")

# -- every rotation is again banded Hessenberg -------------------------------

chain = chain_from_instance(inst, [[1, 2], [3]], inst.n)
print("\nchain with free entries [[1, 2], [3]], J - C*I = L(1) L(2) L(3) U:")
for j, f in enumerate(chain.factors, start=1):
    print(f"  L({j}) subdiagonal starts: {', '.join(str(v) for v in f.sub[:3])}, ...")
print(f"  U diagonal starts: {', '.join(str(v) for v in chain.upper.diag[:3])}, ...")

for j, hess in darboux_transform(chain, range(p + 1)):
    print(f"J({j}): p={hess.p}, trustworthy rows {hess.valid_rows}/{N}")
