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
    bidiagonal_chain_factor,
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
L, U, _ = shifted_lu(inst, inst.n)
print(f"random p={p} instance, shift 1/2; L has {L.w} subdiagonals")

# -- two different prescriptions over the same L ------------------------------

for label, rows in [
    ("zeros", [[0, 0], [0]]),
    ("ones ", [[1, 1], [1]]),
]:
    factors = bidiagonal_chain_factor(L, rows)
    print(f"\nfree entries {label}:")
    for f in factors:
        head = ", ".join(str(v) for v in f.sub[:4])
        print(f"  L({f.index}) subdiagonal starts: {head}, ...")
    assert reduce(multiply_window, factors) == L
    print("  product reconstructs L exactly")

# -- every rotation is again banded Hessenberg -------------------------------

chain = chain_from_instance(inst, [[1, 2], [3]], inst.n)
print("\nchain with free entries [[1, 2], [3]], J - C*I = L(1) L(2) L(3) U:")
for f in chain.factors:
    print(f"  L({f.index}) subdiagonal starts: {', '.join(str(v) for v in f.sub[:3])}, ...")
print(f"  U diagonal starts: {', '.join(str(v) for v in chain.upper.diag[:3])}, ...")

for j, hess in darboux_transform(chain, range(p + 1)).items():
    print(f"J({j}): p={hess.p}, trustworthy rows {hess.valid_rows}/{N}")
