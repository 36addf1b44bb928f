"""Walkthrough: transporting a vector of staircase orthogonality.

A random regular coefficient ladder over the dual sequence defines a vector
nu = (nu_1, .., nu_p). When its staircase minors are all nonzero, the free
entries derived from the ladder make every rotation

    nu(j) = (nu_{j+1}, .., nu_p, (z-C) nu_1, .., (z-C) nu_j)

a vector of staircase orthogonality for the rotated sequence; the engine
certifies this by exhaustive exact scans. The canonical dual vector fails
the minor hypothesis and is rejected up front, yet its full rotation
(j = p) still transports: that path needs no hypothesis.
"""

from banded_darboux import (
    HypothesisViolated,
    InstanceConfig,
    chain_from_instance,
    generate,
    is_p_orthogonal,
    moment_budget,
    run_theorem,
    shift_multiply,
    transformed_polys,
    vector,
)

p, window = 3, 12
n = max(window + p + 2, moment_budget(window, p) + 1)

# -- a generic vector passes every stage --------------------------------------

cfg = InstanceConfig(p=p, n=n, window=window, seed=2024)
built = generate(cfg)
cert = run_theorem(built.instance, vector(built, cfg.moment_budget), window)
print(f"generic ladder, p={p}, window={window}")
print(f"  minors checked: {[(j, m) for j, m, _ in cert.hypotheses]}")
print(f"  free entries  : {[list(r) for r in cert.free_entries]}")
for verdict in cert.stage_verdicts:
    print(
        f"  rotation j={verdict.j}: passed={verdict.passed} "
        f"({verdict.report.zero_checks} zero + {verdict.report.nonzero_checks} nonzero checks)"
    )
print(f"  certificate passed: {cert.passed}")

# -- the canonical vector is rejected early ------------------------------------

canon = InstanceConfig(p=p, n=n, window=window, seed=2024, nu_source="canonical")
built_canon = generate(canon)
nu_canon = vector(built_canon, canon.moment_budget)
try:
    run_theorem(built_canon.instance, nu_canon, window)
except HypothesisViolated as err:
    print(f"\ncanonical vector: rejected, minor (stage {err.stage}, size {err.size}) = 0")

# -- but its full rotation still transports ------------------------------------

zeros = [[0] * (p - j) for j in range(1, p)]  # free_rows[j-1]: L(j)'s first p-j entries
chain = chain_from_instance(built_canon.instance, zeros, built_canon.instance.n)
[(_, seq)] = transformed_polys(chain, window, [p])
# nu(p) = ((z-C) nu_1, .., (z-C) nu_p); each nu_i is its moment tuple.
rotated = [shift_multiply(f, built_canon.instance.shift) for f in nu_canon]
print(
    "full rotation of the canonical vector, arbitrary free entries:",
    "passed" if is_p_orthogonal(rotated, seq, p, window).passed else "failed",
)
