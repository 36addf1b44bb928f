"""End-to-end transport of orthogonality vectors through the factor chain.

Given an admissible shifted instance (J, C) and a vector nu of staircase
orthogonality for its characteristic sequence, the engine

  1. recovers nu's coefficient ladder over the dual sequence,
  2. checks the staircase-minor hypotheses (all offset-j minors nonzero),
  3. derives the chain's free entries stage by stage from ladder data
     (free entry of factor j+1 at subdiagonal row m+1 equals
     lambda_j(m+2, m+1) * Delta_j(m) / Delta_j(m+1)),
  4. builds the factor chain and, for each transform index j, forms the
     rotated matrix, its polynomial sequence, and the rotated vector

         nu(j) = (nu_{j+1}, .., nu_p, (z-C) nu_1, .., (z-C) nu_j),

     the window j .. j+p-1 of (nu_1, .., nu_p, (z-C) nu_1, .., (z-C) nu_p),
     so each (z-C) nu_i is formed once (`shift_multiply`) and nu(j+1) is
     nu(j) moved on by one entry: the payload's "structure_ok" is true;
  5. certifies by exhaustive scan that nu(j) is a vector of staircase
     orthogonality for the transformed sequence.

A functional is its moment tuple and nu a p-tuple of them, as in
`functionals`; the certificate's fingerprint hashes nu's wire layout.

Steps 2 and 3 are `_staging`. `generate` stages its ladder once, and the
chain commands (factorize, transform, polys) read that staging;
`run_theorem` certifies any nu, so it recovers the ladder and stages it.

Every stage is audited redundantly: the staged minors are recomputed from
the source ladder and must agree exactly; the unit-triangular staircase
transport identity is asserted as matrices, not just determinants.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import ceil
from typing import NamedTuple, Optional, Sequence

from .banded import characteristic_polys
from .errors import (
    ConfigError,
    ConsistencyFailure,
    HypothesisViolated,
    InternalCheckError,
)
from .exact import ScalarLike, format_rational, rational
from .factorization import (
    ShiftedInstance,
    chain_from_instance,
    peel_stages,
    shifted_lu,
    transformed_polys,
)
from .functionals import (
    LambdaLadder,
    OrthogonalityReport,
    delta_det,
    is_p_orthogonal,
    lambda_of,
    nu_to_json_dict,
    shift_multiply,
)

_ZERO = Fraction(0)


def moment_budget(window: int, p: int) -> int:
    """Moment degree needed to scan a window: W + ceil(W/p) + 1.

    The scan applies nu_r to z^k P_n with k <= W/p and n <= W, and the
    rotated vectors consume one extra degree for the (z - C) factor.
    """
    return window + ceil(window / p) + 1


def stage_ladder(ladder: LambdaLadder, factor_sub: Sequence[ScalarLike]) -> LambdaLadder:
    """Transport a stage-j ladder through factor j+1.

    For k = 1..nrows-1, the new row k solves the leading k x k unit lower
    bidiagonal system (subdiagonal = factor_sub) against the old row k+1
    truncated to k entries; the dropped last equation

        old(k+1, k) = factor_sub[k-1] * new(k, k-1)

    must hold identically, else the prescribed entries are inconsistent
    with the ladder (ConsistencyFailure).
    """
    rows = ladder.nrows
    new_rows: list[list[Fraction]] = []
    subs = [rational(v) for v in factor_sub]
    if len(subs) < rows - 1:
        raise ConsistencyFailure(
            rows - 1, f"need {rows - 1} leading subdiagonal entries, got {len(subs)}"
        )
    for k in range(1, rows):
        rhs = [ladder.value(k + 1, s) for s in range(k)]
        x: list[Fraction] = []
        for s in range(k):
            value = rhs[s]
            if s >= 1:
                value -= subs[s - 1] * x[s - 1]
            x.append(value)
        expected_last = subs[k - 1] * x[k - 1]
        if ladder.value(k + 1, k) != expected_last:
            raise ConsistencyFailure(k)
        new_rows.append(x)
    return LambdaLadder(new_rows)


class StagingResult(NamedTuple):
    """Stage ladders, per-stage minors and free entries.

    `stage_ladders[j]` is the stage-j ladder; `violation` is the (stage,
    size) of the first zero staged minor, or None."""

    stage_ladders: tuple[LambdaLadder, ...]
    free_rows: tuple[tuple[Fraction, ...], ...]
    deltas: tuple[tuple[int, int, Fraction], ...]
    violation: Optional[tuple[int, int]]


def _staging(ladder: LambdaLadder, p: int) -> StagingResult:
    """Run the stage recursion, auditing each stage-j minor, j >= 1, against
    the source's offset-j minor.

    Stops (without raising) at the first zero staged minor, recording it;
    the stages completed so far still determine factors 1..completed.
    """
    stage_ladders = [ladder]
    free_rows: list[tuple[Fraction, ...]] = []
    deltas: list[tuple[int, int, Fraction]] = []
    cur = ladder
    for j in range(p - 1):
        staged = [delta_det(cur, 0, m) for m in range(p - j)]
        for m in range(1, p - j):
            # At j = 0 the staged ladder is the source: there is one route.
            if j:
                direct = delta_det(ladder, j, m)
                if staged[m] != direct:
                    raise InternalCheckError(
                        f"minor (offset {j}, size {m}) differs between routes: "
                        f"{staged[m]} vs {direct}"
                    )
            deltas.append((j, m, staged[m]))
        zero_m = next((m for m in range(1, p - j) if staged[m] == 0), None)
        if zero_m is not None:
            return StagingResult(
                tuple(stage_ladders), tuple(free_rows), tuple(deltas), (j, zero_m)
            )
        row = tuple(
            cur.value(m + 2, m + 1) * staged[m] / staged[m + 1]
            for m in range(p - j - 1)
        )
        free_rows.append(row)
        cur = stage_ladder(cur, row)
        stage_ladders.append(cur)
    return StagingResult(tuple(stage_ladders), tuple(free_rows), tuple(deltas), None)


def staircase_transport_identity(
    factors: Sequence, stage_ladders: Sequence[LambdaLadder], j: int, s: int
) -> bool:
    """Exact matrix check: (L(1)_s ... L(j)_s) * stair_j(s) == stair_0(s).

    stair_j(s) is the s x s matrix with entry (r, c) = lambda_j(c + 2, r)
    built from the stage-j ladder, and stair_0(s) the offset-j slab of the
    source ladder. L(k)_s is the leading s x s block of L(k). Both routes
    to the hypothesis minors follow from this by taking determinants (the
    left factors are unit triangular).
    """
    stage, source = stage_ladders[j], stage_ladders[0]
    rows = [[stage.value(c + 2, r) for c in range(s)] for r in range(s)]
    # L(k)_s adds its entry (r, r - 1) times row r - 1 to row r; applied
    # for k = j down to 1, each from the bottom row up.
    for factor in reversed(factors[:j]):
        for r in range(s - 1, 0, -1):
            sub = factor.sub_at_row(r)
            rows[r] = [a + sub * b for a, b in zip(rows[r], rows[r - 1])]
    return rows == [[source.value(j + 2 + c, r) for c in range(s)] for r in range(s)]


class StageVerdict(NamedTuple):
    """Orthogonality outcome for one transform index."""

    j: int
    report: OrthogonalityReport

    @property
    def passed(self) -> bool:
        return self.report.passed

    def to_json_dict(self) -> dict:
        return {"j": self.j, **self.report.to_json_dict()}


class PartialFactorization(NamedTuple):
    """What exists when a staged minor vanishes at stage >= 1.

    The chain stops after `stages` bidiagonal factors; the remainder is unit
    lower triangular with p - stages bands and, with U, still reconstructs
    J - C*I exactly. No completion is attempted beyond this point.
    """

    stages: int
    violated: tuple[int, int]
    factor_subs: tuple[tuple[str, ...], ...]
    remainder_bands: int

    def to_json_dict(self) -> dict:
        return {
            "stages": self.stages,
            "violated": {"stage": self.violated[0], "size": self.violated[1]},
            "factors": [list(sub) for sub in self.factor_subs],
            "remainder_bands": self.remainder_bands,
        }


class TheoremCertificate(NamedTuple):
    """Aggregated evidence for one engine run; passed means every box held."""

    fingerprint: str
    p: int
    n: int
    shift: str
    window: int
    moment_budget: int
    hypotheses: tuple[tuple[int, int, str], ...]
    free_entries: tuple[tuple[str, ...], ...]
    stage_verdicts: tuple[StageVerdict, ...]
    transport_checks: tuple[tuple[int, int, bool], ...]
    partial: Optional[PartialFactorization] = None

    @property
    def passed(self) -> bool:
        return (
            self.partial is None
            and all(v.passed for v in self.stage_verdicts)
            and all(ok for _, _, ok in self.transport_checks)
        )

    def to_json_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "p": self.p,
            "N": self.n,
            "C": self.shift,
            "window": self.window,
            "moment_budget": self.moment_budget,
            "hypotheses": [
                {"stage": j, "size": m, "value": v} for j, m, v in self.hypotheses
            ],
            "free_entries": [list(row) for row in self.free_entries],
            "transport_checks": [
                {"stage": j, "size": s, "ok": ok} for j, s, ok in self.transport_checks
            ],
            "structure_ok": True,  # each nu(j) is a window of one list
            "stages": [v.to_json_dict() for v in self.stage_verdicts],
            "partial": None if self.partial is None else self.partial.to_json_dict(),
            "passed": self.passed,
        }


def _fingerprint(inst: ShiftedInstance, nu: Sequence[Sequence[Fraction]], window: int) -> str:
    payload = json.dumps(
        {
            "J": inst.J.to_json_dict(),
            "C": format_rational(inst.shift),
            "nu": nu_to_json_dict(nu),
            "window": window,
        },
        sort_keys=True,
        default=list,  # J's bands are lazy maps
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def run_theorem(
    inst: ShiftedInstance, nu: Sequence[Sequence[Fraction]], window: int
) -> TheoremCertificate:
    """Full pipeline; see the module docstring.

    Raises HypothesisViolated when the very first stage's minors already
    vanish (nothing to build); returns a non-passing partial certificate
    when a later stage's minor vanishes (the factors built so far are
    reported, the chain is not completed).
    """
    p, n, c = inst.p, inst.n, inst.shift
    budget = moment_budget(window, p)
    if window + p + 1 > n:
        raise ConfigError(f"window {window} needs truncation > {window + p + 1}, have {n}")
    if budget > n:
        raise ConfigError(f"moment budget {budget} exceeds truncation order {n}")
    max_degree = min(map(len, nu), default=0) - 1
    if max_degree < budget:
        raise ConfigError(
            f"vector carries moments to degree {max_degree}, budget needs {budget}"
        )

    source_polys = characteristic_polys(inst.J, p)
    ladder = lambda_of(nu, source_polys)
    fingerprint = _fingerprint(inst, nu, window)

    staging = _staging(ladder, p)
    hypotheses = tuple(
        (j, m, format_rational(v)) for j, m, v in staging.deltas
    )
    free_fmt = tuple(
        tuple(format_rational(v) for v in row) for row in staging.free_rows
    )

    partial = None
    verdicts: list[StageVerdict] = []
    transport_checks: list[tuple[int, int, bool]] = []
    if staging.violation is not None:
        stage, size = staging.violation
        if stage == 0:
            raise HypothesisViolated(stage, size, _ZERO)
        L, _u, _tail = shifted_lu(inst, n)
        factors, _ = peel_stages(L, staging.free_rows, stage)
        partial = PartialFactorization(
            stages=stage,
            violated=(stage, size),
            factor_subs=tuple(
                tuple(format_rational(v) for v in f.sub) for f in factors
            ),
            remainder_bands=p - stage,
        )
    else:
        # The rotations read the leading window + 1 rows and the transport
        # checks s x s leading blocks with s <= p - 2.
        chain = chain_from_instance(inst, staging.free_rows, max(window + 1, p))
        for j in range(p):
            for s in range(1, p - j):
                ok = staircase_transport_identity(chain.factors, staging.stage_ladders, j, s)
                transport_checks.append((j, s, ok))

        # nu(j) is the window j .. j+p-1 of `turned`: nu's entries cut to
        # the moved entries' budget, then the moved entries, each formed once.
        turned = [f[:-1] for f in nu] + [shift_multiply(f, c) for f in nu]
        for j, polys_j in transformed_polys(chain, window, range(1, p + 1)):
            nu_j = turned[j : j + p]
            verdicts.append(StageVerdict(j, is_p_orthogonal(nu_j, polys_j, p, window)))

    return TheoremCertificate(
        fingerprint=fingerprint,
        p=p,
        n=n,
        shift=format_rational(c),
        window=window,
        moment_budget=budget,
        hypotheses=hypotheses,
        free_entries=free_fmt,
        stage_verdicts=tuple(verdicts),
        transport_checks=tuple(transport_checks),
        partial=partial,
    )
