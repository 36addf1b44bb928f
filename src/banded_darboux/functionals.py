"""Moment-vector functionals, dual sequences, and the orthogonality scan.

A linear functional on polynomials is stored as its truncated moment vector
(value on z^k for k = 0..M). The truncation bound is a hard contract:
applying a functional beyond degree M raises instead of silently reading
zeros, because multiplication by (z - C) consumes one degree and silent
extension would fabricate orthogonality.

A sequence {P_n} satisfying a (p+2)-term band recurrence is orthogonal with
respect to a vector (nu_1, .., nu_p) of functionals in the staircase sense:

    nu_r[z^k P_n] = 0   whenever k*p + r <= n,
    nu_r[z^k P_{k*p + r - 1}] != 0.

Such vectors are exactly the lower-staircase combinations of the dual
sequence, nu_i = sum_{k < i} lambda(i, k) * dual_k with lambda(i, i-1) != 0;
the lambda table is the "ladder" below.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from .banded import BandedHessenberg
from .errors import (
    DegreeExceedsMoments,
    IndexOutOfRange,
    InsufficientMoments,
    LadderViolation,
    NotMonicOrDegreeGap,
    ShapeMismatch,
)
from .exact import ScalarLike, format_rational, integer_image, rational

_ZERO = Fraction(0)


class LinearFunctional:
    """Functional on polynomials of degree <= max_degree, as moments."""

    __slots__ = ("moments",)

    def __init__(self, moments: Iterable[ScalarLike]):
        object.__setattr__(self, "moments", tuple(rational(v) for v in moments))
        if not self.moments:
            raise InsufficientMoments("a functional needs at least the degree-0 moment")

    def __setattr__(self, name, value):
        raise AttributeError("LinearFunctional is immutable")

    @property
    def max_degree(self) -> int:
        return len(self.moments) - 1

    def apply(self, q: Sequence[Fraction]) -> Fraction:
        """The value on the polynomial with coefficient tuple q."""
        if len(q) - 1 > self.max_degree:
            raise DegreeExceedsMoments(len(q) - 1, self.max_degree)
        return sum((c * m for c, m in zip(q, self.moments)), _ZERO)

    def shift_multiply(self, c: ScalarLike) -> "LinearFunctional":
        """The functional q -> self[(z - c) q]; costs one degree of budget."""
        if self.max_degree < 1:
            raise InsufficientMoments("need at least two moments to multiply by (z - c)")
        c = rational(c)
        return LinearFunctional(
            tuple(self.moments[k + 1] - c * self.moments[k] for k in range(self.max_degree))
        )

    def truncated(self, max_degree: int) -> "LinearFunctional":
        """The functional on degrees <= max_degree; itself when that is all."""
        if max_degree > self.max_degree:
            raise InsufficientMoments(
                f"cannot extend moments from {self.max_degree} to {max_degree}"
            )
        if max_degree == self.max_degree:
            return self
        return LinearFunctional(self.moments[: max_degree + 1])

    def agrees_with(self, other: "LinearFunctional") -> bool:
        """Moment-vector equality over the common degree range."""
        m = min(self.max_degree, other.max_degree)
        return self.moments[: m + 1] == other.moments[: m + 1]

    def __eq__(self, other):
        if not isinstance(other, LinearFunctional):
            return NotImplemented
        return self.moments == other.moments

    def __hash__(self):
        return hash(self.moments)

    def __repr__(self):
        return f"LinearFunctional(M={self.max_degree})"

    def to_json_dict(self) -> dict:
        return {
            "M": self.max_degree,
            "moments": [format_rational(v) for v in self.moments],
        }


class OrthogonalityVector:
    """A p-tuple of functionals over a common moment budget.

    Entries with longer budgets are truncated to the common minimum so that
    one bound governs every application.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[LinearFunctional]):
        entries = tuple(entries)
        if not entries:
            raise ShapeMismatch("an orthogonality vector needs at least one entry")
        m = min(f.max_degree for f in entries)
        object.__setattr__(
            self, "entries", tuple(f.truncated(m) for f in entries)
        )

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalityVector is immutable")

    @property
    def p(self) -> int:
        return len(self.entries)

    @property
    def max_degree(self) -> int:
        return self.entries[0].max_degree

    def entry(self, r: int) -> LinearFunctional:
        """1-based component access: entry(1) .. entry(p)."""
        if not 1 <= r <= self.p:
            raise IndexOutOfRange(f"component {r} outside 1..{self.p}")
        return self.entries[r - 1]

    def __eq__(self, other):
        if not isinstance(other, OrthogonalityVector):
            return NotImplemented
        return self.entries == other.entries

    def __hash__(self):
        return hash(self.entries)

    def __repr__(self):
        return f"OrthogonalityVector(p={self.p}, M={self.max_degree})"

    def to_json_dict(self) -> dict:
        return {"entries": [f.to_json_dict() for f in self.entries]}


class LambdaLadder:
    """Strictly lower-staircase coefficient table over a dual sequence.

    Row i (1-based, i = 1..nrows) holds lambda(i, k) for k = 0..i-1. The
    table is regular when every diagonal entry lambda(i, i-1) is nonzero.
    Entries with k >= i read as structural zeros.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Sequence[Iterable[ScalarLike]]):
        rows = tuple(tuple(rational(v) for v in row) for row in rows)
        for i, row in enumerate(rows, start=1):
            if len(row) != i:
                raise ShapeMismatch(f"ladder row {i} needs {i} values, got {len(row)}")
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("LambdaLadder is immutable")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    def value(self, i: int, k: int) -> Fraction:
        """lambda(i, k); zero for k >= i (the staircase's upper part)."""
        if not (1 <= i <= self.nrows and 0 <= k):
            raise IndexOutOfRange(f"ladder position ({i}, {k}) out of range")
        if k >= i:
            return _ZERO
        return self.rows[i - 1][k]

    def check_regular(self) -> None:
        for i, row in enumerate(self.rows, start=1):
            if row[i - 1] == 0:
                raise LadderViolation(i, i - 1, _ZERO, f"ladder diagonal ({i}, {i - 1}) is zero")

    def __eq__(self, other):
        if not isinstance(other, LambdaLadder):
            return NotImplemented
        return self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        return f"LambdaLadder(nrows={self.nrows})"


def _validate_monic_run(polys: Sequence[Sequence[Fraction]]) -> None:
    for n, poly in enumerate(polys):
        monic = bool(poly) and poly[-1] == 1
        if len(poly) != n + 1 or not monic:
            raise NotMonicOrDegreeGap(
                f"position {n} holds degree {len(poly) - 1}, monic={monic}"
            )


def dual_sequence(hess: BandedHessenberg, nmax: int) -> tuple[LinearFunctional, ...]:
    """Functionals dual_j with dual_j[P_i] = delta_{ij}, i, j = 0..nmax, for
    the characteristic sequence {P_n} of hess; each carries moments 0..nmax.

    The semi-infinite sequence satisfies z P = J P, so z^k = e_0^T J^k P and
    the moments are dual_j[z^k] = (e_0^T J^k)_j. They come from the banded
    sweep v_{k+1} = v_k J from v_0 = e_0, run on integer numerators over one
    running denominator: the rows 0..nmax-1 of J scale to integers over
    the lcm of their denominators, each step multiplies the running
    denominator by that lcm, and one gcd per step reduces the row. v_k vanishes beyond index k, so dual_j[z^k] = 0
    for k < j. Rows 0..nmax-1 must be trustworthy, as for the sequence.
    """
    if not 0 <= nmax <= hess.valid_rows:
        raise IndexOutOfRange(
            f"need rows 0..{nmax - 1} but only {hess.valid_rows} rows are trustworthy"
        )
    p = hess.p
    # bands[s][i] = a(i, i - s) * scale, zero where i < s.
    ints, scale = integer_image(
        hess.a(i, i - s) if i >= s else _ZERO for s in range(p + 1) for i in range(nmax)
    )
    bands = [ints[s * nmax:(s + 1) * nmax] for s in range(p + 1)]
    columns = [[_ZERO] * (nmax + 1) for _ in range(nmax + 1)]
    columns[0][0] = Fraction(1)
    v = [1]
    den = 1
    for k in range(nmax):
        # (v J)_m = v_{m-1} (superdiagonal) + sum_s v_{m+s} a(m+s, m).
        w = [0] + [scale * x for x in v]
        for s in range(min(p, k) + 1):
            band = bands[s]
            w[: k + 1 - s] = [x + y * b for x, y, b in zip(w, v[s:], band[s:k + 1])]
        den *= scale
        g = gcd(den, *w)
        v = [x // g for x in w]
        den //= g
        for j, x in enumerate(v):
            if x:
                columns[j][k + 1] = Fraction(x, den)
    return tuple(LinearFunctional(column) for column in columns)


def lambda_of(
    nu: OrthogonalityVector, polys: Sequence[Sequence[Fraction]]
) -> LambdaLadder:
    """Recover the ladder from nu by lambda(i, k) = nu_i[P_k].

    Also validates the staircase: nu_i[P_k] must vanish for k >= i and the
    diagonal nu_i[P_{i-1}] must not; a violation means nu is not a vector of
    staircase orthogonality for {P_n} in ladder form.
    """
    p = nu.p
    if len(polys) < p:
        raise NotMonicOrDegreeGap(f"need the first {p} polynomials, got {len(polys)}")
    _validate_monic_run(polys[:p])
    rows = []
    for i in range(1, p + 1):
        f = nu.entry(i)
        for k in range(i, p):
            value = f.apply(polys[k])
            if value != 0:
                raise LadderViolation(i, k, value, f"nu_{i}[P_{k}] = {value}, expected 0")
        diag = f.apply(polys[i - 1])
        if diag == 0:
            raise LadderViolation(i, i - 1, diag, f"nu_{i}[P_{i - 1}] = 0, expected nonzero")
        rows.append([f.apply(polys[k]) for k in range(i - 1)] + [diag])
    return LambdaLadder(rows)


def build_nu(
    ladder: LambdaLadder, duals: Sequence[LinearFunctional]
) -> OrthogonalityVector:
    """Assemble nu_i = sum_{k < i} lambda(i, k) dual_k from a regular ladder."""
    ladder.check_regular()
    p = ladder.nrows
    if len(duals) < p:
        raise ShapeMismatch(f"need {p} dual functionals, got {len(duals)}")
    m = min(f.max_degree for f in duals[:p])
    entries = []
    for i in range(1, p + 1):
        moments = [_ZERO] * (m + 1)
        for k in range(i):
            lam = ladder.value(i, k)
            if lam == 0:
                continue
            for deg in range(m + 1):
                moments[deg] += lam * duals[k].moments[deg]
        entries.append(LinearFunctional(moments))
    return OrthogonalityVector(entries)


def delta_det(ladder: LambdaLadder, j: int, m: int) -> Fraction:
    """Staircase minor of size m at offset j; the empty minor is 1.

    Matrix convention: entry(row r, col c) = lambda(j + 1 + c, r) for
    r = 0..m-1 and c = 1..m, the staircase's upper part reading as zero.
    The offset-j minors of a source ladder equal the offset-0 minors of the
    corresponding stage-j ladder (the transport factors are unit
    triangular), which the engine cross-checks.
    """
    if j < 0 or m < 0:
        raise IndexOutOfRange(f"offset {j} and size {m} must be nonnegative")
    if m == 0:
        return Fraction(1)
    if j + m + 1 > ladder.nrows:
        raise IndexOutOfRange(
            f"minor (offset {j}, size {m}) needs ladder row {j + m + 1}, have {ladder.nrows}"
        )
    return _det([[ladder.value(j + 2 + c, r) for c in range(m)] for r in range(m)])


def _det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions, given by its rows.

    Each row is scaled to integers over its own least common denominator,
    and fraction-free (Bareiss) elimination keeps every intermediate
    integral: each is a minor of the scaled matrix (Sylvester's identity),
    so the division by the previous pivot is exact. A row swap flips the
    sign.
    """
    n = len(rows)
    scale = 1
    work = []
    for row in rows:
        ints, d = integer_image(row)
        scale *= d
        work.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if not work[k][k]:
            swap = next((i for i in range(k + 1, n) if work[i][k]), None)
            if swap is None:
                return _ZERO
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot, row_k = work[k][k], work[k]
        for row_i in work[k + 1:]:
            lead = row_i[k]
            row_i[k + 1:] = [
                (x * pivot - lead * y) // prev
                for x, y in zip(row_i[k + 1:], row_k[k + 1:])
            ]
        prev = pivot
    return Fraction(sign * work[-1][-1], scale) if n else Fraction(1)


@dataclass(frozen=True)
class Witness:
    """One failed orthogonality check: kind is "zero" or "nonzero"."""

    kind: str
    r: int
    k: int
    n: int
    value: Fraction

    def to_json_dict(self) -> dict:
        return {
            "kind": self.kind,
            "r": self.r,
            "k": self.k,
            "n": self.n,
            "value": format_rational(self.value),
        }


@dataclass(frozen=True)
class OrthogonalityReport:
    """Outcome of the exhaustive staircase scan over a finite window."""

    p: int
    window: int
    zero_checks: int
    nonzero_checks: int
    failures: tuple[Witness, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "window": self.window,
            "zero_checks": self.zero_checks,
            "nonzero_checks": self.nonzero_checks,
            "passed": self.passed,
            "witnesses": [w.to_json_dict() for w in self.failures],
        }


def is_p_orthogonal(
    nu: OrthogonalityVector,
    polys: Sequence[Sequence[Fraction]],
    p: int,
    window: int,
) -> OrthogonalityReport:
    """Scan every staircase condition with indices inside the window.

    Zero conditions: nu_r[z^k P_n] = 0 for all r = 1..p, k >= 0 and
    n <= window with k*p + r <= n. Nonzero conditions: nu_r[z^k P_{kp+r-1}]
    != 0 for all k with kp + r - 1 <= window. The moment budget must cover
    every application (the caller sizes it; DegreeExceedsMoments otherwise).
    """
    if nu.p != p:
        raise ShapeMismatch(f"vector has {nu.p} entries, expected {p}")
    if len(polys) <= window:
        raise ShapeMismatch(f"need polynomials 0..{window}, got {len(polys)}")
    # nu_r[z^k P_n] = sum_i c_{n,i} m_{r,i+k}, computed as an integer dot
    # product over the denominators d_nu * d_P; Fractions only for witnesses.
    coeffs = [integer_image(polys[n]) for n in range(window + 1)]
    failures: list[Witness] = []
    zero_checks = 0
    nonzero_checks = 0
    for r in range(1, p + 1):
        f = nu.entry(r)
        moments, d_nu = integer_image(f.moments)

        def value(n: int, k: int) -> int:
            c = coeffs[n][0]
            if c and len(c) - 1 + k > f.max_degree:
                raise DegreeExceedsMoments(len(c) - 1 + k, f.max_degree)
            return sum(map(mul, c, islice(moments, k, None)))

        for n in range(window + 1):
            k = 0
            while k * p + r <= n:
                num = value(n, k)
                zero_checks += 1
                if num:
                    failures.append(Witness("zero", r, k, n, Fraction(num, d_nu * coeffs[n][1])))
                k += 1
        k = 0
        while k * p + r - 1 <= window:
            idx = k * p + r - 1
            nonzero_checks += 1
            if not value(idx, k):
                failures.append(Witness("nonzero", r, k, idx, _ZERO))
            k += 1
    return OrthogonalityReport(p, window, zero_checks, nonzero_checks, tuple(failures))
