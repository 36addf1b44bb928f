"""Functionals as moment tuples, dual sequences, and the orthogonality scan.

A linear functional on polynomials is its truncated moment tuple
(m_0, .., m_M), m_k its value on z^k, and a vector (nu_1, .., nu_p) is a
p-tuple of such tuples. The truncation bound is a hard contract: applying a
functional beyond degree M raises instead of silently reading zeros,
because multiplication by (z - C) consumes one degree (`shift_multiply`)
and silent extension would fabricate orthogonality. On the wire a vector is
{"entries": [{"M": M, "moments": [...]}, ...]} (`nu_to_json_dict`).

A sequence {P_n} satisfying a (p+2)-term band recurrence is orthogonal with
respect to a vector (nu_1, .., nu_p) of functionals in the staircase sense:

    nu_r[z^k P_n] = 0   whenever k*p + r <= n,
    nu_r[z^k P_{k*p + r - 1}] != 0.

Such vectors are exactly the lower-staircase combinations of the dual
sequence, nu_i = sum_{k < i} lambda(i, k) * dual_k with lambda(i, i-1) != 0;
the lambda table is the "ladder" below.

The scan (`is_p_orthogonal`) decides nu_r's zero conditions inside a window
W from a certificate of about W + W/p of them: the column k = 0,
nu_r[P_n] = 0 for r <= n <= W, and the window's last row,
nu_r[z^k P_W] = 0 for 1 <= k <= (W - r) // p. They imply every other zero
condition by induction on k. The recurrence
z P_n = P_{n+1} + sum_{s=0..p} a(n, n-s) P_{n-s} gives, for k >= 1 and
k*p + r <= n <= W - 1,

    nu_r[z^k P_n] = nu_r[z^(k-1) P_{n+1}]
                    + sum_{s=0..p} a(n, n-s) nu_r[z^(k-1) P_{n-s}],

and every term on the right is a zero condition of column k - 1 inside the
window; row n = W is the last row itself. These are the mixed moments of
Chebyshev's algorithm (W. Gautschi, Orthogonal Polynomials: Computation and
Approximation, OUP 2004, ch. 2). The argument needs only that P_0 .. P_W
satisfy some (p'+2)-term recurrence with p' <= p, which every caller's
sequence does: `characteristic_polys` builds it from a `BandedHessenberg`
with p subdiagonals.

A sequence comes as `characteristic_polys` returns it, P_n as the integer
row (nums, d_n) with coefficients nums[i] / d_n. The scan and `lambda_of`
read the rows as they are: each value nu_r[z^k P_n] is an integer dot
product of nums with nu_r's moments scaled to integers over d_nu, and a
Fraction over d_nu * d_n is formed only for a value that is returned.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .banded import BandedHessenberg
from .errors import (
    DegreeExceedsMoments,
    IndexOutOfRange,
    InsufficientMoments,
    LadderViolation,
    NotMonicOrDegreeGap,
    ShapeMismatch,
)
from .exact import IntegerRow, ScalarLike, format_rational, integer_image, rational

_ZERO = Fraction(0)

# A functional's moments m_0 .. m_M; a vector is a tuple of these.
Moments = tuple[Fraction, ...]


def shift_multiply(moments: Sequence[Fraction], c: ScalarLike) -> Moments:
    """The moments of q -> nu[(z - c) q]: m_{k+1} - c m_k, one degree fewer."""
    if len(moments) < 2:
        raise InsufficientMoments("need at least two moments to multiply by (z - c)")
    c = rational(c)
    if not c:
        return tuple(map(rational, moments[1:]))
    return tuple(b - c * a for a, b in zip(moments, moments[1:]))


def nu_to_json_dict(nu: Sequence[Sequence[Fraction]]) -> dict:
    """The wire layout of a vector: each entry's degree bound and moments."""
    return {"entries": [{"M": len(f) - 1, "moments": list(map(format_rational, f))} for f in nu]}


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


def _validate_monic_run(polys: Sequence[IntegerRow]) -> None:
    for n, (nums, d) in enumerate(polys):
        monic = bool(nums) and nums[-1] == d
        if len(nums) != n + 1 or not monic:
            raise NotMonicOrDegreeGap(
                f"position {n} holds degree {len(nums) - 1}, monic={monic}"
            )


def dual_sequence(hess: BandedHessenberg, nmax: int) -> tuple[Moments, ...]:
    """Functionals dual_j with dual_j[P_i] = delta_{ij}, i, j = 0..nmax, for
    the characteristic sequence {P_n} of hess, as moment tuples 0..nmax.

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
    return tuple(map(tuple, columns))


def lambda_of(nu: Sequence[Sequence[Fraction]], polys: Sequence[IntegerRow]) -> LambdaLadder:
    """Recover the ladder from nu by lambda(i, k) = nu_i[P_k], reading the
    integer rows (nums, d_k) of P_0 .. P_{p-1} (`characteristic_polys`).

    nu_i[P_k] = Fraction(sum_m nums[m] * mu[m], d_k * d_nu), where nu_i's
    first p moments are mu[m] / d_nu (`exact.integer_image`). Also
    validates the staircase: nu_i[P_k] must vanish for k >= i and the
    diagonal nu_i[P_{i-1}] must not; a violation means nu is not a vector of
    staircase orthogonality for {P_n} in ladder form.
    """
    p = len(nu)
    if len(polys) < p:
        raise NotMonicOrDegreeGap(f"need the first {p} polynomials, got {len(polys)}")
    _validate_monic_run(polys[:p])
    rows = []
    for i, f in enumerate(nu, start=1):
        # P_0 .. P_{p-1} read moments 0 .. p-1 only.
        moments, d_nu = integer_image(f[:p])

        def value(k: int) -> Fraction:
            nums, d = polys[k]
            if len(nums) > len(f):
                raise DegreeExceedsMoments(len(nums) - 1, len(f) - 1)
            return Fraction(sum(map(mul, nums, moments)), d_nu * d)

        for k in range(i, p):
            v = value(k)
            if v != 0:
                raise LadderViolation(i, k, v, f"nu_{i}[P_{k}] = {v}, expected 0")
        diag = value(i - 1)
        if diag == 0:
            raise LadderViolation(i, i - 1, diag, f"nu_{i}[P_{i - 1}] = 0, expected nonzero")
        rows.append([value(k) for k in range(i - 1)] + [diag])
    return LambdaLadder(rows)


def build_nu(
    ladder: LambdaLadder, duals: Sequence[Sequence[Fraction]]
) -> tuple[Moments, ...]:
    """Assemble nu_i = sum_{k < i} lambda(i, k) dual_k from a regular ladder;
    every entry carries the moments all of dual_0 .. dual_{p-1} carry."""
    ladder.check_regular()
    p = ladder.nrows
    if not 1 <= p <= len(duals):
        raise ShapeMismatch(f"a vector needs 1 to {len(duals)} entries, the ladder has {p} rows")
    m = min(len(f) for f in duals[:p])
    entries = []
    for row in ladder.rows:
        moments = [_ZERO] * m
        for lam, dual in zip(row, duals):
            if lam == 0:
                continue
            for deg in range(m):
                moments[deg] += lam * dual[deg]
        entries.append(tuple(moments))
    return tuple(entries)


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


class Witness(NamedTuple):
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


class OrthogonalityReport(NamedTuple):
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
    nu: Sequence[Sequence[Fraction]],
    polys: Sequence[IntegerRow],
    p: int,
    window: int,
) -> OrthogonalityReport:
    """Decide every staircase condition with indices inside the window.

    Zero conditions: nu_r[z^k P_n] = 0 for all r = 1..p, k >= 0 and
    n <= window with k*p + r <= n. Nonzero conditions: nu_r[z^k P_{kp+r-1}]
    != 0 for all k with kp + r - 1 <= window. The moment budget must cover
    every application (the caller sizes it; DegreeExceedsMoments otherwise).

    polys are integer rows (nums, d_n), as `characteristic_polys` gives
    them. They must satisfy a (p'+2)-term recurrence with p' <= p, as the
    characteristic sequence of a p-banded Hessenberg matrix does: then
    nu_r's zero conditions all hold when its certificate does (module
    docstring), the column k = 0 and the last row n = window, and the scan
    counts them without computing the rest. Where the certificate fails, or
    the budget does not reach degree window + (window - r) // p, the top of
    the zero conditions, every zero condition of nu_r is computed, in order,
    so the witnesses and the budget error are those of the whole scan.
    Every nonzero condition is computed.
    """
    if len(nu) != p:
        raise ShapeMismatch(f"vector has {len(nu)} entries, expected {p}")
    if len(polys) <= window:
        raise ShapeMismatch(f"need polynomials 0..{window}, got {len(polys)}")
    # nu_r[z^k P_n] = sum_i c_{n,i} m_{r,i+k}, computed as an integer dot
    # product over the denominators d_nu * d_n; Fractions only for witnesses.
    failures: list[Witness] = []
    zero_checks = 0
    nonzero_checks = 0
    for r, f in enumerate(nu, start=1):
        moments, d_nu = integer_image(f)

        def value(n: int, k: int) -> int:
            c = polys[n][0]
            if c and len(c) + k > len(moments):
                raise DegreeExceedsMoments(len(c) - 1 + k, len(moments) - 1)
            return sum(map(mul, c, islice(moments, k, None)))

        # The certificate: column k = 0 and the window's last row, read
        # where the budget covers the whole scan (module docstring).
        top = (window - r) // p
        if (
            window + top < len(moments)
            and not any(value(n, 0) for n in range(r, window + 1))
            and not any(value(window, k) for k in range(1, top + 1))
        ):
            zero_checks += sum((n - r) // p + 1 for n in range(r, window + 1))
        else:
            for n in range(window + 1):
                k = 0
                while k * p + r <= n:
                    num = value(n, k)
                    zero_checks += 1
                    if num:
                        failures.append(
                            Witness("zero", r, k, n, Fraction(num, d_nu * polys[n][1]))
                        )
                    k += 1
        k = 0
        while k * p + r - 1 <= window:
            idx = k * p + r - 1
            nonzero_checks += 1
            if not value(idx, k):
                failures.append(Witness("nonzero", r, k, idx, _ZERO))
            k += 1
    return OrthogonalityReport(p, window, zero_checks, nonzero_checks, tuple(failures))
