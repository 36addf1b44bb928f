"""Banded truncations of semi-infinite matrices, with safe-window tracking.

All matrices here are N x N leading truncations of semi-infinite banded
matrices. A product of truncations only agrees with the truncation of the
(infinite) product on its leading rows: row i needs columns up to
i + upper(A) of A, so every product carries a `valid_rows` count. Assertions
about "the" matrix are only ever made on rows < valid_rows; entries in later
rows are stored but unspecified.

Index conventions (0-based throughout):
  * BandedHessenberg J: entries a(i, m) for max(0, i - p) <= m <= i plus a
    stored unit superdiagonal.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain as chain_iter
from math import gcd, lcm
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import IndexOutOfRange, SizeMismatch
from .exact import ScalarLike, format_rational, parse_rational, rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _coerce_band(values: Iterable[ScalarLike], n: int, offset: int) -> tuple[Fraction, ...]:
    """Row-indexed band storage: slot i holds entry (i, i+offset).

    Slots whose column falls outside the matrix must hold zero.
    """
    band = [rational(v) for v in values]
    if len(band) != n:
        raise SizeMismatch(f"band {offset} has {len(band)} slots, expected {n}")
    for i, v in enumerate(band):
        if not (0 <= i + offset < n) and v != 0:
            raise SizeMismatch(f"band {offset} has a value outside the matrix at row {i}")
    return tuple(band)


def _unit_band(n: int, offset: int) -> tuple[Fraction, ...]:
    """Band `offset` holding 1 wherever its column lies inside the matrix."""
    return tuple(_ONE if 0 <= i + offset < n else _ZERO for i in range(n))


class BandMatrix:
    """Banded square matrix plus its trustworthy-row count.

    The one store for every banded type: each band from -lower to upper is
    held explicitly, structural unit bands included. The subclasses below
    are constructors that fill those in, plus the accessors of their own
    parameters. Equality and hashing read n and the entries only.
    """

    __slots__ = ("n", "lower", "upper", "_bands", "valid_rows")

    def __init__(
        self,
        n: int,
        lower: int,
        upper: int,
        bands: Mapping[int, Iterable[ScalarLike]],
        valid_rows: int | None = None,
    ):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        stored = {}
        for d in range(-lower, upper + 1):
            values = bands.get(d)
            if values is None:
                stored[d] = (_ZERO,) * n
            else:
                stored[d] = _coerce_band(values, n, d)
        object.__setattr__(self, "_bands", stored)
        object.__setattr__(self, "valid_rows", n if valid_rows is None else min(valid_rows, n))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def entry(self, i: int, j: int) -> Fraction:
        if not (0 <= i < self.n and 0 <= j < self.n):
            raise IndexOutOfRange(f"({i}, {j}) outside {self.n}x{self.n}")
        d = j - i
        if -self.lower <= d <= self.upper:
            return self._bands[d][i]
        return _ZERO

    def band(self, offset: int) -> tuple[Fraction, ...]:
        return self._bands[offset]

    def _key(self) -> tuple:
        """n and the bands that are not identically zero: equal keys hold
        exactly when every entry agrees, whatever the stored widths."""
        return (self.n, tuple((d, b) for d, b in sorted(self._bands.items()) if any(b)))

    def __eq__(self, other):
        if not isinstance(other, BandMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (
            f"{type(self).__name__}(n={self.n}, lower={self.lower}, upper={self.upper}, "
            f"valid_rows={self.valid_rows})"
        )


def multiply_window(a: BandMatrix, b: BandMatrix) -> BandMatrix:
    """Banded product with the cumulative safe-window bound.

    Row i of the truncated product uses columns of A up to i + upper(A), so
    it matches the infinite product iff those columns exist and the source
    rows are themselves trustworthy:

        valid_rows(AB) = min(valid_rows(A), valid_rows(B) - upper(A))

    The upper width is never clipped to the truncation: a band that falls
    outside it still counts toward the window of the next product.
    """
    if a.n != b.n:
        raise SizeMismatch(f"{a.n} vs {b.n}")
    n = a.n
    lower = min(a.lower + b.lower, n - 1) if n else 0
    upper = a.upper + b.upper
    bands: dict[int, list[Fraction]] = {d: [_ZERO] * n for d in range(-lower, upper + 1)}
    for d in range(-lower, upper + 1):
        row_band = bands[d]
        for i in range(n):
            j = i + d
            if not (0 <= j < n):
                continue
            k_lo = max(0, i - a.lower, j - b.upper)
            k_hi = min(n - 1, i + a.upper, j + b.lower)
            acc = _ZERO
            for k in range(k_lo, k_hi + 1):
                av = a.entry(i, k)
                if av != 0:
                    acc += av * b.entry(k, j)
            row_band[i] = acc
    valid = max(0, min(a.valid_rows, b.valid_rows - a.upper))
    return BandMatrix(n, lower, upper, bands, valid)


class BandedHessenberg(BandMatrix):
    """(p+2)-banded lower-Hessenberg truncation with unit superdiagonal.

    `bands` gives the p subdiagonals and the diagonal; the superdiagonal is
    the structural constant 1. Rows >= valid_rows carry unspecified values
    (they arise from windowed products).
    """

    __slots__ = ()

    def __init__(
        self,
        p: int,
        n: int,
        bands: Mapping[int, Iterable[ScalarLike]],
        valid_rows: int | None = None,
    ):
        if p < 1:
            raise IndexOutOfRange(f"band parameter must be >= 1, got {p}")
        super().__init__(n, p, 1, {**bands, 1: _unit_band(n, 1)}, valid_rows)

    @property
    def p(self) -> int:
        return self.lower

    def a(self, i: int, m: int) -> Fraction:
        """In-band recurrence coefficient a(i, m), max(0, i-p) <= m <= i."""
        if not (0 <= i < self.n and max(0, i - self.p) <= m <= i):
            raise IndexOutOfRange(f"a({i}, {m}) outside the band of row {i}")
        return self._bands[m - i][i]

    @classmethod
    def from_band_matrix(cls, bm: BandMatrix, p: int, shift: Fraction) -> "BandedHessenberg":
        """Reinterpret shift*I + bm, bm a windowed product, as a Hessenberg
        truncation; the shift is added to the diagonal as it is read, and a
        zero shift keeps bm's diagonal as it is.

        Checks the structure on trustworthy rows: nothing above the
        superdiagonal, nothing below band -p, and a unit superdiagonal.
        """
        for d in range(2, bm.upper + 1):
            for i in range(min(bm.valid_rows, bm.n - d)):
                if bm.band(d)[i] != 0:
                    raise SizeMismatch(f"entry ({i}, {i + d}) above the superdiagonal is nonzero")
        for d in range(p + 1, bm.lower + 1):
            for i in range(d, min(bm.valid_rows, bm.n)):
                if bm.band(-d)[i] != 0:
                    raise SizeMismatch(f"entry ({i}, {i - d}) below band -{p} is nonzero")
        if bm.upper == 0 and bm.n > 1 and bm.valid_rows > 0:
            raise SizeMismatch("source has no superdiagonal at all")
        if bm.upper >= 1:
            for i in range(min(bm.valid_rows, bm.n - 1)):
                if bm.band(1)[i] != 1:
                    raise SizeMismatch(f"superdiagonal entry ({i}, {i + 1}) is {bm.band(1)[i]}, not 1")
        bands = {d: bm.band(d) for d in range(-min(p, bm.lower), 0)}
        bands[0] = [v + shift for v in bm.band(0)] if shift else bm.band(0)
        return cls(p, bm.n, bands, bm.valid_rows)

    def printed_values(self) -> Iterator[Fraction]:
        """Every value to_json_dict() prints (exact.check_printable reads them)."""
        return chain_iter.from_iterable(self._bands[-d][d:] for d in range(self.p + 1))

    def to_json_dict(self) -> dict:
        """The JSON layout. Each band is a lazy `map` of format_rational,
        formatted as it is read and read once (see cli._chunks)."""
        return {
            "p": self.p,
            "N": self.n,
            "bands": {
                str(-d): map(format_rational, self._bands[-d][d:]) for d in range(self.p + 1)
            },
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "BandedHessenberg":
        p = int(data["p"])
        n = int(data["N"])
        bands = {}
        for d in range(0, p + 1):
            listed = data["bands"].get(str(-d))
            if listed is None or len(listed) != n - d:
                raise SizeMismatch(f"band {-d} missing or mis-sized in JSON matrix")
            bands[-d] = tuple([_ZERO] * d + [parse_rational(v) for v in listed])
        return cls(p, n, bands)


class LowerBidiagonalUnit(BandMatrix):
    """Unit lower bidiagonal factor; its position in a chain is its label."""

    __slots__ = ()

    def __init__(self, n: int, sub: Iterable[ScalarLike]):
        super().__init__(n, 1, 0, {0: _unit_band(n, 0), -1: (_ZERO, *sub)})

    @property
    def sub(self) -> tuple[Fraction, ...]:
        """Subdiagonal entries (r, r-1), rows r = 1..n-1."""
        return self._bands[-1][1:]

    def sub_at_row(self, r: int) -> Fraction:
        """Subdiagonal entry at (r, r-1), rows r = 1..n-1."""
        if not 1 <= r <= self.n - 1:
            raise IndexOutOfRange(f"row {r} has no subdiagonal entry")
        return self._bands[-1][r]


class UpperBidiagonal(BandMatrix):
    """Upper bidiagonal with the given diagonal and a unit superdiagonal."""

    __slots__ = ()

    def __init__(self, n: int, diag: Iterable[ScalarLike]):
        super().__init__(n, 0, 1, {0: diag, 1: _unit_band(n, 1)})

    @property
    def diag(self) -> tuple[Fraction, ...]:
        return self._bands[0]


class BidiagonalChain:
    """Ordered factorization data: J - C*I = L(1) ... L(p) U.

    Holds the p unit lower bidiagonal factors, the upper bidiagonal U, and
    the shift C.
    """

    __slots__ = ("p", "n", "shift", "factors", "upper")

    def __init__(
        self,
        p: int,
        n: int,
        shift: ScalarLike,
        factors: Sequence[LowerBidiagonalUnit],
        upper: UpperBidiagonal,
    ):
        factors = tuple(factors)
        if len(factors) != p:
            raise SizeMismatch(f"need {p} factors, got {len(factors)}")
        if any(factor.n != n for factor in factors):
            raise SizeMismatch("factor size differs from chain size")
        if upper.n != n:
            raise SizeMismatch("upper factor size differs from chain size")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "shift", rational(shift))
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "upper", upper)

    def __setattr__(self, name, value):
        raise AttributeError("BidiagonalChain is immutable")

    def leading(self, m: int) -> "BidiagonalChain":
        """The chain of the leading m x m block, 1 <= m <= n, same shift.

        Keeps each factor's first m-1 subdiagonal entries and U's first m
        diagonal entries. A windowed product of these factors agrees with
        the product of the full chain on its own `valid_rows`.
        """
        if not 1 <= m <= self.n:
            raise IndexOutOfRange(f"leading block {m} outside 1..{self.n}")
        factors = [LowerBidiagonalUnit(m, f.sub[: m - 1]) for f in self.factors]
        return BidiagonalChain(
            self.p, m, self.shift, factors, UpperBidiagonal(m, self.upper.diag[:m])
        )

    def printed_values(self) -> Iterator[Fraction]:
        """Every value to_json_dict() prints (exact.check_printable reads them)."""
        return chain_iter((self.shift,), *(f.sub for f in self.factors), self.upper.diag)

    def to_json_dict(self) -> dict:
        """The JSON layout. Each value list is a lazy `map` of
        format_rational, formatted as it is read and read once (see
        cli._chunks)."""
        return {
            "p": self.p,
            "N": self.n,
            "C": format_rational(self.shift),
            "factors": [
                {"j": j, "sub": map(format_rational, f.sub)}
                for j, f in enumerate(self.factors, start=1)
            ],
            "U": {"diag": map(format_rational, self.upper.diag)},
        }

    def __repr__(self):
        return f"BidiagonalChain(p={self.p}, n={self.n}, shift={self.shift})"


def recurrence_values(hess: BandedHessenberg, z: ScalarLike, nmax: int) -> list[int]:
    """Numerators of the values P_0(z) .. P_nmax(z) of the characteristic
    sequence at a point: P_n(z) = nums[n] / d_n with d_n > 0.

    P_{n+1}(z) = (z - a(n,n)) P_n(z) - sum_{s=1..p} a(n, n-s) P_{n-s}(z),
    with P_0 = 1 and vanishing negative-index terms. Row n is scaled by e_n,
    the lcm of its band denominators and z's denominator, so
    d_n = e_0 ... e_{n-1} and d_n / d_{n-s} = e_{n-1} ... e_{n-s}.
    Everything stays in ints and no gcd is taken: the caller asks only
    whether a value is zero, which nums[n] shows. Row n of the truncation
    must be trustworthy, so nmax <= valid_rows.
    """
    if nmax > hess.valid_rows:
        raise IndexOutOfRange(
            f"need rows 0..{nmax - 1} but only {hess.valid_rows} rows are trustworthy"
        )
    z = rational(z)
    nums = [1]
    scales: list[int] = []
    for n in range(nmax):
        row = [hess.a(n, n - s) for s in range(min(n, hess.p) + 1)]
        e = lcm(z.denominator, *(v.denominator for v in row))
        lead = z - row[0]
        acc = lead.numerator * (e // lead.denominator) * nums[n]
        ratio = 1
        for s in range(1, len(row)):
            ratio *= scales[n - s]
            v = row[s]
            if v:
                acc -= v.numerator * (e // v.denominator) * ratio * nums[n - s]
        nums.append(acc)
        scales.append(e)
    return nums


def characteristic_polys(
    hess: BandedHessenberg, nmax: int
) -> tuple[tuple[Fraction, ...], ...]:
    """Monic characteristic sequence P_0 .. P_nmax of the truncation.

    P_n is its coefficient tuple, lowest degree first: n + 1 Fractions, the
    last of them 1. Built by the band recurrence; P_n also equals
    det(z I_n - J_n), which the tests assert independently. Each P_m is
    carried as integer numerators over its least common denominator d_m.
    Row n combines z P_n and the terms a(n, n-s) P_{n-s} over D, the lcm of
    the terms' denominators den(a(n, n-s)) d_{n-s}; z P_n lies over d_n,
    which divides the s = 0 term's. One gcd is then divided out. Only the
    last p + 1 integer rows are kept; Fractions are built once per
    coefficient.
    """
    if nmax > hess.valid_rows:
        raise IndexOutOfRange(
            f"need rows 0..{nmax - 1} but only {hess.valid_rows} rows are trustworthy"
        )
    p = hess.p
    polys = [(_ONE,)]
    nums: list[list[int]] = [[1]]
    dens = [1]
    for n in range(nmax):
        row = [hess.a(n, n - s) for s in range(min(n, p) + 1)]
        # A zero term adds no denominator; z P_n adds d_n.
        den = lcm(*(v.denominator * dens[-1 - s] for s, v in enumerate(row) if v), dens[-1])
        # z P_n, then minus a(n, n-s) P_{n-s} for s = 0..p, all over D.
        scale = den // dens[-1]
        acc = [0] + [c * scale for c in nums[-1]]
        for s, v in enumerate(row):
            if v:
                coef = v.numerator * (den // (v.denominator * dens[-1 - s]))
                q = nums[-1 - s]
                acc[: len(q)] = [x - coef * c for x, c in zip(acc, q)]
        g = gcd(den, *acc)
        acc = [c // g for c in acc]
        den //= g
        polys.append(tuple(Fraction(c, den) if c else _ZERO for c in acc))
        nums.append(acc)
        dens.append(den)
        if len(nums) > p + 1:
            del nums[0], dens[0]
    return tuple(polys)
