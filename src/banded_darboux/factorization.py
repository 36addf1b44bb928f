"""Shifted LU, bidiagonal chain splitting, and the cyclic transforms.

The pipeline factors J - C*I = L U (L unit lower with p subdiagonals, U
upper bidiagonal with unit superdiagonal), splits L into p unit lower
bidiagonal factors L(1) ... L(p) with a prescribed set of p(p-1)/2 free
subdiagonal entries, and forms the cyclic permutations

    J(j) = C*I + L(j+1) ... L(p) U L(1) ... L(j),   j = 0 .. p,

each again a (p+2)-banded Hessenberg matrix with unit superdiagonal on its
safe window.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .banded import (
    BandedHessenberg,
    BandMatrix,
    BidiagonalChain,
    LowerBidiagonalUnit,
    UnitLowerBanded,
    UpperBidiagonal,
    characteristic_polys,
    product_window,
    recurrence_values,
)
from .errors import (
    BadFreeSpec,
    IndexOutOfRange,
    SingularLeadingMinor,
    ZeroPeelPivot,
)
from .exact import Polynomial, ScalarLike, format_rational, parse_rational, rational

_ZERO = Fraction(0)


class ShiftedInstance:
    """A Hessenberg truncation J together with an admissible shift C.

    Admissible means det(C I_n - J_n) != 0 for every n up to the truncation
    order, checked at construction via the equivalent condition P_n(C) != 0
    (one recurrence sweep instead of n determinants). The values P_n(C) are
    kept: the diagonal of U is u_n = -P_{n+1}(C)/P_n(C).
    """

    __slots__ = ("J", "shift", "values_at_shift")

    def __init__(self, J: BandedHessenberg, shift: ScalarLike):
        shift = rational(shift)
        values = recurrence_values(J, shift, J.n)
        for n in range(1, len(values)):
            if values[n] == 0:
                raise SingularLeadingMinor(n)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "shift", shift)
        object.__setattr__(self, "values_at_shift", values)

    def __setattr__(self, name, value):
        raise AttributeError("ShiftedInstance is immutable")

    @property
    def p(self) -> int:
        return self.J.p

    @property
    def n(self) -> int:
        return self.J.n

    def __repr__(self):
        return f"ShiftedInstance(p={self.p}, n={self.n}, shift={self.shift})"


def shifted_lu(inst: ShiftedInstance) -> tuple[UnitLowerBanded, UpperBidiagonal]:
    """Unique factorization J - C*I = L U with unit-diagonal L.

    Band recurrence, writing A = J - C*I and u for U's diagonal:
        A(i, m) = L(i, m) u_m + L(i, m-1),  m < i   (L(i, m-1) = 0 below band)
        A(i, i) = u_i + L(i, i-1).
    A zero u_m encountered here is exactly a singular leading minor of
    order m+1.
    """
    J, C = inst.J, inst.shift
    p, n = J.p, J.n
    diag: list[Fraction] = []
    sub_bands: dict[int, list[Fraction]] = {d: [_ZERO] * n for d in range(-p, 0)}

    def ell(i: int, m: int) -> Fraction:
        if m == i:
            return Fraction(1)
        if m < i - p or m < 0:
            return _ZERO
        return sub_bands[m - i][i]

    for i in range(n):
        for m in range(max(0, i - p), i):
            if diag[m] == 0:
                raise SingularLeadingMinor(m + 1)
            a_im = J.a(i, m)
            sub_bands[m - i][i] = (a_im - ell(i, m - 1)) / diag[m]
        diag.append(J.a(i, i) - C - ell(i, i - 1))
    if n and diag[-1] == 0:
        # The final pivot is never divided by, but it witnesses the minor of
        # full order being singular; surface it for contract uniformity.
        raise SingularLeadingMinor(n)
    return (
        UnitLowerBanded(p, n, {d: tuple(v) for d, v in sub_bands.items()}),
        UpperBidiagonal(n, diag),
    )


class FreeEntrySpec:
    """The p(p-1)/2 prescribed subdiagonal entries of the chain split.

    Factor j (j = 1 .. p-1) gets its first p-j subdiagonal rows prescribed;
    the last factor L(p) gets none. `rows[j-1]` holds factor j's values in
    row order.
    """

    __slots__ = ("p", "rows")

    def __init__(self, p: int, rows: Sequence[Iterable[ScalarLike]] = ()):
        if p < 1:
            raise BadFreeSpec(f"band count must be >= 1, got {p}")
        rows = tuple(tuple(rational(v) for v in row) for row in rows)
        if len(rows) != p - 1:
            raise BadFreeSpec(f"need rows for factors 1..{p - 1}, got {len(rows)}")
        for j, row in enumerate(rows, start=1):
            if len(row) != p - j:
                raise BadFreeSpec(f"factor {j} needs {p - j} free entries, got {len(row)}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("FreeEntrySpec is immutable")

    @classmethod
    def zeros(cls, p: int) -> "FreeEntrySpec":
        return cls(p, tuple((0,) * (p - j) for j in range(1, p)))

    def value(self, j: int, r: int) -> Fraction:
        """Free entry of factor j at subdiagonal row r (1-based both)."""
        if not (1 <= j <= self.p - 1 and 1 <= r <= self.p - j):
            raise BadFreeSpec(f"no free entry at factor {j}, row {r}")
        return self.rows[j - 1][r - 1]

    @property
    def count(self) -> int:
        return self.p * (self.p - 1) // 2

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "rows": [[format_rational(v) for v in row] for row in self.rows],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "FreeEntrySpec":
        return cls(int(data["p"]), [[parse_rational(v) for v in row] for row in data["rows"]])

    def __eq__(self, other):
        if not isinstance(other, FreeEntrySpec):
            return NotImplemented
        return (self.p, self.rows) == (other.p, other.rows)

    def __hash__(self):
        return hash((self.p, self.rows))

    def __repr__(self):
        return f"FreeEntrySpec(p={self.p}, rows={self.rows})"


def peel_stages(
    L: UnitLowerBanded, free_rows: Sequence[Sequence[ScalarLike]], stages: int
) -> tuple[list[LowerBidiagonalUnit], UnitLowerBanded]:
    """Peel `stages` bidiagonal factors off the left of L.

    Stage j (1-based) removes one subdiagonal from the running remainder M:
    choose the factor's subdiagonal s(r) freely for rows r <= w-1 (where the
    lowest-band constraint is vacuous), force s(r) = M(r, r-w) / M'(r-1, r-w)
    afterwards, and update the remainder row

        M'(r, c) = M(r, c) - s(r) * M'(r-1, c).

    Returns the peeled factors and the remaining unit lower (w - stages)
    banded remainder. Processing is strictly row-ordered, so each unknown is
    fixed by one linear equation; the division is by the remainder's newest
    lowest-band entry (ZeroPeelPivot when it vanishes).
    """
    n = L.n
    w = L.w
    if stages < 0 or stages > w - 1:
        raise BadFreeSpec(f"cannot peel {stages} stages off {w} bands")
    if len(free_rows) < stages:
        raise BadFreeSpec(f"need free entries for {stages} stages, got {len(free_rows)}")
    cur = {d: list(L.band(d)) for d in range(-w, 0)}
    factors: list[LowerBidiagonalUnit] = []
    for j in range(1, stages + 1):
        prescribed = [rational(v) for v in free_rows[j - 1]]
        if len(prescribed) != w - 1:
            raise BadFreeSpec(
                f"stage {j} needs {w - 1} free entries, got {len(prescribed)}"
            )
        sub: list[Fraction] = []
        nxt: dict[int, list[Fraction]] = {d: [_ZERO] * n for d in range(-(w - 1), 0)}

        def cur_entry(r: int, c: int) -> Fraction:
            if c == r:
                return Fraction(1)
            if r - w <= c <= r - 1 and c >= 0:
                return cur[c - r][r]
            return _ZERO

        def nxt_entry(r: int, c: int) -> Fraction:
            if c == r:
                return Fraction(1)
            if r - (w - 1) <= c <= r - 1 and c >= 0:
                return nxt[c - r][r]
            return _ZERO

        for r in range(1, n):
            if r <= w - 1:
                s = prescribed[r - 1]
            else:
                divisor = nxt_entry(r - 1, r - w)
                numerator = cur_entry(r, r - w)
                if divisor == 0:
                    if numerator != 0:
                        raise ZeroPeelPivot(j, r)
                    # 0 = 0 - s*0 constrains nothing; take the canonical
                    # choice s = 0 so identity-like inputs peel to identity.
                    s = _ZERO
                else:
                    s = numerator / divisor
            sub.append(s)
            for c in range(max(0, r - (w - 1)), r):
                nxt[c - r][r] = cur_entry(r, c) - s * nxt_entry(r - 1, c)
        factors.append(LowerBidiagonalUnit(j, n, sub))
        cur = nxt
        w -= 1
    remainder = UnitLowerBanded(w, n, {d: tuple(v) for d, v in cur.items()})
    return factors, remainder


def bidiagonal_chain_factor(
    L: UnitLowerBanded, free: FreeEntrySpec
) -> list[LowerBidiagonalUnit]:
    """Split L into p unit lower bidiagonal factors, L = L(1) ... L(p).

    The free entries pin down factors 1..p-1; the last stage's remainder is
    itself bidiagonal and becomes L(p). Deterministic: identical inputs give
    identical factors.
    """
    p = L.w
    if free.p != p:
        raise BadFreeSpec(f"free entries sized for {free.p} bands, matrix has {p}")
    factors, remainder = peel_stages(L, free.rows, p - 1)
    factors.append(LowerBidiagonalUnit(p, L.n, remainder.band(-1)[1:]))
    return factors


def chain_from_instance(
    inst: ShiftedInstance, free: FreeEntrySpec
) -> BidiagonalChain:
    """shifted_lu plus the chain split, bundled with the shift."""
    L, U = shifted_lu(inst)
    factors = bidiagonal_chain_factor(L, free)
    return BidiagonalChain(inst.p, inst.n, inst.shift, factors, U)


def darboux_transform(chain: BidiagonalChain, j: int) -> BandedHessenberg:
    """Cyclic permutation J(j) = C*I + L(j+1) ... L(p) U L(1) ... L(j).

    j = 0 reproduces the source matrix exactly; j >= 1 is trustworthy on all
    rows but the last (one upper band crosses the truncation edge once).
    """
    if not 0 <= j <= chain.p:
        raise IndexOutOfRange(f"transform index {j} outside 0..{chain.p}")
    seq = chain.factors[j:] + (chain.upper,) + chain.factors[:j]
    prod = product_window(seq).plus_scaled_identity(chain.shift)
    return BandedHessenberg.from_band_matrix(prod, p=chain.p)


def g_matrix(chain: BidiagonalChain, j: int) -> BandMatrix:
    """The (p+1)-banded Hessenberg G(j) = L(j+2) ... L(p) U L(1) ... L(j).

    Row n of G(j) expresses the multiplied-by-(z - C) stage-(j+1) sequence
    over the stage-j one:

        (z - C) Q'_n = sum_m G(n, m) Q_m,

    supported on m = n-p+1 .. n+1 with G(n, n+1) = 1; its lowest band is
    nonzero whenever every chain coefficient is.
    """
    if not 0 <= j <= chain.p - 1:
        raise IndexOutOfRange(f"index {j} outside 0..{chain.p - 1}")
    seq = chain.factors[j + 1:] + (chain.upper,) + chain.factors[:j]
    return product_window(seq)


def transformed_polys(
    chain: BidiagonalChain, j: int, nmax: int
) -> tuple[Polynomial, ...]:
    """Monic sequence generated by J(j), degrees 0 .. nmax.

    Degrees up to nmax read rows 0 .. nmax-1 only, so J(j) is formed from
    the chain's leading (nmax+1) x (nmax+1) block; its safe window (nmax
    rows for j >= 1) covers exactly those rows.
    """
    m = min(chain.n, max(nmax, 0) + 1)
    return characteristic_polys(darboux_transform(chain.leading(m), j), nmax)
