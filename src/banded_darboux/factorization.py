"""Shifted LU, bidiagonal chain splitting, and the cyclic transforms.

The pipeline factors J - C*I = L U (L unit lower with p subdiagonals, U
upper bidiagonal with unit superdiagonal), splits L into p unit lower
bidiagonal factors L(1) ... L(p) with a prescribed set of p(p-1)/2 free
subdiagonal entries, and forms the cyclic permutations

    J(j) = C*I + L(j+1) ... L(p) U L(1) ... L(j),   j = 0 .. p,

each again a (p+2)-banded Hessenberg matrix with unit superdiagonal on its
safe window. `darboux_transform(chain, js)`, the one route from a chain to
its rotations, forms the requested J(j) from halves shared between them.

Both the LU and the split are row-ordered, so `chain_from_instance(inst,
free_rows, rows)` computes them exactly only on the leading rows a command
keeps. Past those rows, `shifted_lu(inst, rows)` hands L's rows to
`peel_stages` as residue rows mod q = 2^61 - 1, which only have to show
every peel divisor nonzero. A residue that cannot decide raises
_UndecidedResidue out of either; `chain_from_instance` alone catches it and
reruns the chain exactly on all N rows. Every other caller peels an L that
is exact on all its rows, with no residue rows, so nothing else reruns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .banded import (
    BandedHessenberg,
    BandMatrix,
    BidiagonalChain,
    LowerBidiagonalUnit,
    UnitLowerBanded,
    UpperBidiagonal,
    characteristic_polys,
    multiply_window,
    recurrence_values,
)
from .errors import (
    BadFreeSpec,
    IndexOutOfRange,
    SingularLeadingMinor,
    ZeroPeelPivot,
)
from .exact import ScalarLike, rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


# The Mersenne prime 2^61 - 1: LU pivots and peel divisors past the exact
# rows are shown nonzero by their residues modulo it. A residue row is a
# pair (numerators, denominator) mod _Q with a nonzero denominator, so a
# value is zero mod _Q exactly when its numerator is, and no inverse is
# taken row by row.
_Q = (1 << 61) - 1
_ResidueRow = tuple[list[int], int]


class _UndecidedResidue(Exception):
    """A residue mod _Q cannot show a pivot or divisor nonzero, or a
    denominator is divisible by _Q; the exact route reruns."""


def _pair(v: Fraction) -> tuple[int, int]:
    """v as (numerator, denominator) mod _Q."""
    den = v.denominator % _Q
    if den == 0:
        raise _UndecidedResidue
    return v.numerator % _Q, den


def _residue_row(values: Iterable[Fraction]) -> _ResidueRow:
    """Exact values as one residue row over a common denominator."""
    row, den = [], 1
    for v in values:
        num, d = _pair(v)
        row = [x * d % _Q for x in row]
        row.append(num * den % _Q)
        den = den * d % _Q
    return row, den


class ShiftedInstance:
    """A Hessenberg truncation J together with an admissible shift C.

    Admissible means det(C I_n - J_n) != 0 for every n up to the truncation
    order, checked at construction via the equivalent condition P_n(C) != 0
    (one integer recurrence sweep instead of n determinants; only the
    numerators are tested). The diagonal of U is u_n = -P_{n+1}(C)/P_n(C).
    """

    __slots__ = ("J", "shift")

    def __init__(self, J: BandedHessenberg, shift: ScalarLike):
        shift = rational(shift)
        nums, _dens = recurrence_values(J, shift, J.n)
        for n in range(1, len(nums)):
            if nums[n] == 0:
                raise SingularLeadingMinor(n)
        object.__setattr__(self, "J", J)
        object.__setattr__(self, "shift", shift)

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


def shifted_lu(
    inst: ShiftedInstance, rows: int
) -> tuple[UnitLowerBanded, UpperBidiagonal, list[_ResidueRow]]:
    """Unique factorization J - C*I = L U with unit-diagonal L, exact on the
    leading `rows` rows, 1 <= rows <= N.

    Band recurrence, writing A = J - C*I and u for U's diagonal:
        A(i, m) = L(i, m) u_m + L(i, m-1),  m < i   (L(i, m-1) = 0 below band)
        A(i, i) = u_i + L(i, i-1).
    A zero u_m encountered here is exactly a singular leading minor of
    order m+1.

    Returns L and U as leading rows x rows blocks, and L's rows rows .. N-1
    mod q = 2^61 - 1, the residue rows `peel_stages` reads: tail[r - rows]
    is (nums, den) with L(r, r-p+k) = nums[k] / den mod q (0 where the
    column is negative). The tail runs the same recurrence with each row
    over one denominator, so it takes no modular inverse. A pivot residue
    of 0, or a denominator divisible by q, raises _UndecidedResidue, on
    which `chain_from_instance` reruns with rows = N. rows = N gives the
    full exact factorization and an empty tail, and so does p = 1: its
    split peels no stage, so nothing reads the tail, and admissibility
    already shows every pivot nonzero.
    """
    J, C = inst.J, inst.shift
    p, n = J.p, J.n
    if not 1 <= rows <= n:
        raise IndexOutOfRange(f"leading block {rows} outside 1..{n}")
    diag: list[Fraction] = []
    sub_bands: dict[int, list[Fraction]] = {d: [_ZERO] * rows for d in range(-p, 0)}

    def ell(i: int, m: int) -> Fraction:
        if m == i:
            return Fraction(1)
        if m < i - p or m < 0:
            return _ZERO
        return sub_bands[m - i][i]

    for i in range(rows):
        for m in range(max(0, i - p), i):
            if diag[m] == 0:
                raise SingularLeadingMinor(m + 1)
            a_im = J.a(i, m)
            sub_bands[m - i][i] = (a_im - ell(i, m - 1)) / diag[m]
        diag.append(J.a(i, i) - C - ell(i, i - 1))
    if rows == n and diag[-1] == 0:
        # The final pivot is never divided by, but it witnesses the minor of
        # full order being singular; surface it for contract uniformity.
        raise SingularLeadingMinor(n)
    L = UnitLowerBanded(p, rows, {d: tuple(v) for d, v in sub_bands.items()})
    U = UpperBidiagonal(rows, diag)
    return L, U, _lu_tail(J, C, diag[max(0, rows - p):], rows)


def _lu_tail(
    J: BandedHessenberg, C: Fraction, last: list[Fraction], rows: int
) -> list[_ResidueRow]:
    """L's rows rows .. N-1 mod _Q as residue rows, continuing from the
    exact pivots u_{rows-len(last)} .. u_{rows-1} (`last`)."""
    p, n = J.p, J.n
    if rows == n or p == 1:
        return []
    # piv[k] = u_{i-p+k} as a pair mod q, for the row i in progress.
    piv = [(1, 1)] * (p - len(last)) + [_pair(u) for u in last]
    if any(num == 0 for num, _ in piv):
        raise _UndecidedResidue
    bands = [J.band(d) for d in range(-p, 1)]
    cn, cd = _pair(C)
    tail = []
    for i in range(rows, n):
        # Row i over the running denominator y; x is L(i, m-1)'s numerator.
        row, x, y = [0] * p, 0, 1
        for k in range(max(0, p - i), p):
            an, ad = _pair(bands[k][i])
            un, ud = piv[k]
            # L(i, m) = (a(i, m) - x/y) * ud/un over the denominator y*ad*un.
            t = ad * un % _Q
            row = [v * t % _Q for v in row]
            x = row[k] = (an * y - x * ad) * ud % _Q
            y = y * t % _Q
        an, ad = _pair(bands[p][i])
        # u_i = a(i, i) - C - x/y over the denominator y*ad*cd.
        un = ((an * cd - cn * ad) * y - x * ad * cd) % _Q
        if un == 0:
            raise _UndecidedResidue
        piv.pop(0)
        piv.append((un, y * ad * cd % _Q))
        tail.append((row, y))
    return tail


def _stage_rows(
    block: list[list[Fraction]], prescribed: list[Fraction], j: int, w: int
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """One exact peeling stage on the leading rows of a w-banded remainder.

    Row r holds the entries of columns r-w .. r-1 (zero where negative).
    With prev the new remainder's row r-1 extended by its unit diagonal,
    s(r) = row[0] / prev[0] for r >= w and the new row is
    row[k] - s(r) * prev[k], k = 1 .. w-1.
    """
    prev = [_ZERO] * (w - 1)
    out = [prev]
    sub: list[Fraction] = []
    for r in range(1, len(block)):
        row = block[r]
        ext = prev + [_ONE]
        if r <= w - 1:
            s = prescribed[r - 1]
        elif ext[0] == 0:
            if row[0] != 0:
                raise ZeroPeelPivot(j, r)
            # 0 = 0 - s*0 constrains nothing; take the canonical choice
            # s = 0 so identity-like inputs peel to identity.
            s = _ZERO
        else:
            s = row[0] / ext[0]
        sub.append(s)
        prev = [row[k] - s * ext[k] for k in range(1, w)]
        out.append(prev)
    return sub, out


def _stage_residues(
    tail: list[_ResidueRow], first: int, seed: list[Fraction],
    prescribed: list[Fraction], w: int,
) -> list[_ResidueRow]:
    """The same stage on the residue rows first .. N-1, from the exact row
    first-1 (`seed`); raises _UndecidedResidue on a zero divisor residue.

    With the tail row as row / d and the new row r-1 as ext / e (unit
    diagonal included), a forced row gives (row[k] e0 - row[0] ext[k]) /
    (d e0) and a prescribed s = sn / sd gives
    (row[k] sd e - sn d ext[k]) / (d sd e).
    """
    prev, e = _residue_row(seed)
    out = []
    for r, (row, d) in enumerate(tail, start=first):
        ext = prev + [e]
        if r <= w - 1:
            sn, sd = _pair(prescribed[r - 1])
            prev = [(row[k] * sd * e - sn * d * ext[k]) % _Q for k in range(1, w)]
            e = d * sd * e % _Q
        else:
            e0 = ext[0]
            if e0 == 0:
                raise _UndecidedResidue
            prev = [(row[k] * e0 - row[0] * ext[k]) % _Q for k in range(1, w)]
            e = d * e0 % _Q
        out.append((prev, e))
    return out


def peel_stages(
    L: UnitLowerBanded,
    free_rows: Sequence[Sequence[ScalarLike]],
    stages: int,
    tail: Sequence[_ResidueRow] = (),
) -> tuple[list[LowerBidiagonalUnit], UnitLowerBanded]:
    """Peel `stages` bidiagonal factors off the left of L, exactly on all of
    L's rows.

    Stage j (1-based) removes one subdiagonal from the running remainder M:
    choose the factor's subdiagonal s(r) freely for rows r <= w-1 (where the
    lowest-band constraint is vacuous), force s(r) = M(r, r-w) / M'(r-1, r-w)
    afterwards, and update the remainder row

        M'(r, c) = M(r, c) - s(r) * M'(r-1, c).

    Returns the peeled factors and the remaining unit lower (w - stages)
    banded remainder, both over L's rows. Processing is strictly
    row-ordered, so each unknown is fixed by one linear equation; the
    division is by the remainder's newest lowest-band entry (ZeroPeelPivot
    when it vanishes).

    `tail` continues L past its own rows as residue rows mod q = 2^61 - 1,
    in the layout `shifted_lu` returns. Each stage also runs on them, only
    to show every divisor there nonzero: a nonzero residue proves it, and a
    residue of 0 or a denominator divisible by q raises _UndecidedResidue,
    on which `chain_from_instance` reruns the chain exactly on all N rows.
    """
    n, w = L.n, L.w
    if stages < 0 or stages > w - 1:
        raise BadFreeSpec(f"cannot peel {stages} stages off {w} bands")
    if len(free_rows) < stages:
        raise BadFreeSpec(f"need free entries for {stages} stages, got {len(free_rows)}")
    exact = [list(row) for row in zip(*(L.band(d) for d in range(-w, 0)))]
    factors = []
    for j in range(1, stages + 1):
        prescribed = [rational(v) for v in free_rows[j - 1]]
        if len(prescribed) != w - 1:
            raise BadFreeSpec(
                f"stage {j} needs {w - 1} free entries, got {len(prescribed)}"
            )
        sub, exact = _stage_rows(exact, prescribed, j, w)
        if tail:
            tail = _stage_residues(tail, n, exact[-1], prescribed, w)
        factors.append(LowerBidiagonalUnit(j, n, sub))
        w -= 1
    bands = {d: tuple(row[d + w] for row in exact) for d in range(-w, 0)}
    return factors, UnitLowerBanded(w, n, bands)


def bidiagonal_chain_factor(
    L: UnitLowerBanded,
    free_rows: Sequence[Sequence[ScalarLike]],
    tail: Sequence[_ResidueRow] = (),
) -> list[LowerBidiagonalUnit]:
    """Split L into p unit lower bidiagonal factors, L = L(1) ... L(p).

    `free_rows[j-1]` prescribes the first p-j subdiagonal entries of L(j),
    j = 1..p-1; the last stage's remainder is itself bidiagonal and becomes
    L(p). Deterministic: identical inputs give identical factors. `tail`
    continues L as residue rows (see peel_stages).
    """
    p = L.w
    if len(free_rows) != p - 1:
        raise BadFreeSpec(f"need rows for factors 1..{p - 1}, got {len(free_rows)}")
    factors, remainder = peel_stages(L, free_rows, p - 1, tail)
    factors.append(LowerBidiagonalUnit(p, L.n, remainder.band(-1)[1:]))
    return factors


def chain_from_instance(
    inst: ShiftedInstance, free_rows: Sequence[Sequence[ScalarLike]], rows: int
) -> BidiagonalChain:
    """shifted_lu plus the chain split, bundled with the shift.

    Returns the chain of the leading rows x rows block, 1 <= rows <= N: the
    LU and the split are row-ordered, so it equals the full chain's
    `leading(rows)`. Past those rows the LU and the split run on residues
    mod q only, to show every peel divisor nonzero. When a residue cannot
    decide, the chain is rerun exactly on all N rows and cut to its leading
    block; this is the one rerun, so ZeroPeelPivot(j, r) and the s = 0
    convention come out as on the exact route.
    """
    try:
        return _chain(inst, free_rows, rows)
    except _UndecidedResidue:
        return _chain(inst, free_rows, inst.n).leading(rows)


def _chain(
    inst: ShiftedInstance, free_rows: Sequence[Sequence[ScalarLike]], rows: int
) -> BidiagonalChain:
    L, U, tail = shifted_lu(inst, rows)
    return BidiagonalChain(
        inst.p, rows, inst.shift, bidiagonal_chain_factor(L, free_rows, tail), U
    )


def _rotation(
    chain: BidiagonalChain, head: BandMatrix, tail: Optional[BandMatrix]
) -> BandedHessenberg:
    """C*I + head * tail as a Hessenberg truncation; no tail reads as I."""
    prod = head if tail is None else multiply_window(head, tail)
    return BandedHessenberg.from_band_matrix(prod.plus_scaled_identity(chain.shift), p=chain.p)


def darboux_transform(chain: BidiagonalChain, js: Iterable[int]) -> dict[int, BandedHessenberg]:
    """The cyclic permutations J(j) = C*I + L(j+1) ... L(p) U L(1) ... L(j)
    for each j in `js`, keyed by j in increasing order.

    Formed as C*I + S(j+1) T(j) from the halves S(p+1) = U,
    S(k) = L(k) S(k+1) and T(0) = I, T(j) = T(j-1) L(j), each built once
    and only as far as the requested j reach: p - min js products for the
    heads, max(max js - 1, 0) for the tails and one per j >= 1 to join them.
    That is 3p - 2 windowed products for j = 1 .. p and p for a single j. Each
    half is released once no later j reads it. j = 0 reproduces the source
    matrix exactly; j >= 1 is trustworthy on all rows but the last (one
    upper band crosses the truncation edge once).
    """
    p = chain.p
    wanted = set(js)
    for j in sorted(wanted):
        if not 0 <= j <= p:
            raise IndexOutOfRange(f"transform index {j} outside 0..{p}")
    # heads[j] = S(j+1), kept only for the wanted j.
    heads = {p: chain.upper}
    for k in range(p, min(wanted, default=p), -1):
        heads[k - 1] = multiply_window(
            chain.factors[k - 1], heads[k] if k in wanted else heads.pop(k)
        )
    rotations = {}
    if 0 in wanted:
        rotations[0] = _rotation(chain, heads.pop(0), None)
    tail = None
    for j, factor in enumerate(chain.factors[: max(wanted, default=0)], start=1):
        tail = factor if tail is None else multiply_window(tail, factor)
        if j in wanted:
            rotations[j] = _rotation(chain, heads.pop(j), tail)
    return rotations


def last_row_lowest_entry(chain: BidiagonalChain, j: int) -> Fraction:
    """J(j)'s lowest-band entry in its last row, a(N-1, N-1-p), without
    forming J(j).

    Only one path through L(j+1) ... L(p) U L(1) ... L(j) falls p bands:
    every L steps one row down and U keeps to its diagonal. So, with
    l_k(r) = L(k)(r, r-1), the entry is the product of p + 1 chain values

        u(N-1-p+j) * prod_{k=j+1..p} l_k(N-k+j) * prod_{k=1..j} l_k(N-p+j-k).

    Entry sizes grow with the row index, so this is where an unprintable
    J(j) shows first in practice.
    """
    p, n = chain.p, chain.n
    if not 0 <= j <= p:
        raise IndexOutOfRange(f"transform index {j} outside 0..{p}")
    if n <= p:
        raise IndexOutOfRange(f"a {n} x {n} truncation has no band -{p}")
    value = chain.upper.diag[n - 1 - p + j]
    for k in range(j + 1, p + 1):
        value *= chain.factors[k - 1].sub_at_row(n - k + j)
    for k in range(1, j + 1):
        value *= chain.factors[k - 1].sub_at_row(n - p + j - k)
    return value


def transformed_polys(
    chain: BidiagonalChain, nmax: int, js: Iterable[int]
) -> Iterator[tuple[int, tuple[tuple[Fraction, ...], ...]]]:
    """(j, monic sequence generated by J(j), degrees 0 .. nmax) for each j
    in `js`, in increasing j, as coefficient tuples (see
    `characteristic_polys`).

    Degrees up to nmax read rows 0 .. nmax-1 only, so the J(j) are formed
    by one `darboux_transform` call on the chain's leading (nmax+1) x
    (nmax+1) block; its safe window (nmax rows for j >= 1) covers exactly
    those rows. Each sequence is computed only when the iterator reaches
    it, and its J(j) released then.
    """
    m = min(chain.n, max(nmax, 0) + 1)
    rotations = darboux_transform(chain.leading(m), js)
    return ((j, characteristic_polys(rotations.pop(j), nmax)) for j in list(rotations))
