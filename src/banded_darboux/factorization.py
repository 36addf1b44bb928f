"""Shifted LU, bidiagonal chain splitting, and the cyclic transforms.

The pipeline factors J - C*I = L U (L unit lower with p subdiagonals, U
upper bidiagonal with unit superdiagonal), splits L into p unit lower
bidiagonal factors L(1) ... L(p) with a prescribed set of p(p-1)/2 free
subdiagonal entries, and forms the cyclic permutations

    J(j) = C*I + L(j+1) ... L(p) U L(1) ... L(j),   j = 0 .. p,

each again a (p+2)-banded Hessenberg matrix with unit superdiagonal on its
safe window. `darboux_transform(chain, js)`, the one route from a chain to
its rotations, yields the requested J(j) lazily, in increasing j, from
halves shared between them, each in one step from its windowed product: C
is added to the product's diagonal as the Hessenberg truncation is built.

L passes from the LU to the split as its rows, row i being [L(i, i-p), ..,
L(i, i-1)] with 0 where the column is negative; the split's last remainder,
one column wide, is L(p). Both are row-ordered, so `chain_from_instance(
inst, free_rows, rows)` computes them exactly only on the leading rows a
command keeps, at least p, so every free entry falls there. Past those, the
LU's row loop and each stage's row loop run on, on the same code, with
values mod q = 2^61 - 1 (`_Residue`) that only have to show every peel
divisor nonzero. A residue that cannot decide raises _UndecidedResidue out
of either; `chain_from_instance` alone catches it and reruns the chain
exactly on all N rows. Every other caller peels an L that is exact on all
its rows, with no residue rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .banded import (
    BandedHessenberg,
    BidiagonalChain,
    LowerBidiagonalUnit,
    UpperBidiagonal,
    characteristic_polys,
    multiply_window,
    recurrence_values,
)
from .errors import (
    BadFreeSpec,
    IndexOutOfRange,
    ShapeMismatch,
    SingularLeadingMinor,
    ZeroPeelPivot,
)
from .exact import IntegerRow, ScalarLike, rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


# The Mersenne prime 2^61 - 1: LU pivots and peel divisors past the exact
# rows are shown nonzero by their residues modulo it.
_Q = (1 << 61) - 1


class _UndecidedResidue(Exception):
    """A residue mod _Q cannot show a pivot or divisor nonzero, or a
    denominator is divisible by _Q; the exact route reruns."""


class _Residue:
    """A rational's image mod _Q as a pair num / den with den nonzero mod
    _Q, so that no inverse is taken. It takes a Fraction on either side
    of - and /, and on the right of *, as the LU and the peel need.

    A nonzero num proves the rational nonzero, but num = 0 proves nothing
    (q may divide the exact numerator). So the zero test (`bool`) and a
    division by such a residue raise _UndecidedResidue, as does the image
    of a rational whose denominator q divides.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __bool__(self) -> bool:
        if self.num:
            return True
        raise _UndecidedResidue

    def __sub__(self, other) -> _Residue:
        b = _residue(other)
        return _Residue((self.num * b.den - b.num * self.den) % _Q, self.den * b.den % _Q)

    def __rsub__(self, other) -> _Residue:
        return _residue(other) - self

    def __mul__(self, other) -> _Residue:
        b = _residue(other)
        return _Residue(self.num * b.num % _Q, self.den * b.den % _Q)

    def __truediv__(self, other) -> _Residue:
        b = _residue(other)
        if not b.num:
            raise _UndecidedResidue
        return _Residue(self.num * b.den % _Q, self.den * b.num % _Q)

    def __rtruediv__(self, other) -> _Residue:
        return _residue(other) / self


def _residue(v: Fraction | _Residue) -> _Residue:
    """v mod _Q."""
    if type(v) is _Residue:
        return v
    den = v.denominator % _Q
    if not den:
        raise _UndecidedResidue
    return _Residue(v.numerator % _Q, den)


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
        nums = recurrence_values(J, shift, J.n)
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
) -> tuple[list[list[Fraction]], UpperBidiagonal, list[list[_Residue]]]:
    """Unique factorization J - C*I = L U with unit-diagonal L, exact on the
    leading `rows` rows, p <= rows <= N (IndexOutOfRange otherwise).

    Band recurrence, writing A = J - C*I and u for U's diagonal:
        A(i, m) = L(i, m) u_m + L(i, m-1),  m < i   (L(i, m-1) = 0 below band)
        A(i, i) = u_i + L(i, i-1).
    The instance is admissible, so every pivot u_n = -P_{n+1}(C) / P_n(C) is
    nonzero and the recurrence divides freely.

    Returns L's leading rows in the module's row layout, U as a leading
    rows x rows block, and L's rows rows .. N-1 mod q = 2^61 - 1, the
    residue rows `peel_stages` reads, in the same layout. The same row loop
    runs on past the kept rows, on C and the last p exact pivots taken mod
    q, so every later value is a residue. A pivot is tested only where a
    later row divides by it, so u_{N-1} never is (admissibility shows it
    nonzero). A division by a pivot residue of 0, or an entry whose
    denominator q divides, raises _UndecidedResidue, on which
    `chain_from_instance` reruns with rows = N. rows = N gives the
    full exact factorization and no residue rows, and so does p = 1: its
    split peels no stage, so nothing would read them.
    """
    J, C = inst.J, inst.shift
    p, n = J.p, J.n
    if not p <= rows <= n:
        raise IndexOutOfRange(f"leading block {rows} outside {p}..{n}")
    bands = [J.band(d) for d in range(-p, 1)]
    L: list[list[Fraction]] = []
    # U's diagonal; the loop appends to `pivots`, which is diag itself on
    # the kept rows and residues past them.
    diag: list[Fraction] = []
    pivots = diag
    for i in range(n if p > 1 else rows):
        if i == rows:
            C, pivots = _residue(C), [_residue(u) for u in diag[-p:]]
        # Row i; x is L(i, m-1) for the column m = i-p+k in progress, whose
        # pivot u_m is pivots[k - p].
        row, x = [_ZERO] * p, _ZERO
        for k in range(max(0, p - i), p):
            x = row[k] = (bands[k][i] - x) / pivots[k - p]
        pivots.append(bands[p][i] - C - x)
        L.append(row)
    return L[:rows], UpperBidiagonal(rows, diag), L[rows:]


def _stage_rows(
    block: list[list[Fraction]], prescribed: list[Fraction], j: int, w: int
) -> tuple[list[Fraction], list[list[Fraction]]]:
    """One peeling stage on the rows of a w-banded remainder: exact rows,
    and after them, where `peel_stages` has any, residue rows.

    Row r holds the entries of columns r-w .. r-1 (zero where negative).
    With prev the new remainder's row r-1 extended by its unit diagonal,
    s(r) = row[0] / prev[0] for r >= w and the new row is
    row[k] - s(r) * prev[k], k = 1 .. w-1; s(r) = 0 on a last-row 0 / 0. On
    a residue row the zero tests prove a divisor nonzero or raise
    _UndecidedResidue.
    """
    prev = [_ZERO] * (w - 1)
    out = [prev]
    sub: list[Fraction] = []
    for r in range(1, len(block)):
        row = block[r]
        ext = prev + [_ONE]
        if r <= w - 1:
            s = prescribed[r - 1]
        elif ext[0]:
            s = row[0] / ext[0]
        elif row[0] or r < len(block) - 1:
            raise ZeroPeelPivot(j, r, vacuous=not row[0])
        else:
            s = _ZERO
        sub.append(s)
        prev = [row[k] - s * ext[k] for k in range(1, w)]
        out.append(prev)
    return sub, out


def peel_stages(
    L: Sequence[Sequence[Fraction]],
    free_rows: Sequence[Sequence[ScalarLike]],
    stages: int,
    tail: Sequence[Sequence[_Residue]] = (),
) -> tuple[list[LowerBidiagonalUnit], list[list[Fraction]]]:
    """Peel `stages` bidiagonal factors off the left of L, given by its w
    subdiagonals in the module's row layout, exactly on all of L's rows.

    Stage j (1-based) removes one subdiagonal from the running remainder M:
    choose the factor's subdiagonal s(r) freely for rows r <= w-1 (where the
    lowest-band constraint is vacuous), force s(r) = M(r, r-w) / M'(r-1, r-w)
    afterwards, and update the remainder row

        M'(r, c) = M(r, c) - s(r) * M'(r-1, c).

    Returns the peeled factors and the rows of the (w - stages)-banded
    remainder, both over L's rows. Processing is strictly row-ordered, so
    each unknown is fixed by one linear equation; the division is by the
    remainder's newest lowest-band entry (ZeroPeelPivot when it vanishes).
    An L that is empty, ragged or nonzero left of column 0 is a ShapeMismatch.

    Precondition: L's lowest band is nonzero, as L(r, r-p) = a(r, r-p) /
    u_{r-p} is when J's band -p is. A stage's divisors are the next
    remainder's lowest band but on the last row, so a zero divisor meets a
    nonzero numerator, proving that no chain with these free entries exists,
    except on the last row: any s solves 0 = s * 0 there; the peel takes 0.

    `tail` continues L past its own rows as residue rows mod q = 2^61 - 1,
    as `shifted_lu` returns them, after at least w exact rows. Each stage
    runs over L's rows and then the tail's, the tail's only to show every
    divisor there nonzero: a nonzero residue proves it, and a residue of 0
    or a denominator divisible by q raises _UndecidedResidue, on which
    `chain_from_instance` reruns the chain exactly on all N rows.
    """
    if not L or any(len(row) != len(L[0]) for row in L):
        raise ShapeMismatch("L needs one or more rows, all of one width")
    n, w = len(L), len(L[0])
    if any(row[k] for i, row in enumerate(L[:w]) for k in range(w - i)):
        raise ShapeMismatch("L has a nonzero entry left of column 0")
    if stages < 0 or stages > w - 1:
        raise BadFreeSpec(f"cannot peel {stages} stages off {w} bands")
    if len(free_rows) < stages:
        raise BadFreeSpec(f"need free entries for {stages} stages, got {len(free_rows)}")
    factors = []
    for j in range(1, stages + 1):
        prescribed = [rational(v) for v in free_rows[j - 1]]
        if len(prescribed) != w - 1:
            raise BadFreeSpec(
                f"stage {j} needs {w - 1} free entries, got {len(prescribed)}"
            )
        sub, out = _stage_rows([*L, *tail], prescribed, j, w)
        L, tail = out[:n], out[n:]
        factors.append(LowerBidiagonalUnit(n, sub[: n - 1]))
        w -= 1
    return factors, list(L)


def chain_from_instance(
    inst: ShiftedInstance, free_rows: Sequence[Sequence[ScalarLike]], rows: int
) -> BidiagonalChain:
    """shifted_lu plus the chain split, bundled with the shift.

    Returns the chain of the leading rows x rows block, p <= rows <= N
    (IndexOutOfRange otherwise), so the free entries fall in the exact rows:
    the LU and the split are row-ordered, so it equals the full chain's
    `leading(rows)`. Past those rows the LU's and the split's row loops run
    on residues mod q only, to show every peel divisor nonzero; the LU's
    last pivot, which nothing divides by, is not tested. The first residue
    row's divisor comes from the last kept row, exactly: when it is zero and
    the row's numerator residue is not, ZeroPeelPivot(j, rows) is raised at
    once, as the exact route raises it. When a residue
    cannot decide, the chain is rerun exactly on all N rows and cut to its
    leading block; this is the one rerun, so ZeroPeelPivot(j, r) comes out
    as on the exact route.
    """
    try:
        return _chain(inst, free_rows, rows)
    except _UndecidedResidue:
        return _chain(inst, free_rows, inst.n).leading(rows)


def _chain(
    inst: ShiftedInstance, free_rows: Sequence[Sequence[ScalarLike]], rows: int
) -> BidiagonalChain:
    """`free_rows[j-1]` prescribes the first p-j subdiagonal entries of
    L(j), j = 1..p-1."""
    p = inst.p
    if len(free_rows) != p - 1:
        raise BadFreeSpec(f"need rows for factors 1..{p - 1}, got {len(free_rows)}")
    L, U, tail = shifted_lu(inst, rows)
    factors, remainder = peel_stages(L, free_rows, p - 1, tail)
    factors.append(LowerBidiagonalUnit(rows, [row[0] for row in remainder[1:]]))
    return BidiagonalChain(p, rows, inst.shift, factors, U)


def darboux_transform(
    chain: BidiagonalChain, js: Iterable[int]
) -> Iterator[tuple[int, BandedHessenberg]]:
    """The cyclic permutations J(j) = C*I + L(j+1) ... L(p) U L(1) ... L(j)
    for each j in `js`, as (j, J(j)) pairs in increasing j, each formed only
    when the iterator reaches it.

    Formed as C*I + S(j+1) T(j) from the halves S(p+1) = U,
    S(k) = L(k) S(k+1) and T(0) = I, T(j) = T(j-1) L(j), each built once
    and only as far as the requested j reach: p - min js products for the
    heads, max(max js - 1, 0) for the tails and one per j >= 1 to join them.
    That is 3p - 2 windowed products for j = 1 .. p and p for a single j.
    The heads are all built before the first J(j), since S(j+1) needs
    S(j+2); each is released once its J(j) is formed, and the tails and
    products of a later j are formed only when the iterator reaches it. So
    a caller that lets go of each J(j) holds one at a time. An index
    outside 0 .. p raises here, before any product. j = 0 reproduces the
    source matrix exactly; j >= 1 is trustworthy on all rows but the last
    (one upper band crosses the truncation edge once).
    """
    p = chain.p
    wanted = set(js)
    for j in sorted(wanted):
        if not 0 <= j <= p:
            raise IndexOutOfRange(f"transform index {j} outside 0..{p}")
    return _rotations(chain, wanted)


def _rotations(
    chain: BidiagonalChain, wanted: set[int]
) -> Iterator[tuple[int, BandedHessenberg]]:
    """`darboux_transform`'s products, on indices already checked."""
    p = chain.p
    # heads[j] = S(j+1), kept only for the wanted j.
    heads = {p: chain.upper}
    for k in range(p, min(wanted, default=p), -1):
        heads[k - 1] = multiply_window(
            chain.factors[k - 1], heads[k] if k in wanted else heads.pop(k)
        )
    if 0 in wanted:
        yield 0, BandedHessenberg.from_band_matrix(heads.pop(0), p, chain.shift)
    tail = None
    for j, factor in enumerate(chain.factors[: max(wanted, default=0)], start=1):
        tail = factor if tail is None else multiply_window(tail, factor)
        if j in wanted:
            # No name holds the product: the caller's J(j) is its one copy.
            yield j, BandedHessenberg.from_band_matrix(
                multiply_window(heads.pop(j), tail), p, chain.shift
            )


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
) -> Iterator[tuple[int, tuple[IntegerRow, ...]]]:
    """(j, monic sequence generated by J(j), degrees 0 .. nmax) for each j
    in `js`, in increasing j, as integer rows (nums, d_n) (see
    `characteristic_polys`).

    Degrees up to nmax read rows 0 .. nmax-1 only, so the J(j) are formed
    by one `darboux_transform` call on the chain's leading (nmax+1) x
    (nmax+1) block; its safe window (nmax rows for j >= 1) covers exactly
    those rows. Each J(j) and its sequence are computed only when the
    iterator reaches them, so it holds one J(j) at a time. An index outside
    0 .. p raises here, as in `darboux_transform`.
    """
    m = min(chain.n, max(nmax, 0) + 1)
    rotations = darboux_transform(chain.leading(m), js)
    return ((j, characteristic_polys(hess, nmax)) for j, hess in rotations)
