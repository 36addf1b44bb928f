"""Independent oracles and builders shared by the test modules.

The oracles here deliberately avoid the library code paths they check:
determinants by cofactor expansion, products by dense triple loops,
polynomial division by long division on coefficient lists. The slow
`Fraction` routes that the integer kernels replaced live here too: the
recurrence in `Poly` arithmetic, the dual sequence by inverting the
coefficient triangle, and the scan by applying each functional to z^k P_n.
So does the rotation over the whole chain that `transformed_polys` narrowed
to a leading block, and the routes that exact-where-printed replaced: the
characteristic values at a point in `Fraction`s, the peel exact on all N
rows, and each rotation as one left-to-right chained product. The rest
are checks only the tests call: the intertwining matrices G(j), a unit
lower triangular solve, the table of staircase minors, z^k P, and the
matrix L(1) ... L(p) U + C*I a chain factors, and its Freivalds check at
sizes no exact oracle reaches (`freivalds_mismatches`: J - C*I and each
J(j) - C*I against the chain's product times a random vector, on residues
mod 2^61 - 1, with arithmetic of its own). The rotated vector nu(j)
formed on its own for each j (`transformed_nu`; `run_theorem` takes every
nu(j) as a window of one list) and C*I + M as a separate matrix
(`plus_scaled_identity`; the package adds C to the diagonal as it builds
each J(j)) are oracles too.

What the package itself no longer carries, because no command uses it,
lives here as well: the polynomial type with its printed form, arithmetic
and evaluation (`Poly`, `Z`, `as_polys`, `divide_exactly`; the package's
polynomials are integer rows (nums, d_n), `fraction_polys` reads a sequence
of them as coefficient tuples, and `Poly.__str__` is the oracle for
`format_polynomial`), dense matrices with their product and the Bareiss
determinant (`DenseMatrix`, `det_exact`, `NotSquare`; the oracles for the
elimination in `delta_det` and the row updates in
`staircase_transport_identity`), the functional type (`Functional`: the
package passes a functional as its moment tuple and a vector as a tuple of
those, so application with the degree guard, (z - c) multiplication,
multiples, sums and agreement over a common degree range live here, and
`transformed_nu` cuts each nu(j) to one common budget), the vector of the
first p duals (`canonical_nu`; the package builds it from the identity
ladder), the chain's global coefficient index (`gamma`), the readers of the
chain and vector wire formats (`read_chain`, `read_vector`; the vector as
moment tuples), and the left-to-right windowed product of
a factor sequence (`product_window`; the package forms its products one
`multiply_window` at a time). L has no matrix type in the package, which
passes it as rows from the LU to the chain: `unit_lower` builds its matrix
form, and `split_chain` splits a given L's rows into L(1) ... L(p).
"""

import json
from fractions import Fraction
from functools import reduce

from banded_darboux import (
    BadFreeSpec,
    BandedHessenberg,
    BandMatrix,
    HypothesisViolated,
    BidiagonalChain,
    DegreeExceedsMoments,
    IndexOutOfRange,
    InsufficientMoments,
    LowerBidiagonalUnit,
    NotMonicOrDegreeGap,
    OrthogonalityReport,
    ShapeMismatch,
    ShiftedInstance,
    SingularLeadingMinor,
    Witness,
    ZeroPeelPivot,
    chain_from_instance,
    characteristic_polys,
    darboux_transform,
    UpperBidiagonal,
    delta_det,
    lambda_of,
    multiply_window,
    parse_rational,
    peel_stages,
    rational,
)
from banded_darboux.exact import integer_image


class Poly:
    """Dense univariate polynomial in z with Fraction coefficients, with
    evaluation and ring arithmetic; every result is a `Poly`, and a rational
    may stand on either side.

    Immutable. `coefficients[k]` is the coefficient of z^k; trailing zeros
    are trimmed, so the zero polynomial has an empty coefficient tuple and
    degree -1. `Poly(q)` wraps a coefficient tuple, and `.coefficients`
    gives it back; `as_polys` wraps the package's integer rows.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=()):
        coeffs = [rational(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "_coeffs", tuple(coeffs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def one(cls):
        return cls((1,))

    @property
    def coefficients(self):
        return self._coeffs

    @property
    def degree(self):
        return len(self._coeffs) - 1

    @property
    def is_zero(self):
        return not self._coeffs

    @property
    def is_monic(self):
        return bool(self._coeffs) and self._coeffs[-1] == 1

    def __eq__(self, other):
        if isinstance(other, Poly):
            return self._coeffs == other._coeffs
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    def __repr__(self):
        return f"Poly({self})"

    def __str__(self):
        """The form `format_polynomial` prints, built term by term."""
        if self.is_zero:
            return "0"
        parts = []
        for k in range(self.degree, -1, -1):
            c = self._coeffs[k]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if k == 0:
                body = str(mag)
            else:
                var = "z" if k == 1 else f"z^{k}"
                body = var if mag == 1 else f"{mag}*{var}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        text = (first_sign if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            text += f" {sign} {body}"
        return text

    def __call__(self, z):
        """Evaluate at z by Horner's scheme, exactly."""
        z = rational(z)
        acc = Fraction(0)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc

    def __add__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self.coefficients, other.coefficients
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Poly(out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(-c for c in self.coefficients)

    def __sub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = _as_poly(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero or other.is_zero:
            return Poly()
        out = [Fraction(0)] * (self.degree + other.degree + 1)
        for i, a in enumerate(self.coefficients):
            for j, b in enumerate(other.coefficients):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__


def _as_poly(value):
    if isinstance(value, Poly):
        return value
    if isinstance(value, (int, Fraction)):
        return Poly((value,))
    return NotImplemented


#: The identity polynomial z, for building e.g. (Z - c) * q.
Z = Poly((0, 1))


def fraction_polys(rows):
    """A sequence of integer rows (nums, d_n), as the package gives it, in
    coefficient-tuple form: P_n's coefficients nums[i] / d_n as Fractions."""
    return tuple(tuple(Fraction(c, d) for c in nums) for nums, d in rows)


def as_polys(rows):
    """A sequence of integer rows as `Poly`s, for arithmetic on them."""
    return tuple(Poly(q) for q in fraction_polys(rows))


def divide_exactly(poly, root):
    """poly / (z - root) by `long_division`, which must leave no remainder."""
    quot, rem = long_division(poly.coefficients, (-rational(root), 1))
    assert rem == [], f"remainder {rem} dividing by (z - {root})"
    return Poly(quot)


class Functional:
    """A functional on polynomials of degree <= max_degree, held as its
    moment tuple, with the operations the package's plain tuples lack:
    application with the degree guard, (z - c) multiplication, multiples,
    sums (keeping the moments both terms carry) and agreement over the
    common degree range."""

    __slots__ = ("moments",)

    def __init__(self, moments):
        self.moments = tuple(rational(v) for v in moments)
        if not self.moments:
            raise InsufficientMoments("a functional needs at least the degree-0 moment")

    @property
    def max_degree(self):
        return len(self.moments) - 1

    def apply(self, q):
        """The value on the polynomial with coefficient tuple q."""
        if len(q) - 1 > self.max_degree:
            raise DegreeExceedsMoments(len(q) - 1, self.max_degree)
        return sum((c * m for c, m in zip(q, self.moments)), Fraction(0))

    def shift_multiply(self, c):
        """q -> self[(z - c) q], one degree of budget less."""
        if self.max_degree < 1:
            raise InsufficientMoments("need at least two moments to multiply by (z - c)")
        c = rational(c)
        return Functional(
            self.moments[k + 1] - c * self.moments[k] for k in range(self.max_degree)
        )

    def agrees_with(self, other):
        m = min(self.max_degree, other.max_degree)
        return self.moments[: m + 1] == other.moments[: m + 1]

    def scaled(self, c):
        c = rational(c)
        return Functional(c * m for m in self.moments)

    def __add__(self, other):
        if not isinstance(other, Functional):
            return NotImplemented
        m = min(self.max_degree, other.max_degree)
        return Functional(a + b for a, b in zip(self.moments[: m + 1], other.moments[: m + 1]))


def gamma(chain, t):
    """The chain's coefficient at global index t >= 1.

    Block q >= 0 covers indices q(p+1)+1 .. q(p+1)+p+1: index q(p+1)+1 is
    U's diagonal at row q, and q(p+1)+1+j is factor j's subdiagonal entry
    at row q+1.
    """
    if t < 1:
        raise IndexOutOfRange(f"global index {t} must be >= 1")
    q, j = divmod(t - 1, chain.p + 1)
    if j == 0:
        return chain.upper.diag[q]
    return chain.factors[j - 1].sub_at_row(q + 1)


def plain_json(data):
    """A `to_json_dict()` layout with its lazy value lists (`map`s) read
    into lists, so it can be compared, measured and read more than once."""
    return json.loads(json.dumps(data, default=list))


def read_chain(data):
    """A `BidiagonalChain` from its wire format."""
    n = data["N"]
    factors = [
        LowerBidiagonalUnit(n, [parse_rational(v) for v in f["sub"]])
        for f in data["factors"]
    ]
    upper = UpperBidiagonal(n, [parse_rational(v) for v in data["U"]["diag"]])
    return BidiagonalChain(data["p"], n, parse_rational(data["C"]), factors, upper)


def read_vector(data):
    """A vector of moment tuples from its wire format (`nu_to_json_dict`);
    each functional's moment count must match its declared degree bound."""
    entries = []
    for f in data["entries"]:
        moments = tuple(parse_rational(v) for v in f["moments"])
        if len(moments) != f["M"] + 1:
            raise ShapeMismatch("moment count disagrees with declared degree bound")
        entries.append(moments)
    if not entries:
        raise ShapeMismatch("a vector needs at least one entry")
    return tuple(entries)


def catalan_hessenberg(n):
    """p = 1, diagonal 2, subdiagonal 1: the first dual functional of this
    matrix has the Catalan numbers as moments."""
    return BandedHessenberg(1, n, {0: [2] * n, -1: [0] + [1] * (n - 1)})


def dense_rows(mat, n=None):
    """Entry grid of anything exposing entry(i, j)."""
    n = mat.n if n is None else n
    return [[mat.entry(i, j) for j in range(n)] for i in range(n)]


def cofactor_det(rows):
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        sign = -1 if j % 2 else 1
        total += sign * head * cofactor_det(minor)
    return total


def dense_mul(a_rows, b_rows):
    n = len(a_rows)
    out = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        for k in range(n):
            aik = a_rows[i][k]
            if aik == 0:
                continue
            for j in range(n):
                out[i][j] += aik * b_rows[k][j]
    return out


def long_division(num, den):
    """Coefficient-list polynomial division: returns (quotient, remainder)."""
    num = [Fraction(c) for c in num]
    den = [Fraction(c) for c in den]
    while den and den[-1] == 0:
        den.pop()
    quot = [Fraction(0)] * max(len(num) - len(den) + 1, 0)
    rem = list(num)
    while len(rem) >= len(den) and any(c != 0 for c in rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) < len(den):
            break
        shift = len(rem) - len(den)
        factor = rem[-1] / den[-1]
        quot[shift] = factor
        for i, c in enumerate(den):
            rem[shift + i] -= factor * c
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def draw_rational(rng, bound=9, nonzero=False):
    num = rng.randint(-bound, bound)
    while nonzero and num == 0:
        num = rng.randint(-bound, bound)
    return Fraction(num, rng.randint(1, bound))


def random_unit_lower(rng, w, n, bound=9):
    """The rows of a random unit lower L with w subdiagonals, in the layout
    `shifted_lu` returns (see `unit_lower`); drawn band by band."""
    bands = [
        [draw_rational(rng, bound) if i + d >= 0 else Fraction(0) for i in range(n)]
        for d in range(-w, 0)
    ]
    return [list(row) for row in zip(*bands)]


def unit_lower(rows):
    """The unit lower matrix whose row i below the diagonal is rows[i] =
    [L(i, i-w), .., L(i, i-1)], 0 where the column is negative: the layout
    of `shifted_lu` and `peel_stages`."""
    n, w = len(rows), len(rows[0])
    bands = {d: [row[d + w] for row in rows] for d in range(-w, 0)}
    return BandMatrix(n, w, 0, {**bands, 0: [1] * n})


def hand_example(n):
    """The rows of the p = 2 hand example: L with subdiagonal 3 and band -2
    equal to 2, which splits as L(1) = 1 and L(2) = 2 below the diagonal
    with free entry 1."""
    return [[Fraction(2 if i >= 2 else 0), Fraction(3 if i else 0)] for i in range(n)]


def split_chain(rows, free_rows):
    """L(1) ... L(p) from L's rows (p = their width): p - 1 peel stages,
    then the last remainder's one column as L(p)."""
    factors, remainder = peel_stages(rows, free_rows, len(rows[0]) - 1)
    return factors + [LowerBidiagonalUnit(len(rows), [row[0] for row in remainder[1:]])]


def random_hessenberg_local(rng, p, n, bound=9):
    bands = {}
    for d in range(-p, 1):
        bands[d] = [
            draw_rational(rng, bound, nonzero=(d == -p)) if i + d >= 0 else Fraction(0)
            for i in range(n)
        ]
    return BandedHessenberg(p, n, bands)


def make_chain(rng, p, n, shift=Fraction(0)):
    """Random admissible instance with random free entries; retries the
    (rare) draws that land on a singular shift or a vanishing peel pivot."""
    while True:
        J = random_hessenberg_local(rng, p, n)
        try:
            inst = ShiftedInstance(J, shift)
        except SingularLeadingMinor:
            continue
        free_rows = [[draw_rational(rng) for _ in range(p - j)] for j in range(1, p)]
        try:
            return inst, chain_from_instance(inst, free_rows, n)
        except ZeroPeelPivot:
            continue


def characteristic_polys_by_polynomials(hess, nmax):
    """The band recurrence in `Poly` arithmetic."""
    if nmax > hess.valid_rows:
        raise IndexOutOfRange(f"need rows 0..{nmax - 1}, have {hess.valid_rows}")
    polys = [Poly((1,))]
    for n in range(nmax):
        acc = (Z - hess.a(n, n)) * polys[n]
        for s in range(1, hess.p + 1):
            if n - s >= 0:
                acc = acc - hess.a(n, n - s) * polys[n - s]
        polys.append(acc)
    return tuple(polys)


def dual_sequence_by_inversion(polys):
    """Duals of a monic run as the columns of the inverse of its unit lower
    triangular coefficient matrix, by forward substitution."""
    for n, poly in enumerate(polys):
        if poly.degree != n or not poly.is_monic:
            raise NotMonicOrDegreeGap(f"position {n} holds degree {poly.degree}")
    m = len(polys) - 1
    rows = [list(q.coefficients) + [Fraction(0)] * (m - q.degree) for q in polys]
    columns = []
    for j in range(m + 1):
        x = [Fraction(0)] * (m + 1)
        x[j] = Fraction(1)
        for i in range(j + 1, m + 1):
            x[i] = -sum((rows[i][k] * x[k] for k in range(j, i)), Fraction(0))
        columns.append(x)
    return tuple(map(tuple, columns))


def times_z_power(poly, k):
    """z^k * poly for a coefficient tuple, by prepending k zeros."""
    return (Fraction(0),) * k + tuple(poly) if poly else ()


def product_window(factors):
    """Left-to-right windowed product of a nonempty factor sequence."""
    return reduce(multiply_window, factors)


def plus_scaled_identity(bm, c):
    """c*I + bm as a BandMatrix with bm's widths and trustworthy rows."""
    c = rational(c)
    bands = {d: bm.band(d) for d in range(-bm.lower, bm.upper + 1)}
    bands[0] = tuple(v + c for v in bands[0])
    return BandMatrix(bm.n, bm.lower, bm.upper, bands, bm.valid_rows)


def reconstruct(chain):
    """L(1) ... L(p) U + C*I, the matrix the chain factors, by windowed
    products."""
    prod = product_window(tuple(chain.factors) + (chain.upper,))
    return plus_scaled_identity(prod, chain.shift)


def transformed_nu(nu, c, j):
    """nu(j) = (nu_{j+1}, .., nu_p, (z-c) nu_1, .., (z-c) nu_j) as moment
    tuples, formed for this j alone; every entry is cut to the common
    budget, one degree less than nu's."""
    p = len(nu)
    if not 1 <= j <= p:
        raise IndexOutOfRange(f"transform index {j} outside 1..{p}")
    moved = [Functional(f).shift_multiply(c).moments for f in nu[:j]]
    entries = list(nu[j:]) + moved
    m = min(map(len, entries))
    return tuple(tuple(f[:m]) for f in entries)


def scan_by_apply(nu, rows, p, window):
    """The staircase scan by applying each functional to z^k P_n, the
    sequence given as the scan takes it, in integer rows."""
    polys = fraction_polys(rows)
    if len(nu) != p:
        raise ShapeMismatch(f"vector has {len(nu)} entries, expected {p}")
    if len(polys) <= window:
        raise ShapeMismatch(f"need polynomials 0..{window}, got {len(polys)}")
    failures = []
    zero_checks = nonzero_checks = 0
    for r in range(1, p + 1):
        f = Functional(nu[r - 1])
        for n in range(window + 1):
            k = 0
            while k * p + r <= n:
                value = f.apply(times_z_power(polys[n], k))
                zero_checks += 1
                if value != 0:
                    failures.append(Witness("zero", r, k, n, value))
                k += 1
        k = 0
        while k * p + r - 1 <= window:
            idx = k * p + r - 1
            value = f.apply(times_z_power(polys[idx], k))
            nonzero_checks += 1
            if value == 0:
                failures.append(Witness("nonzero", r, k, idx, value))
            k += 1
    return OrthogonalityReport(p, window, zero_checks, nonzero_checks, tuple(failures))


def transformed_polys_full(chain, j, nmax):
    """The sequence of J(j) with J(j) formed over all N rows of the chain."""
    return characteristic_polys(dict(darboux_transform(chain, [j]))[j], nmax)


def recurrence_values_by_fractions(hess, z, nmax):
    """P_0(z) .. P_nmax(z) by the band recurrence in `Fraction`s."""
    if nmax > hess.valid_rows:
        raise IndexOutOfRange(f"need rows 0..{nmax - 1}, have {hess.valid_rows}")
    z = rational(z)
    values = [Fraction(1)]
    for n in range(nmax):
        acc = (z - hess.a(n, n)) * values[n]
        for s in range(1, hess.p + 1):
            if n - s >= 0:
                acc -= hess.a(n, n - s) * values[n - s]
        values.append(acc)
    return tuple(values)


def peel_stages_full(L, free_rows, stages):
    """The peel in `Fraction`s on all N rows, band by band, of the unit
    lower matrix L; the remainder is a matrix too."""
    n = L.n
    w = L.lower
    if stages < 0 or stages > w - 1:
        raise BadFreeSpec(f"cannot peel {stages} stages off {w} bands")
    if len(free_rows) < stages:
        raise BadFreeSpec(f"need free entries for {stages} stages, got {len(free_rows)}")
    cur = {d: list(L.band(d)) for d in range(-w, 0)}
    factors = []
    for j in range(1, stages + 1):
        prescribed = [rational(v) for v in free_rows[j - 1]]
        if len(prescribed) != w - 1:
            raise BadFreeSpec(f"stage {j} needs {w - 1} free entries, got {len(prescribed)}")
        sub = []
        nxt = {d: [Fraction(0)] * n for d in range(-(w - 1), 0)}

        def cur_entry(r, c):
            if c == r:
                return Fraction(1)
            if r - w <= c <= r - 1 and c >= 0:
                return cur[c - r][r]
            return Fraction(0)

        def nxt_entry(r, c):
            if c == r:
                return Fraction(1)
            if r - (w - 1) <= c <= r - 1 and c >= 0:
                return nxt[c - r][r]
            return Fraction(0)

        for r in range(1, n):
            if r <= w - 1:
                s = prescribed[r - 1]
            else:
                divisor = nxt_entry(r - 1, r - w)
                numerator = cur_entry(r, r - w)
                if divisor != 0:
                    s = numerator / divisor
                elif numerator != 0 or r < n - 1:
                    raise ZeroPeelPivot(j, r, vacuous=numerator == 0)
                else:
                    s = Fraction(0)
            sub.append(s)
            for c in range(max(0, r - (w - 1)), r):
                nxt[c - r][r] = cur_entry(r, c) - s * nxt_entry(r - 1, c)
        factors.append(LowerBidiagonalUnit(n, sub))
        cur = nxt
        w -= 1
    remainder = BandMatrix(n, w, 0, {**cur, 0: [1] * n})
    return factors, remainder


def darboux_transform_chained(chain, j):
    """J(j) as C*I plus the product L(j+1) .. L(p) U L(1) .. L(j), taken
    left to right in one chain."""
    seq = chain.factors[j:] + (chain.upper,) + chain.factors[:j]
    prod = plus_scaled_identity(product_window(seq), chain.shift)
    return BandedHessenberg.from_band_matrix(prod, chain.p, 0)


# The Mersenne prime 2^61 - 1: the Freivalds check works on residues mod it.
FREIVALDS_Q = (1 << 61) - 1


def _mod_q(values):
    """Each rational as a residue mod FREIVALDS_Q (ValueError when q divides
    a denominator)."""
    q = FREIVALDS_Q
    return [v.numerator * pow(v.denominator, -1, q) % q for v in values]


def freivalds_mismatches(chain, hess, j, rng):
    """Rows where (hess - C*I) x and L(j+1) .. L(p) U L(1) .. L(j) x differ
    mod q = 2^61 - 1, for one random vector x: an empty list when hess is
    J(j) of the chain, but for a wrong row with chance 1/q.

    The chain's N x N truncations are multiplied into x right to left, one
    bidiagonal factor at a time. A lower factor reads x's earlier rows only,
    so J - C*I = L(1) .. L(p) U holds on all N rows (j = 0, hess the source
    J); U reads the row below, past the edge on the last row, so for j >= 1
    the rows 0 .. N-2 are checked.
    """
    q, n, p = FREIVALDS_Q, chain.n, chain.p
    subs = [[0] + _mod_q(f.sub) for f in chain.factors]
    diag = _mod_q(chain.upper.diag)
    (c,) = _mod_q([chain.shift])

    def lower(k, v):
        s = subs[k - 1]
        return [v[0]] + [(v[r] + s[r] * v[r - 1]) % q for r in range(1, n)]

    x = [rng.randrange(q) for _ in range(n)]
    y = x
    for k in range(j, 0, -1):
        y = lower(k, y)
    y = [(diag[r] * y[r] + (y[r + 1] if r + 1 < n else 0)) % q for r in range(n)]
    for k in range(p, j, -1):
        y = lower(k, y)
    bands = {d: _mod_q(hess.band(d)) for d in range(-p, 2)}
    rows = n if j == 0 else n - 1
    mismatches = []
    for i in range(rows):
        value = -c * x[i]
        for d, band in bands.items():
            if 0 <= i + d < n:
                value += band[i] * x[i + d]
        if value % q != y[i]:
            mismatches.append(i)
    return mismatches


def g_matrix(chain, j):
    """The (p+1)-banded Hessenberg G(j) = L(j+2) ... L(p) U L(1) ... L(j).

    Row n of G(j) expresses the multiplied-by-(z - C) stage-(j+1) sequence
    over the stage-j one:

        (z - C) Q'_n = sum_m G(n, m) Q_m,

    supported on m = n-p+1 .. n+1 with G(n, n+1) = 1; its lowest band is
    nonzero whenever every chain coefficient is.
    """
    if not 0 <= j <= chain.p - 1:
        raise IndexOutOfRange(f"index {j} outside 0..{chain.p - 1}")
    return product_window(chain.factors[j + 1:] + (chain.upper,) + chain.factors[:j])


def solve_unit_lower_triangular(t, b):
    """Solve T x = b by forward substitution, T a unit lower triangular
    `DenseMatrix`."""
    n = t.rows
    if t.cols != n or len(b) != n:
        raise ShapeMismatch(f"system is {t.rows}x{t.cols} with rhs of length {len(b)}")
    for i in range(n):
        if t.entry(i, i) != 1:
            raise ShapeMismatch(f"diagonal entry ({i},{i}) is {t.entry(i, i)}, not 1")
    x = []
    for i in range(n):
        x.append(rational(b[i]) - sum((t.entry(i, k) * x[k] for k in range(i)), Fraction(0)))
    return tuple(x)


def transport_identity_by_dense(factors, stage_ladders, j, s):
    """`staircase_transport_identity` as dense products: the leading s x s
    blocks of L(1) .. L(j), multiplied left to right, times stair_j(s)."""
    lhs = DenseMatrix.identity(s)
    for factor in factors[:j]:
        lhs = lhs * DenseMatrix.from_function(s, s, factor.entry)
    stage, source = stage_ladders[j], stage_ladders[0]
    stair = DenseMatrix.from_function(s, s, lambda r, c: stage.value(c + 2, r))
    slab = DenseMatrix.from_function(s, s, lambda r, c: source.value(j + 2 + c, r))
    return lhs * stair == slab


def source_ladder(built, nu):
    """The ladder of a generated vector nu, read on P_0 .. P_{p-1} of the
    source as `run_theorem` reads it."""
    return lambda_of(nu, characteristic_polys(built.instance.J, len(nu)))


def canonical_nu(duals, p):
    """The existence witness (dual_0, .., dual_{p-1}): the oracle for the
    vector `build_nu` makes from the identity ladder, the canonical source."""
    return tuple(duals[:p])


def check_hypotheses(ladder, p):
    """Every staircase minor Delta_j(m) the theorem needs, as (j, m, value);
    raises HypothesisViolated on the first zero. For p = 1 the table is
    empty: the full rotation needs no minor hypothesis."""
    ladder.check_regular()
    table = [(j, m, delta_det(ladder, j, m)) for j in range(p) for m in range(1, p - j)]
    for j, m, value in table:
        if value == 0:
            raise HypothesisViolated(j, m, value)
    return table


class NotSquare(ValueError):
    """Determinant requested for a non-square matrix."""


class DenseMatrix:
    """Small immutable dense matrix of Fractions (row-major)."""

    __slots__ = ("_rows",)

    def __init__(self, rows):
        grid = tuple(tuple(rational(v) for v in row) for row in rows)
        if grid:
            width = len(grid[0])
            if any(len(row) != width for row in grid):
                raise ShapeMismatch("ragged rows")
        object.__setattr__(self, "_rows", grid)

    def __setattr__(self, name, value):
        raise AttributeError("DenseMatrix is immutable")

    @classmethod
    def identity(cls, n):
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @classmethod
    def from_function(cls, rows, cols, fn):
        return cls(tuple(tuple(fn(i, j) for j in range(cols)) for i in range(rows)))

    @property
    def rows(self):
        return len(self._rows)

    @property
    def cols(self):
        return len(self._rows[0]) if self._rows else 0

    def entry(self, i, j):
        return self._rows[i][j]

    def as_rows(self):
        return self._rows

    def __mul__(self, other):
        if not isinstance(other, DenseMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} times {other.rows}x{other.cols}")
        ocols = other.cols
        out = []
        for i in range(self.rows):
            arow = self._rows[i]
            out.append(
                tuple(
                    sum((arow[k] * other._rows[k][j] for k in range(self.cols)), Fraction(0))
                    for j in range(ocols)
                )
            )
        return DenseMatrix(out)

    def __eq__(self, other):
        if isinstance(other, DenseMatrix):
            return self._rows == other._rows
        return NotImplemented

    def __hash__(self):
        return hash(self._rows)

    def __repr__(self):
        body = "; ".join(" ".join(str(v) for v in row) for row in self._rows)
        return f"DenseMatrix[{body}]"


def det_exact(m):
    """Exact determinant of a `DenseMatrix` by fraction-free (Bareiss)
    elimination over rows scaled to integers; a row swap flips the sign.
    The oracle for the elimination that `delta_det` runs on ladder rows."""
    if m.rows != m.cols:
        raise NotSquare(f"{m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return Fraction(1)
    scale = 1
    work = []
    for row in m.as_rows():
        ints, mult = integer_image(row)
        scale *= mult
        work.append(ints)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if work[k][k] == 0:
            for i in range(k + 1, n):
                if work[i][k] != 0:
                    work[k], work[i] = work[i], work[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        pivot = work[k][k]
        for i in range(k + 1, n):
            row_i = work[i]
            row_k = work[k]
            lead = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - lead * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1], scale)
