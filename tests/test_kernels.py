"""Differential tests: each integer kernel against its Fraction oracle.

The oracles in helpers.py are the routes the kernels replaced. Inputs are
bounded (p = 1..4, 1..5 for the characteristic sequences, N <= 16,
N <= 24 for chains, peels, instances and CLI configs) and draw every band
entry, the diagonal and the lowest band included, from num/den with
|num| <= bound and 1 <= den <= bound, so zeros and large denominators both
occur. The residue tails of the LU and the
peel are checked against the exact route on all N rows, including inputs
built so that a residue cannot decide, and their residue scalar against
Fraction arithmetic mod q.
"""

from contextlib import ExitStack, contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction
import io
from itertools import accumulate
import json
from math import gcd, lcm
from operator import mul
from pathlib import Path
import sys
import tempfile
from unittest import mock

from hypothesis import assume, given, settings
from hypothesis import strategies as st
import pytest

from banded_darboux import (
    BandedHessenberg,
    BidiagonalChain,
    DegreeExceedsMoments,
    IndexOutOfRange,
    InstanceConfig,
    LambdaLadder,
    LowerBidiagonalUnit,
    ShiftedInstance,
    SingularLeadingMinor,
    UpperBidiagonal,
    ZeroPeelPivot,
    build_nu,
    chain_from_instance,
    characteristic_polys,
    darboux_transform,
    dual_sequence,
    generate,
    is_p_orthogonal,
    moment_budget,
    peel_stages,
    recurrence_values,
    run_theorem,
    shifted_lu,
    transformed_polys,
    vector,
)
from banded_darboux import BandMatrix, banded, engine, factorization
from banded_darboux.cli import main
from banded_darboux.exact import integer_image
from helpers import (
    characteristic_polys_by_polynomials,
    darboux_transform_chained,
    dual_sequence_by_inversion,
    entry,
    peel_stages_full,
    plain_json,
    recurrence_values_by_fractions,
    scan_by_apply,
    transformed_nu,
    transformed_polys_full,
    unit_lower,
)

BOUNDS = (1, 9, 1000)


def rationals(bound, nonzero=False):
    if nonzero:
        nums = st.integers(1, bound) | st.integers(-bound, -1)
    else:
        nums = st.integers(-bound, bound)
    return st.builds(Fraction, nums, st.integers(1, bound))


@st.composite
def hessenbergs(draw, max_p=4):
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(1, 16))
    bound = draw(st.sampled_from(BOUNDS))
    bands = {
        -d: [draw(rationals(bound)) if i >= d else 0 for i in range(n)]
        for d in range(p + 1)
    }
    return BandedHessenberg(p, n, bands), bound


@st.composite
def chains(draw, max_p=4):
    """Any chain: the rotations need no LU behind it, so every coefficient,
    the shift included, is drawn freely."""
    p = draw(st.integers(1, max_p))
    n = draw(st.integers(1, 24))
    bound = draw(st.sampled_from(BOUNDS))

    def entries(size):
        return draw(st.lists(rationals(bound), min_size=size, max_size=size))

    factors = [LowerBidiagonalUnit(n, entries(n - 1)) for _ in range(p)]
    return BidiagonalChain(p, n, draw(rationals(bound)), factors, UpperBidiagonal(n, entries(n)))


def scan_outcome(scan, nu, polys, p, window):
    """The report, or the arguments of the budget error."""
    try:
        return scan(nu, polys, p, window)
    except DegreeExceedsMoments as exc:
        return ("DegreeExceedsMoments", exc.degree, exc.max_degree)


def assert_reduced_integer_rows(J, nmax):
    """characteristic_polys is the integer image of the `Poly` recurrence,
    row for row: (nums, d_n), d_n > 0, monic (nums[-1] == d_n) and in
    lowest terms. An unreduced row holds the same values, so only this
    contract shows it."""
    rows = characteristic_polys(J, nmax)
    slow = characteristic_polys_by_polynomials(J, nmax)
    assert len(rows) == len(slow) == nmax + 1
    for n, (row, poly) in enumerate(zip(rows, slow)):
        assert row == integer_image(poly.coefficients)
        nums, d = row
        assert len(nums) == n + 1 and d > 0 and nums[-1] == d
        assert gcd(d, *nums) == 1


@settings(max_examples=60, deadline=None)
@given(case=hessenbergs(max_p=5), data=st.data())
def test_characteristic_polys_matches_polynomial_recurrence(case, data):
    J, _ = case
    assert_reduced_integer_rows(J, data.draw(st.integers(0, J.n)))


@settings(max_examples=30, deadline=None)
@given(chain=chains(max_p=5))
def test_characteristic_polys_of_rotations_match_polynomial_recurrence(chain):
    # A rotation's band entries have large denominators with no common
    # factor, which hessenbergs() does not draw; each term of a recurrence
    # row then lies over a different denominator.
    for j, J in darboux_transform(chain, range(chain.p + 1)):
        assert_reduced_integer_rows(J, J.valid_rows)


@settings(max_examples=60, deadline=None)
@given(case=hessenbergs(), data=st.data())
def test_dual_sequence_matches_inversion(case, data):
    J, _ = case
    nmax = data.draw(st.integers(0, J.n))
    fast = dual_sequence(J, nmax)
    slow = dual_sequence_by_inversion(characteristic_polys_by_polynomials(J, nmax))
    assert len(fast) == len(slow) == nmax + 1
    assert fast == slow


@settings(max_examples=80, deadline=None)
@given(case=hessenbergs(), data=st.data())
def test_scan_matches_apply(case, data):
    J, bound = case
    n = J.n
    # A (J.p + 2)-term recurrence is also (p + 2)-term for every p >= J.p,
    # so the scan's certificate must hold at any such p.
    p = data.draw(st.integers(J.p, J.p + 2))
    polys = characteristic_polys(J, n)
    window = data.draw(st.integers(1, n))
    # A ladder vector needs p duals, that is n + 1 >= p.
    kinds = ("ladder", "perturbed", "random") if n + 1 >= p else ("random",)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "random":
        # Arbitrary moments: mostly failing, with a budget that may be short.
        size = data.draw(st.integers(1, 2 * n))
        nu = tuple(
            tuple(data.draw(st.lists(rationals(bound), min_size=size, max_size=size)))
            for _ in range(p)
        )
    else:
        # A regular ladder over the duals meets every zero condition its
        # budget covers (at p > J.p some nonzero conditions may fail); one
        # perturbed moment makes zero conditions fail with nonzero values.
        ladder = LambdaLadder(
            [[data.draw(rationals(bound)) for _ in range(i - 1)]
             + [data.draw(rationals(bound, nonzero=True))] for i in range(1, p + 1)]
        )
        nu = build_nu(ladder, dual_sequence(J, n))
        if kind == "perturbed":
            r = data.draw(st.integers(0, p - 1))
            # Half the draws land near the window, where the certificate's
            # last row reads degrees W + 1 .. W + (W - r) // p.
            k = data.draw(
                st.integers(max(0, window - p), min(n, window + window // p + 1))
                | st.integers(0, n)
            )
            moments = list(nu[r])
            moments[k] += data.draw(rationals(bound, nonzero=True))
            nu = (*nu[:r], tuple(moments), *nu[r + 1:])
    assert scan_outcome(is_p_orthogonal, nu, polys, p, window) == scan_outcome(
        scan_by_apply, nu, polys, p, window
    )


@settings(max_examples=30, deadline=None)
@given(chain=chains())
def test_rotation_on_leading_block_matches_full_chain(chain):
    n = chain.n
    assert plain_json(chain.leading(n).to_json_dict()) == plain_json(chain.to_json_dict())
    for j in range(chain.p + 1):
        full = dict(darboux_transform(chain, [j]))[j]
        for nmax in range(full.valid_rows + 1):
            [(_, fast)] = transformed_polys(chain, nmax, [j])
            slow = transformed_polys_full(chain, j, nmax)
            assert fast == slow
        for m in range(1, n + 1):
            lead = dict(darboux_transform(chain.leading(m), [j]))[j]
            assert lead.valid_rows == (m if j == 0 else m - 1)
            for i in range(lead.valid_rows):
                for c in range(m):
                    assert entry(lead, i, c) == entry(full, i, c)


# The modulus of the LU's and the peel's residue checks, 2^61 - 1.
Q = (1 << 61) - 1


@settings(max_examples=60, deadline=None)
@given(case=hessenbergs(), data=st.data())
def test_recurrence_values_matches_fraction_recurrence(case, data):
    J, bound = case
    # A diagonal entry as the point makes P_1 vanish; a drawn one mostly not.
    z = data.draw(rationals(bound) | st.sampled_from([J.a(i, i) for i in range(J.n)]))
    nums = recurrence_values(J, z, J.n)
    slow = recurrence_values_by_fractions(J, z, J.n)
    # P_n(z) = nums[n] / d_n with d_n = e_0 .. e_{n-1}, e_m the lcm of z's
    # and row m's band denominators.
    scales = [
        lcm(z.denominator, *(J.a(m, c).denominator for c in range(max(0, m - J.p), m + 1)))
        for m in range(J.n)
    ]
    dens = list(accumulate(scales, mul, initial=1))
    assert all(type(v) is int for v in nums)
    assert [Fraction(a, b) for a, b in zip(nums, dens)] == list(slow)
    assert [a == 0 for a in nums] == [v == 0 for v in slow]
    first_zero = next((n for n in range(1, J.n + 1) if slow[n] == 0), None)
    try:
        ShiftedInstance(J, z)
    except SingularLeadingMinor as exc:
        assert exc.index == first_zero
    else:
        assert first_zero is None


@st.composite
def unit_lowers(draw):
    """The rows of a unit lower L with 1..4 bands and N <= 24 (see
    `unit_lower`), free entries for every stage, and a stage count."""
    w = draw(st.integers(1, 4))
    n = draw(st.integers(1, 24))
    bound = draw(st.sampled_from(BOUNDS))
    bands = [
        [draw(rationals(bound)) if i >= d else Fraction(0) for i in range(n)]
        for d in range(1, w + 1)
    ]
    rows = [list(row) for row in zip(*reversed(bands))]
    free = [[draw(rationals(bound)) for _ in range(w - j)] for j in range(1, w)]
    return rows, free, draw(st.integers(0, w - 1))


def peel_outcome(peel):
    """Each factor's size and subdiagonal and the remainder's size, band
    count and bands, or the (stage, row) of the zero pivot."""
    try:
        factors, remainder = peel()
    except ZeroPeelPivot as exc:
        return ("ZeroPeelPivot", exc.stage, exc.row)
    return (
        [(f.n, f.sub) for f in factors],
        (remainder.n, remainder.lower),
        [remainder.band(d) for d in range(-remainder.lower, 0)],
    )


@settings(max_examples=60, deadline=None)
@given(case=unit_lowers())
def test_peel_matches_full_exact_peel(case):
    # The peel of L's rows against the band-by-band peel of its matrix.
    L, free, stages = case

    def fast():
        factors, remainder = peel_stages(L, free, stages)
        return factors, unit_lower(remainder)

    assert peel_outcome(fast) == peel_outcome(
        lambda: peel_stages_full(unit_lower(L), free, stages)
    )


def residue(v):
    return v.numerator * pow(v.denominator, -1, Q) % Q


def residue_rows(L, first):
    """L's rows first .. N-1 mod Q."""
    return [[residue(v) for v in row] for row in L[first:]]


def normalised(rows):
    """Rows of residue scalars (num, den) as plain residues."""
    assert all(0 < x.den < Q for row in rows for x in row)
    return [[x.num * pow(x.den, -1, Q) % Q for x in row] for row in rows]


# Operands of the residue scalar: small rationals, and rationals whose
# numerator or denominator lies near a multiple of q.
near_q = st.integers(-2, 2).map(lambda d: Q + d) | st.integers(-2, 2).map(lambda d: 3 * Q + d)
scalar_operands = st.builds(
    Fraction, st.integers(-9, 9) | near_q, st.integers(1, 9) | near_q.filter(lambda d: d % Q)
)


@settings(max_examples=200, deadline=None)
@given(a=scalar_operands, b=scalar_operands)
def test_residue_scalar_matches_fraction_arithmetic_mod_q(a, b):
    # -, * and / of two residues, or of a residue and a Fraction (either
    # side of - and /), are the images of the exact results; a nonzero
    # residue tests nonzero, and a residue of 0 decides nothing.
    lift = factorization._residue
    undecided = factorization._UndecidedResidue
    plain = lambda x: x.num * pow(x.den, -1, Q) % Q
    assert plain(lift(a) * lift(b)) == plain(lift(a) * b) == residue(a * b)
    for x, y in ((lift(a), lift(b)), (lift(a), b), (a, lift(b))):
        assert plain(x - y) == residue(a - b)
        if residue(b):
            assert plain(x / y) == residue(a / b)
        else:
            with pytest.raises(undecided):
                x / y
    for v in (a, b):
        if residue(v):
            assert bool(lift(v)) is True
        else:
            with pytest.raises(undecided):
                bool(lift(v))
    # Zero, and a nonzero multiple of q: a zero test and a division raise.
    for zero in (Fraction(0), Fraction(Q), Fraction(-3 * Q, 7)):
        with pytest.raises(undecided):
            bool(lift(zero))
        with pytest.raises(undecided):
            lift(a) / lift(zero)
        with pytest.raises(undecided):
            a / lift(zero)
    # A denominator divisible by q has no image.
    with pytest.raises(undecided):
        lift(Fraction(a.numerator * Q + 1, Q * a.denominator))


@settings(max_examples=60, deadline=None)
@given(case=unit_lowers())
def test_residue_stage_matches_exact_stage(case):
    # Each stage on exact rows followed by residue rows, switching at every
    # row past the free entries, against the exact stage on all N rows: the
    # same exact rows and factor entries, the same residue rows mod Q, and
    # undecided exactly when a divisor past the switch is zero.
    exact, free, stages = case
    n, w = len(exact), len(exact[0])
    for j in range(1, stages + 1):
        prescribed = [Fraction(v) for v in free[j - 1]]
        try:
            sub, out = factorization._stage_rows(exact, prescribed, j, w)
        except ZeroPeelPivot:
            return
        for rows in range(w, n):
            tail = [[factorization._residue(v) for v in row] for row in exact[rows:]]
            zero = any(out[r - 1][0] == 0 for r in range(rows, n))
            try:
                got_sub, got = factorization._stage_rows(exact[:rows] + tail, prescribed, j, w)
            except factorization._UndecidedResidue:
                assert zero
            else:
                assert not zero
                assert got_sub[: rows - 1] == sub[: rows - 1] and got[:rows] == out[:rows]
                assert normalised(got[rows:]) == residue_rows(out, rows)
        exact, w = out, w - 1


@st.composite
def instances(draw):
    """A Hessenberg J with N <= 24, a shift and free entries, all drawn."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(p + 1, 24))
    bound = draw(st.sampled_from(BOUNDS))
    bands = {
        -d: [draw(rationals(bound, nonzero=(d == p))) if i >= d else 0 for i in range(n)]
        for d in range(p + 1)
    }
    free_rows = [[draw(rationals(bound)) for _ in range(p - j)] for j in range(1, p)]
    return BandedHessenberg(p, n, bands), draw(rationals(bound)), free_rows


def full_chain(inst, free_rows):
    """The chain over all N rows through the oracle peel."""
    L, U, _ = shifted_lu(inst, inst.n)
    factors, remainder = peel_stages_full(unit_lower(L), free_rows, inst.p - 1)
    factors.append(LowerBidiagonalUnit(inst.n, remainder.band(-1)[1:]))
    return BidiagonalChain(inst.p, inst.n, inst.shift, factors, U)


@settings(max_examples=60, deadline=None)
@given(case=instances())
def test_zero_peel_divisor_never_meets_a_zero_numerator(case):
    # With J's band -p nonzero, L's lowest band is, and each stage's
    # divisors form the next remainder's lowest band on every row but the
    # last. So a stage that stops at a zero divisor has a nonzero numerator
    # there, and no chain with these free entries exists. The last row's
    # numerator was no divisor of the stage before; a 0/0 there peels.
    J, shift, free = case
    n = J.n
    try:
        L, _, _ = shifted_lu(ShiftedInstance(J, shift), n)
    except SingularLeadingMinor:
        return
    block, w = L, J.p
    assert all(row[0] != 0 for row in block[w:])
    for j, prescribed in enumerate(free, start=1):
        try:
            _, block = factorization._stage_rows(block, prescribed, j, w)
        except ZeroPeelPivot as exc:
            assert block[exc.row][0] != 0
            assert str(exc).endswith("no chain with the staged free entries exists")
            return
        w -= 1
        assert all(row[0] != 0 for row in block[w : n - 1])


@settings(max_examples=40, deadline=None)
@given(case=instances())
def test_chain_on_leading_rows_matches_full_chain(case):
    J, shift, free = case
    try:
        inst = ShiftedInstance(J, shift)
    except SingularLeadingMinor:
        assert 0 in recurrence_values_by_fractions(J, shift, J.n)[1:]
        return
    for rows in range(1, inst.p):
        with pytest.raises(IndexOutOfRange):
            chain_from_instance(inst, free, rows)
    try:
        slow = full_chain(inst, free)
    except ZeroPeelPivot as exc:
        for rows in range(inst.p, inst.n + 1):
            try:
                chain_from_instance(inst, free, rows)
            except ZeroPeelPivot as got:
                assert (got.stage, got.row) == (exc.stage, exc.row)
            else:
                raise AssertionError(f"rows={rows} missed ZeroPeelPivot{exc.stage, exc.row}")
        return
    for rows in range(inst.p, inst.n + 1):
        chain = chain_from_instance(inst, free, rows)
        assert plain_json(chain.to_json_dict()) == plain_json(slow.leading(rows).to_json_dict())
    j0 = dict(darboux_transform(chain, [0]))[0]
    assert j0 == J and j0.valid_rows == J.n


@settings(max_examples=40, deadline=None)
@given(case=instances())
def test_lu_on_leading_rows_matches_full_exact_lu(case):
    J, shift, _ = case
    try:
        inst = ShiftedInstance(J, shift)
    except SingularLeadingMinor:
        return
    n, p = inst.n, inst.p
    L, U, tail = shifted_lu(inst, n)
    assert tail == [] and len(L) == U.n == n
    assert all(len(row) == p for row in L)
    for rows in range(1, p):
        with pytest.raises(IndexOutOfRange):
            shifted_lu(inst, rows)
    for rows in range(p, n + 1):
        lead, upper, tail = shifted_lu(inst, rows)
        assert upper.n == rows
        assert lead == L[:rows]
        assert upper.diag == U.diag[:rows]
        if p == 1:
            # The split peels no stage, so no tail is computed.
            assert tail == []
        else:
            assert normalised(tail) == residue_rows(L, rows)


def chain_outcome(build):
    """The chain as JSON, or the (stage, row) of the zero peel pivot."""
    try:
        return plain_json(build().to_json_dict())
    except ZeroPeelPivot as exc:
        return ("ZeroPeelPivot", exc.stage, exc.row)


@settings(max_examples=60, deadline=None)
@given(
    case=instances(),
    kind=st.sampled_from(["pivot", "entry"]),
    forced=st.sampled_from([Fraction(Q), Fraction(-Q, 7)]),
    data=st.data(),
)
def test_undecided_lu_tail_reruns_the_exact_chain(case, kind, forced, data):
    # Row k, past the exact rows, gets a pivot u_k that is a nonzero
    # multiple of q (residue 0), or an in-band entry of denominator q. The
    # LU's residue rows cannot decide either, so at p >= 2
    # chain_from_instance reruns the chain with shifted_lu on all N rows.
    # k is drawn from the last row up. Row k + 1 divides by u_k, so a pivot
    # comes from rows p .. N-2; no row divides by u_{N-1}, which
    # admissibility already shows nonzero, and nothing tests it.
    J, shift, free = case
    n, p = J.n, J.p
    last = n - 1 if kind == "entry" else n - 2
    assume(last >= p)
    k = last - data.draw(st.integers(0, last - p))
    rows = data.draw(st.integers(p, k))
    bands = {-d: list(J.band(-d)) for d in range(p + 1)}
    if kind == "entry":
        d = data.draw(st.integers(0, min(p, k)))
        bands[-d][k] += Fraction(data.draw(st.integers(1, 5)), Q)
    else:
        # L's row k does not read a(k, k), so a(k, k) = C + L(k, k-1) + forced
        # makes u_k = forced.
        try:
            L, _, _ = shifted_lu(ShiftedInstance(J, shift), n)
        except SingularLeadingMinor:
            return
        bands[0][k] = shift + L[k][p - 1] + forced
    try:
        inst = ShiftedInstance(BandedHessenberg(p, n, bands), shift)
    except SingularLeadingMinor:
        return
    spy = mock.Mock(wraps=factorization.shifted_lu)
    with mock.patch.object(factorization, "shifted_lu", spy):
        fast = chain_outcome(lambda: chain_from_instance(inst, free, rows))
    # At p = 1 no tail is computed, so nothing is left to decide.
    assert [c.args[1] for c in spy.call_args_list] == ([rows] if p == 1 else [rows, n])
    assert fast == chain_outcome(lambda: full_chain(inst, free).leading(rows))


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(4, 24),
    bound=st.sampled_from(BOUNDS),
    forced=st.sampled_from([Fraction(Q), Fraction(3 * Q), Fraction(-Q, 7)]),
    data=st.data(),
)
def test_undecided_peel_tail_reruns_the_exact_chain(n, bound, forced, data):
    # J = C*I + L U with p = 2, band -2 of L zero through row k, L's
    # subdiagonal nonzero and free entry 0: every s(r) up to row k is 0, so
    # the peel divisor of row k+1 is L(k, k-1) itself. Setting it to a nonzero multiple of q leaves its
    # residue 0 past the exact rows, while U's small nonzero diagonal keeps
    # every LU pivot decided, so only the peel tail sends chain_from_instance
    # to its rerun on all N rows.
    k = data.draw(st.integers(2, n - 2))
    rows = data.draw(st.integers(2, k))
    sub = [data.draw(rationals(bound, nonzero=True)) for _ in range(n - 1)]
    sub[k - 1] = forced
    low = [Fraction(0)] * (k + 1) + [data.draw(rationals(bound)) for _ in range(n - k - 1)]
    L = BandMatrix(n, 2, 0, {-1: [0] + sub, -2: low, 0: [1] * n})
    u = [data.draw(rationals(bound, nonzero=True)) for _ in range(n)]
    shift = data.draw(rationals(bound))
    # A(i, m) = L(i, m) u_m + L(i, m-1) for A = J - C*I = L U.
    bands = {
        -d: [
            entry(L, i, i - d) * u[i - d] + (entry(L, i, i - d - 1) if i > d else 0)
            if i >= d else 0
            for i in range(n)
        ]
        for d in range(1, 3)
    }
    bands[0] = [shift + u[i] + (entry(L, i, i - 1) if i else 0) for i in range(n)]
    inst = ShiftedInstance(BandedHessenberg(2, n, bands), shift)
    free = [[0]]
    spy = mock.Mock(wraps=factorization.shifted_lu)
    with mock.patch.object(factorization, "shifted_lu", spy):
        fast = chain_outcome(lambda: chain_from_instance(inst, free, rows))
    assert [c.args[1] for c in spy.call_args_list] == [rows, n]
    assert fast == chain_outcome(lambda: full_chain(inst, free).leading(rows))


@st.composite
def cli_configs(draw):
    """A valid small config; p <= 4 keeps the p duals within the budget."""
    p = draw(st.integers(1, 4))
    window = draw(st.integers(1, 8))
    n = draw(st.integers(max(moment_budget(window, p), window + p + 1), 24))
    return {
        "p": p,
        "N": n,
        "window": window,
        "seed": draw(st.integers(0, 10**6)),
        "bound": draw(st.sampled_from(BOUNDS)),
        "C": draw(st.sampled_from(["0", "1", "-1/2"])),
        "nu": {"source": draw(st.sampled_from(["random", "canonical"]))},
    }


def run_command(command, config_path, report_dir):
    """Exit code, stdout, stderr and report payload (None if no report)."""
    report = Path(report_dir) / f"{command}.json"
    report.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([command, "--config", str(config_path), "--report-dir", report_dir])
    payload = json.loads(report.read_text())["payload"] if report.exists() else None
    return code, out.getvalue(), err.getvalue(), payload


@settings(max_examples=60, deadline=None)
@given(config=cli_configs(), command=st.sampled_from(["polys", "verify"]))
def test_cli_on_leading_rows_matches_the_exact_route(config, command):
    # The exact route: every chain built exactly on all N rows, then cut to
    # the rows the command keeps.
    chain = factorization._chain
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        fast = run_command(command, path, tmp)
        with mock.patch.object(
            factorization, "_chain",
            lambda inst, free_rows, rows: chain(inst, free_rows, inst.n).leading(rows),
        ):
            slow = run_command(command, path, tmp)
    assert fast == slow


@settings(max_examples=30, deadline=None)
@given(chain=chains())
def test_rotations_from_shared_halves_match_chained_product(chain):
    rotations = dict(darboux_transform(chain, range(1, chain.p + 1)))
    assert list(rotations) == list(range(1, chain.p + 1))
    for j in range(chain.p + 1):
        slow = darboux_transform_chained(chain, j)
        for got in (dict(darboux_transform(chain, [j]))[j], rotations.get(j)):
            if got is None:
                continue
            assert got == slow
            assert (got.lower, got.upper, got.valid_rows) == (
                slow.lower, slow.upper, slow.valid_rows
            )
            assert plain_json(got.to_json_dict()) == plain_json(slow.to_json_dict())


@contextmanager
def counted_products():
    """A Mock wrapping multiply_window, patched in at every module global of
    the package bound to it, so that it counts every windowed product."""
    sites = [
        (module, name)
        for key, module in list(sys.modules.items())
        if key.startswith("banded_darboux") and module is not None
        for name, value in vars(module).items()
        if value is banded.multiply_window
    ]
    assert (banded, "multiply_window") in sites and (factorization, "multiply_window") in sites
    counted = mock.Mock(wraps=banded.multiply_window)
    with ExitStack() as stack:
        for module, name in sites:
            stack.enter_context(mock.patch.object(module, name, counted))
        yield counted


@settings(max_examples=40, deadline=None)
@given(chain=chains(), data=st.data())
def test_rotations_built_once_for_any_index_set(chain, data):
    # Only the halves the requested j reach: p - min js heads, max js - 1
    # tails and one product per j >= 1 to join them.
    p = chain.p
    js = data.draw(st.sets(st.integers(0, p), min_size=1))
    with counted_products() as counted:
        rotations = dict(darboux_transform(chain, js))
    assert list(rotations) == sorted(js)
    expected = (p - min(js)) + max(max(js) - 1, 0) + sum(1 for j in js if j >= 1)
    assert counted.call_count == expected
    for j, got in rotations.items():
        slow = darboux_transform_chained(chain, j)
        assert got == slow
        assert (got.lower, got.upper, got.valid_rows) == (
            slow.lower, slow.upper, slow.valid_rows
        )
        assert plain_json(got.to_json_dict()) == plain_json(slow.to_json_dict())


def test_rotations_take_3p_minus_2_products():
    # The shared halves: 3p - 2 products for all of J(1..p), against p per
    # J(j) one at a time (p^2 for J(1..p)). verify (run_theorem) and polys
    # form J(1..p) in one builder call, so they take 3p - 2 too.
    for p in range(1, 5):
        n = 6
        factors = [LowerBidiagonalUnit(n, [j] * (n - 1)) for j in range(1, p + 1)]
        chain = BidiagonalChain(p, n, 2, factors, UpperBidiagonal(n, [3] * n))
        with counted_products() as counted:
            list(darboux_transform(chain, range(1, p + 1)))
            assert counted.call_count == 3 * p - 2
            one_at_a_time = 0
            for j in range(p + 1):
                counted.reset_mock()
                list(darboux_transform(chain, [j]))
                assert counted.call_count == p
                one_at_a_time += counted.call_count if j else 0
            assert one_at_a_time == p * p
        config = {"p": p, "N": 20, "window": 8, "seed": p}
        cfg = InstanceConfig.from_json_dict(config)
        built = generate(cfg)
        with counted_products() as counted:
            assert run_theorem(built.instance, vector(built, cfg.moment_budget), 8).passed
        assert counted.call_count == 3 * p - 2
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            with counted_products() as counted:
                code, _, _, payload = run_command("polys", path, tmp)
            assert code == 0 and list(payload["sequences"]) == [str(j) for j in range(p + 1)]
            assert counted.call_count == 3 * p - 2


def test_rotations_are_formed_only_as_the_iterator_reaches_them():
    # The heads are all built before J(1), since S(2) needs S(3) .. S(p+1):
    # p - 1 products, then J(1)'s join. Each later J(j) takes its tail and
    # its join only when the iterator reaches it, so no product of a later
    # j has run before; the call itself forms nothing.
    for p in range(1, 5):
        n = 6
        factors = [LowerBidiagonalUnit(n, [j] * (n - 1)) for j in range(1, p + 1)]
        chain = BidiagonalChain(p, n, 2, factors, UpperBidiagonal(n, [3] * n))
        with counted_products() as counted:
            rotations = darboux_transform(chain, range(1, p + 1))
            assert counted.call_count == 0
            assert next(rotations)[0] == 1
            assert counted.call_count == p
            for j, _ in rotations:
                assert counted.call_count == p + 2 * (j - 1)
        assert counted.call_count == 3 * p - 2


@contextmanager
def counted_shifts():
    """The list of shifts each shift_multiply call of the engine takes,
    while the function is patched to record them."""
    original = engine.shift_multiply
    shifts = []

    def counting(moments, c):
        shifts.append(c)
        return original(moments, c)

    with mock.patch.object(engine, "shift_multiply", counting):
        yield shifts


def test_each_moved_functional_is_formed_once():
    # nu(1) .. nu(p) are windows of one list, so run_theorem, and verify
    # through it, forms each moved entry (z - C) nu_i once: p calls, not
    # p(p + 1)/2 over the rotations one at a time.
    for p in range(1, 5):
        config = {"p": p, "N": 20, "window": 8, "seed": p}
        cfg = InstanceConfig.from_json_dict(config)
        built = generate(cfg)
        with counted_shifts() as shifts:
            assert run_theorem(built.instance, vector(built, cfg.moment_budget), 8).passed
        assert shifts == [built.instance.shift] * p
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "config.json"
            path.write_text(json.dumps(config))
            with counted_shifts() as shifts:
                code, _, _, payload = run_command("verify", path, tmp)
            assert code == 0 and payload["certificate"]["passed"]
        assert len(shifts) == p


@st.composite
def perturbed_runs(draw):
    """A generated instance and vector at p = 1..3, W <= 10, with the shift
    moved by a small rational or one moment of nu past degree p perturbed.

    Neither moves the ladder, which reads nu's moments up to degree p - 1
    only, so the generator's staging still gives the chain's free entries.
    A moved shift changes every chain value, yet the certificate still
    passes: the free entries do not depend on C, and the transport holds
    for every admissible shift. A perturbed moment makes witnesses appear.
    """
    p = draw(st.integers(1, 3))
    # window >= p keeps degree p + 1 within the moment budget.
    window = draw(st.integers(p, 10))
    n = max(moment_budget(window, p), window + p + 1) + 1
    cfg = InstanceConfig(p=p, n=n, window=window, seed=draw(st.integers(0, 10**6)))
    built = generate(cfg)
    inst, nu = built.instance, vector(built, cfg.moment_budget)
    if draw(st.booleans()):
        delta = draw(rationals(3, nonzero=True))
        try:
            inst = ShiftedInstance(inst.J, inst.shift + delta)
        except SingularLeadingMinor:
            assume(False)
    else:
        r = draw(st.integers(1, p))
        moments = list(nu[r - 1])
        degree = draw(st.integers(p + 1, len(moments) - 1))
        moments[degree] += draw(rationals(9, nonzero=True))
        nu = (*nu[: r - 1], tuple(moments), *nu[r:])
    return inst, nu, window, built.staging.free_rows


@settings(max_examples=40, deadline=None)
@given(run=perturbed_runs())
def test_stage_reports_match_the_per_rotation_oracle(run):
    # The oracle route: nu(j) formed for each j alone, J(j) over all N rows
    # of the exact chain, and the scan by applying each functional.
    inst, nu, window, free_rows = run
    p = inst.p
    try:
        cert = run_theorem(inst, nu, window)
    except ZeroPeelPivot:
        assume(False)
    assert cert.partial is None
    assert [v.j for v in cert.stage_verdicts] == list(range(1, p + 1))
    chain = chain_from_instance(inst, free_rows, inst.n)
    for verdict in cert.stage_verdicts:
        j, got = verdict.j, verdict.report
        slow = scan_by_apply(
            transformed_nu(nu, inst.shift, j), transformed_polys_full(chain, j, window), p, window
        )
        assert got.zero_checks == slow.zero_checks
        assert got.nonzero_checks == slow.nonzero_checks
        assert got.passed == slow.passed
        assert [(w.kind, w.r, w.k, w.n, w.value) for w in got.failures] == [
            (w.kind, w.r, w.k, w.n, w.value) for w in slow.failures
        ]
