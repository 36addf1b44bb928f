"""Differential tests: each integer kernel against its Fraction oracle.

The oracles in helpers.py are the routes the kernels replaced. Inputs are
bounded (p = 1..4, N <= 16, N <= 24 for chains) and draw every band entry,
the diagonal and the lowest band included, from num/den with
|num| <= bound and 1 <= den <= bound, so zeros and large denominators both
occur.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from banded_darboux import (
    BandedHessenberg,
    BidiagonalChain,
    DegreeExceedsMoments,
    LambdaLadder,
    LinearFunctional,
    LowerBidiagonalUnit,
    OrthogonalityVector,
    UpperBidiagonal,
    build_nu,
    characteristic_polys,
    darboux_transform,
    dual_sequence,
    is_p_orthogonal,
    transformed_polys,
)
from helpers import (
    characteristic_polys_by_polynomials,
    dual_sequence_by_inversion,
    scan_by_apply,
    transformed_polys_full,
)

BOUNDS = (1, 9, 1000)


def rationals(bound, nonzero=False):
    if nonzero:
        nums = st.integers(1, bound) | st.integers(-bound, -1)
    else:
        nums = st.integers(-bound, bound)
    return st.builds(Fraction, nums, st.integers(1, bound))


@st.composite
def hessenbergs(draw):
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 16))
    bound = draw(st.sampled_from(BOUNDS))
    bands = {
        -d: [draw(rationals(bound)) if i >= d else 0 for i in range(n)]
        for d in range(p + 1)
    }
    return BandedHessenberg(p, n, bands), bound


@st.composite
def chains(draw):
    """Any chain: the rotations need no LU behind it, so every coefficient,
    the shift included, is drawn freely."""
    p = draw(st.integers(1, 4))
    n = draw(st.integers(1, 24))
    bound = draw(st.sampled_from(BOUNDS))

    def entries(size):
        return draw(st.lists(rationals(bound), min_size=size, max_size=size))

    factors = [LowerBidiagonalUnit(j, n, entries(n - 1)) for j in range(1, p + 1)]
    return BidiagonalChain(p, n, draw(rationals(bound)), factors, UpperBidiagonal(n, entries(n)))


def scan_outcome(scan, nu, polys, p, window):
    """The report, or the arguments of the budget error."""
    try:
        return scan(nu, polys, p, window)
    except DegreeExceedsMoments as exc:
        return ("DegreeExceedsMoments", exc.degree, exc.max_degree)


@settings(max_examples=60, deadline=None)
@given(case=hessenbergs(), data=st.data())
def test_characteristic_polys_matches_polynomial_recurrence(case, data):
    J, _ = case
    nmax = data.draw(st.integers(0, J.n))
    fast = characteristic_polys(J, nmax)
    slow = characteristic_polys_by_polynomials(J, nmax)
    assert len(fast) == len(slow) == nmax + 1
    for a, b in zip(fast, slow):
        assert a.coefficients == b.coefficients


@settings(max_examples=60, deadline=None)
@given(case=hessenbergs(), data=st.data())
def test_dual_sequence_matches_inversion(case, data):
    J, _ = case
    nmax = data.draw(st.integers(0, J.n))
    fast = dual_sequence(J, nmax)
    slow = dual_sequence_by_inversion(characteristic_polys_by_polynomials(J, nmax))
    assert len(fast) == len(slow) == nmax + 1
    for a, b in zip(fast, slow):
        assert a.moments == b.moments


@settings(max_examples=80, deadline=None)
@given(case=hessenbergs(), data=st.data())
def test_scan_matches_apply(case, data):
    J, bound = case
    p, n = J.p, J.n
    polys = characteristic_polys(J, n)
    window = data.draw(st.integers(1, n))
    # A ladder vector needs p duals, that is n + 1 >= p.
    kinds = ("ladder", "perturbed", "random") if n + 1 >= p else ("random",)
    kind = data.draw(st.sampled_from(kinds))
    if kind == "random":
        # Arbitrary moments: mostly failing, with a budget that may be short.
        size = data.draw(st.integers(1, 2 * n))
        nu = OrthogonalityVector(
            [LinearFunctional(data.draw(st.lists(rationals(bound), min_size=size, max_size=size)))
             for _ in range(p)]
        )
    else:
        # A regular ladder over the duals passes wherever its budget lasts;
        # one perturbed moment makes it fail with nonzero witness values.
        ladder = LambdaLadder(
            [[data.draw(rationals(bound)) for _ in range(i - 1)]
             + [data.draw(rationals(bound, nonzero=True))] for i in range(1, p + 1)]
        )
        nu = build_nu(ladder, dual_sequence(J, n))
        if kind == "perturbed":
            r = data.draw(st.integers(0, p - 1))
            k = data.draw(st.integers(0, n))
            moments = list(nu.entries[r].moments)
            moments[k] += data.draw(rationals(bound, nonzero=True))
            entries = list(nu.entries)
            entries[r] = LinearFunctional(moments)
            nu = OrthogonalityVector(entries)
    assert scan_outcome(is_p_orthogonal, nu, polys, p, window) == scan_outcome(
        scan_by_apply, nu, polys, p, window
    )


@settings(max_examples=30, deadline=None)
@given(chain=chains())
def test_rotation_on_leading_block_matches_full_chain(chain):
    n = chain.n
    assert chain.leading(n).to_json_dict() == chain.to_json_dict()
    for j in range(chain.p + 1):
        full = darboux_transform(chain, j)
        for nmax in range(full.valid_rows + 1):
            fast = transformed_polys(chain, j, nmax)
            slow = transformed_polys_full(chain, j, nmax)
            assert [a.coefficients for a in fast] == [b.coefficients for b in slow]
        for m in range(1, n + 1):
            lead = darboux_transform(chain.leading(m), j)
            assert lead.valid_rows == (m if j == 0 else m - 1)
            for i in range(lead.valid_rows):
                for c in range(m):
                    assert lead.entry(i, c) == full.entry(i, c)
