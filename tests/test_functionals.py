"""Moment functionals, dual sequences, ladders, staircase minors, scans."""

from fractions import Fraction
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banded_darboux import (
    BandedHessenberg,
    DegreeExceedsMoments,
    IndexOutOfRange,
    InsufficientMoments,
    LadderViolation,
    LambdaLadder,
    NotMonicOrDegreeGap,
    Witness,
    build_nu,
    characteristic_polys,
    delta_det,
    dual_sequence,
    is_p_orthogonal,
    lambda_of,
    moment_budget,
    shift_multiply,
)
from banded_darboux.functionals import _det
from helpers import (
    DenseMatrix,
    Functional,
    Poly,
    Z,
    canonical_nu,
    catalan_hessenberg,
    cofactor_det,
    det_exact,
    draw_rational,
    dual_sequence_by_inversion,
    fraction_polys,
    random_hessenberg_local,
    scan_by_apply,
)

fractions_st = st.fractions(min_value=-30, max_value=30, max_denominator=9)


def seeded_regular_ladder(rng, p):
    rows = []
    for i in range(1, p + 1):
        rows.append(
            [draw_rational(rng) for _ in range(i - 1)] + [draw_rational(rng, nonzero=True)]
        )
    return LambdaLadder(rows)


# -------------------------------------------------------------------- apply


def test_apply_evaluation_at_zero():
    assert Functional((1, 0, 0)).apply((Z - 2).coefficients) == -2


def test_apply_telescoping_moments():
    assert Functional((1, 1, 1)).apply((Z * Z - 1).coefficients) == 0


def test_apply_degree_guard():
    with pytest.raises(DegreeExceedsMoments):
        Functional((1, 2)).apply((Z * Z).coefficients)
    # lambda_of applies nu_1 to P_1, beyond nu_1's one moment.
    polys = characteristic_polys(catalan_hessenberg(4), 4)
    with pytest.raises(DegreeExceedsMoments):
        lambda_of(((Fraction(1),), (Fraction(0),)), polys)


def test_apply_dual_against_catalan_sequence():
    J = catalan_hessenberg(5)
    polys = characteristic_polys(J, 5)
    duals = dual_sequence(J, 5)
    assert Functional(duals[1]).apply(fraction_polys(polys)[1]) == 1


# ----------------------------------------------------------- shift_multiply


def test_shift_multiply_pure_shift():
    assert shift_multiply((1, 2, 3), 0) == (2, 3)


def test_shift_multiply_constant_moments():
    assert shift_multiply((1, 1, 1), 1) == (0, 0)


@settings(max_examples=50, deadline=None)
@given(moments=st.lists(fractions_st | st.integers(-9, 9), min_size=2, max_size=7))
def test_shift_multiply_by_zero_is_the_general_formula(moments):
    # The shift by z - 0 skips the arithmetic; its moments are the general
    # formula's, Fraction for Fraction, whatever scalars come in.
    general = tuple(b - Fraction(0) * a for a, b in zip(moments, moments[1:]))
    for c in (0, Fraction(0), "0"):
        got = shift_multiply(moments, c)
        assert got == general
        assert all(type(x) is Fraction for x in got)


def test_shift_multiply_needs_degree():
    with pytest.raises(InsufficientMoments):
        shift_multiply((Fraction(1),), 2)


@settings(max_examples=50, deadline=None)
@given(
    moments=st.lists(fractions_st, min_size=2, max_size=7),
    q=st.lists(fractions_st, max_size=5),
    c=fractions_st,
)
def test_shift_multiply_is_adjoint_to_linear_factor(moments, q, c):
    # The package's (z - c) formula, evaluated by the oracle functional.
    f = Functional(moments)
    poly = Poly(q)
    if poly.degree + 1 > f.max_degree:
        poly = Poly(q[: f.max_degree])
    lhs = Functional(shift_multiply(f.moments, c)).apply(poly.coefficients)
    assert lhs == f.apply(((Z - c) * poly).coefficients)


# ------------------------------------------------------------ dual sequence


def test_dual_of_monomials_is_coefficient_extraction():
    # The all-zero band gives the monomials P_n = z^n.
    duals = dual_sequence(BandedHessenberg(1, 4, {}), 4)
    for n, f in enumerate(duals):
        expected = tuple(1 if k == n else 0 for k in range(5))
        assert f == expected


def test_dual_catalan_moments():
    # Forcing dual_0[P_n] = delta_{0,n} row by row yields the Catalan
    # numbers: m(1) = 2, m(2) = 5, m(3) = 14, m(4) = 42.
    duals = dual_sequence(catalan_hessenberg(8), 8)
    assert duals[0][:5] == (1, 2, 5, 14, 42)


def test_dual_sequence_is_dual_exhaustively():
    rng = random.Random(301)
    for p in (1, 2, 3):
        J = random_hessenberg_local(rng, p, 7)
        polys = fraction_polys(characteristic_polys(J, 7))
        duals = dual_sequence(J, 7)
        for j, f in enumerate(duals):
            for i, poly in enumerate(polys):
                assert Functional(f).apply(poly) == (1 if i == j else 0)


def test_dual_sequence_diagonal_is_one():
    J = catalan_hessenberg(6)
    polys = fraction_polys(characteristic_polys(J, 6))
    for j, f in enumerate(dual_sequence(J, 6)):
        assert Functional(f).apply(polys[j]) == 1


def test_dual_sequence_rejects_bad_input():
    with pytest.raises(NotMonicOrDegreeGap):
        dual_sequence_by_inversion((Poly.one(), 2 * Z))
    with pytest.raises(NotMonicOrDegreeGap):
        dual_sequence_by_inversion((Poly.one(), Z * Z))


def test_dual_sequence_needs_trustworthy_rows():
    J = catalan_hessenberg(6)
    assert len(dual_sequence(J, 6)) == 7
    with pytest.raises(IndexOutOfRange):
        dual_sequence(J, 7)
    windowed = BandedHessenberg(1, 6, {0: [2] * 6, -1: [0] + [1] * 5}, valid_rows=4)
    with pytest.raises(IndexOutOfRange):
        dual_sequence(windowed, 5)


# -------------------------------------------------------- ladder round trip


def test_lambda_of_canonical_duals_is_identity_staircase():
    J = catalan_hessenberg(6)
    polys = characteristic_polys(J, 6)
    duals = dual_sequence(J, 6)
    for p in (1, 2, 3):
        nu = canonical_nu(duals, p)
        ladder = lambda_of(nu, polys)
        for i in range(1, p + 1):
            for k in range(i):
                assert ladder.value(i, k) == (1 if k == i - 1 else 0)


def test_lambda_of_scaling():
    J = catalan_hessenberg(6)
    polys = characteristic_polys(J, 6)
    duals = dual_sequence(J, 6)
    nu = (Functional(duals[0]).scaled(3).moments,)
    assert lambda_of(nu, polys).value(1, 0) == 3


def test_ladder_round_trip_exact():
    rng = random.Random(302)
    for p in (1, 2, 3, 4):
        J = random_hessenberg_local(rng, p, 9)
        polys = characteristic_polys(J, 9)
        duals = dual_sequence(J, 9)
        ladder = seeded_regular_ladder(rng, p)
        nu = build_nu(ladder, duals)
        recovered = lambda_of(nu, polys)
        assert recovered.rows == ladder.rows


def test_build_nu_identity_staircase_gives_canonical():
    duals = dual_sequence(catalan_hessenberg(6), 6)
    ladder = LambdaLadder([[1], [0, 1]])
    assert build_nu(ladder, duals) == canonical_nu(duals, 2)


def test_build_nu_single_scaled_entry():
    duals = dual_sequence(catalan_hessenberg(5), 5)
    nu = build_nu(LambdaLadder([[Fraction(7, 2)]]), duals)
    assert nu == (Functional(duals[0]).scaled(Fraction(7, 2)).moments,)


def test_build_nu_output_is_orthogonal_for_the_source_sequence():
    # The verifier itself is the oracle: every regular ladder combination
    # of duals must pass the staircase scan for its own sequence.
    rng = random.Random(306)
    p, window = 3, 9
    budget = window + (window // p) + 2
    J = random_hessenberg_local(rng, p, budget + 1)
    polys = characteristic_polys(J, budget)
    duals = dual_sequence(J, budget)
    for _ in range(3):
        ladder = seeded_regular_ladder(rng, p)
        nu = build_nu(ladder, duals)
        assert is_p_orthogonal(nu, polys, p, window).passed


def test_build_nu_rejects_irregular_ladder():
    duals = dual_sequence(catalan_hessenberg(5), 5)
    with pytest.raises(LadderViolation):
        build_nu(LambdaLadder([[1], [1, 0]]), duals)


def test_lambda_of_rejects_wrong_staircase():
    J = catalan_hessenberg(6)
    polys = characteristic_polys(J, 6)
    duals = dual_sequence(J, 6)
    nu = (duals[1], duals[0])
    with pytest.raises(LadderViolation):
        lambda_of(nu, polys)


# ----------------------------------------------------------- minors (delta)


def test_delta_empty_minor_is_one():
    ladder = LambdaLadder([[1], [1, 1], [1, 1, 1]])
    for j in range(3):
        assert delta_det(ladder, j, 0) == 1


def test_delta_canonical_staircase_vanishes():
    # The canonical dual vector's ladder has lambda(2, 0) = 0, so the first
    # nontrivial minor vanishes: the transform hypotheses can genuinely fail.
    ladder = LambdaLadder([[1], [0, 1]])
    assert delta_det(ladder, 0, 1) == 0


def test_delta_against_cofactor_oracle():
    rng = random.Random(303)
    for _ in range(10):
        ladder = seeded_regular_ladder(rng, 4)
        for j in range(4):
            for m in range(1, 4 - j):
                rows = [
                    [ladder.value(j + 2 + c, r) for c in range(m)] for r in range(m)
                ]
                assert delta_det(ladder, j, m) == cofactor_det(rows)


def test_delta_first_sizes_read_off_the_ladder():
    ladder = LambdaLadder([[2], [3, 5], [7, 11, 13]])
    assert delta_det(ladder, 0, 1) == 3
    assert delta_det(ladder, 1, 1) == 7
    assert delta_det(ladder, 0, 2) == 3 * 11 - 7 * 5


@st.composite
def square_matrices(draw):
    """Square Fraction matrices of size 0..5, rich in zeros. From size 2 on,
    a third have a zero first pivot (a row swap, unless the column is zero)
    and a third a row that is a multiple of another (singular)."""
    n = draw(st.integers(0, 5))
    entry = st.one_of(st.just(Fraction(0)), fractions_st)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(n)]
    if n >= 2:
        kind = draw(st.sampled_from(["any", "swap", "singular"]))
        if kind == "swap":
            rows[0][0] = Fraction(0)
        elif kind == "singular":
            i, k = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            c = draw(fractions_st)
            rows[i] = [c * x for x in rows[k]]
    return rows


def _grid(rows):
    return [[Fraction(v) for v in row] for row in rows]


@settings(max_examples=150, deadline=None)
@given(rows=square_matrices())
@example(rows=_grid([[0, 1], [1, 0]]))
@example(rows=_grid([[0, 1, 2], [1, 0, 3], [4, 5, 0]]))
@example(rows=_grid([[1, 2, 3], [2, 4, 5], [3, 6, 8]]))  # second pivot zero, singular
@example(rows=_grid([[1, 2, 3], [2, 4, 7], [3, 7, 8]]))  # second pivot zero, regular
@example(rows=_grid([[0, 0], [0, 1]]))  # zero first column
def test_delta_elimination_matches_the_dense_oracle(rows):
    assert _det(rows) == det_exact(DenseMatrix(rows))


def test_lambda_of_rejects_a_sequence_that_is_not_monic():
    duals = dual_sequence(catalan_hessenberg(4), 4)
    nu = canonical_nu(duals, 2)
    one = ([1], 1)
    with pytest.raises(NotMonicOrDegreeGap, match="position 1 holds degree 1, monic=False"):
        lambda_of(nu, (one, ([1, 2], 1)))
    with pytest.raises(NotMonicOrDegreeGap, match="position 1 holds degree 2, monic=True"):
        lambda_of(nu, (one, ([0, 0, 3], 3)))


def test_delta_bounds():
    ladder = LambdaLadder([[1], [1, 1]])
    with pytest.raises(IndexOutOfRange):
        delta_det(ladder, 0, 2)
    with pytest.raises(IndexOutOfRange):
        delta_det(ladder, -1, 1)


# ------------------------------------------------------- orthogonality scan


def test_scan_canonical_duals_pass():
    rng = random.Random(304)
    for p in (1, 2, 3):
        window = 3 * p
        budget = window + (window // p) + 2
        J = random_hessenberg_local(rng, p, budget + 1)
        polys = characteristic_polys(J, budget)
        duals = dual_sequence(J, budget)
        nu = canonical_nu(duals, p)
        report = is_p_orthogonal(nu, polys, p, window)
        assert report.passed
        assert report.zero_checks > 0 and report.nonzero_checks > 0


def test_scan_scaling_invariance():
    rng = random.Random(305)
    p, window = 2, 6
    J = random_hessenberg_local(rng, p, 12)
    polys = characteristic_polys(J, 12)
    duals = dual_sequence(J, 12)
    nu = canonical_nu(duals, p)
    scaled = tuple(Functional(f).scaled(c).moments for f, c in zip(nu, (3, Fraction(-2, 7))))
    assert is_p_orthogonal(nu, polys, p, window).passed
    assert is_p_orthogonal(scaled, polys, p, window).passed


def test_scan_wrong_vector_fails_with_first_witness():
    J = catalan_hessenberg(8)
    polys = characteristic_polys(J, 8)
    duals = dual_sequence(J, 8)
    nu = (duals[1],)
    report = is_p_orthogonal(nu, polys, 1, 4)
    assert not report.passed
    witness = report.failures[0]
    assert (witness.kind, witness.r, witness.k, witness.n) == ("zero", 1, 0, 1)
    assert any(w.kind == "nonzero" and (w.r, w.k, w.n) == (1, 0, 0) for w in report.failures)


def test_scan_needs_enough_moments():
    polys = characteristic_polys(catalan_hessenberg(8), 8)
    duals = dual_sequence(catalan_hessenberg(3), 3)
    nu = canonical_nu(duals, 1)
    with pytest.raises(DegreeExceedsMoments):
        is_p_orthogonal(nu, polys, 1, 4)


def _scan_with_a_dual_added(p, window, r, m, seed):
    """The scan of canonical nu with nu_r + eps * dual_m in place of nu_r, on
    a banded J and its own dual sequence to the moment budget; the oracle
    scan must give the same report."""
    rng = random.Random(seed)
    budget = moment_budget(window, p)
    J = random_hessenberg_local(rng, p, budget + 1)
    polys = characteristic_polys(J, window)
    duals = dual_sequence(J, budget)
    eps = Fraction(2, 7)
    nu = list(canonical_nu(duals, p))
    nu[r - 1] = tuple(a + eps * b for a, b in zip(nu[r - 1], duals[m]))
    report = is_p_orthogonal(nu, polys, p, window)
    assert report == scan_by_apply(nu, polys, p, window)
    return report, eps


def test_scan_certificate_column_starts_at_r():
    # dual_r fails column 0 at n = r alone; W - r = 5 is not a multiple of p,
    # so the last row z^k P_W, k <= 2, expands over P_i with i > r and holds.
    report, eps = _scan_with_a_dual_added(p=2, window=7, r=2, m=2, seed=331)
    assert [w.n for w in report.failures if (w.kind, w.r, w.k) == ("zero", 2, 0)] == [2]
    assert report.failures[0] == Witness("zero", 2, 0, 2, eps)


def test_scan_certificate_column_ends_at_the_window():
    # dual_W fails column 0 at n = W alone; (W - r) // p = 0, so functional
    # r has no last row, and no zero condition beyond column 0.
    report, eps = _scan_with_a_dual_added(p=3, window=5, r=3, m=5, seed=332)
    assert [w for w in report.failures if w.kind == "zero"] == [Witness("zero", 3, 0, 5, eps)]


def test_scan_certificate_reads_the_last_row():
    # dual_{W+1} vanishes on P_0 .. P_W, so column 0 holds everywhere; only
    # the last row shows the failure, at nu_r[z P_W] = eps.
    report, eps = _scan_with_a_dual_added(p=3, window=9, r=2, m=10, seed=333)
    assert not any(w.k == 0 for w in report.failures)
    assert Witness("zero", 2, 1, 9, eps) in report.failures


# ------------------------------------------------------------ common budget


def test_build_nu_cuts_to_the_common_budget():
    # Every entry carries the moments all of dual_0 .. dual_{p-1} carry.
    duals = ((1, 2, 3, 4), (5, 6, 7), (8,))
    nu = build_nu(LambdaLadder([[1], [0, 1]]), duals)
    assert nu == ((1, 2, 3), (5, 6, 7))
