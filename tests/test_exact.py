"""Scalar helpers of `exact`, and the polynomial and dense-matrix oracles
that the tests build on."""

from fractions import Fraction
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banded_darboux import (
    ConfigError,
    ShapeMismatch,
    check_printable,
    format_polynomial,
    format_rational,
    format_row,
    parse_rational,
)
from banded_darboux.exact import integer_image
from helpers import (
    DenseMatrix,
    NotSquare,
    Poly,
    Z,
    catalan_hessenberg,
    cofactor_det,
    dense_rows,
    det_exact,
    divide_exactly,
    solve_unit_lower_triangular,
)

import random

fractions_st = st.fractions(min_value=-60, max_value=60, max_denominator=12)


def test_scalar_wire_format_round_trip():
    for text in ["-3/2", "4", "0", "7/3"]:
        assert format_rational(parse_rational(text)) == text
    assert format_rational(Fraction(6, -4)) == "-3/2"


def test_format_rational_beyond_int_str_limit_is_config_error():
    with pytest.raises(ConfigError, match="4300-digit"):
        format_rational(Fraction(10**5000))


def _printable_by_str(value):
    try:
        str(value)
    except ValueError:
        return False
    return True


def _printable_by_check(value):
    try:
        check_printable([value])
    except ConfigError as exc:
        with pytest.raises(ConfigError) as formatted:
            format_rational(value)
        assert str(exc) == str(formatted.value)
        return False
    return True


@pytest.mark.parametrize("limit", [640, 0])
def test_check_printable_agrees_with_str_at_the_limit(limit):
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(limit)
        values = []
        for digits in (640, 641, 5000):
            for m in (10 ** (digits - 1), 10**digits - 1, 10**digits):
                values += [
                    Fraction(m), Fraction(-m), Fraction(1, m), Fraction(-1, m),
                    Fraction(m, 7), Fraction(-7, m), Fraction(m + 2, m + 1),
                ]
        printable = [_printable_by_str(v) for v in values]
        assert [_printable_by_check(v) for v in values] == printable
        if limit:
            assert True in printable and False in printable
        else:
            assert all(printable)
        check_printable(v for v in values if _printable_by_str(v))
    finally:
        sys.set_int_max_str_digits(old)


def test_poly_eval_constant():
    assert Poly([1])(5) == 1


def test_poly_eval_linear():
    assert (Z - 2)(0) == -2


def test_poly_eval_cubic_against_power_sum():
    # This cubic is the third characteristic polynomial of the Catalan
    # instance; the oracle is the direct power sum.
    p = Poly([-4, 10, -6, 1])
    for z in [Fraction(0), Fraction(1), Fraction(-3, 2), Fraction(7, 5)]:
        direct = sum(c * z**k for k, c in enumerate(p.coefficients))
        assert p(z) == direct
    assert p(0) == -4


def test_poly_degree_and_trimming():
    assert Poly([1, 2, 0, 0]).degree == 1
    assert Poly([]).degree == -1
    assert Poly([0, 0]).is_zero
    assert (Z * Z + 1).is_monic


# Coefficients with many zeros and units, negative and fractional entries.
coefficient_st = st.one_of(
    st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), fractions_st
)


@settings(max_examples=200, deadline=None)
@given(coeffs=st.lists(coefficient_st, max_size=7).map(tuple))
@example(coeffs=())
@example(coeffs=(Fraction(0), Fraction(0)))
@example(coeffs=(Fraction(-3, 2),))
@example(coeffs=(Fraction(1), Fraction(-3, 2), Fraction(0), Fraction(1)))
def test_format_polynomial_matches_the_oracle(coeffs):
    # format_polynomial reads the wire forms the report holds.
    assert format_polynomial([format_rational(c) for c in coeffs]) == str(Poly(coeffs))


@settings(max_examples=100, deadline=None)
@given(coeffs=st.lists(coefficient_st, min_size=1, max_size=7), scale=st.integers(1, 12))
def test_format_row_prints_each_coefficient_in_lowest_terms(coeffs, scale):
    # Over its least denominator or a multiple of it, a row prints the
    # wire forms of its Fractions.
    nums, d = integer_image(coeffs)
    expected = [format_rational(c) for c in coeffs]
    assert format_row((nums, d)) == expected
    assert format_row(([c * scale for c in nums], d * scale)) == expected


def test_format_row_beyond_int_str_limit_is_config_error():
    with pytest.raises(ConfigError, match="4300-digit"):
        format_row(([1, 10**5000], 1))


@settings(max_examples=60, deadline=None)
@given(
    a=st.lists(fractions_st, max_size=5),
    b=st.lists(fractions_st, max_size=5),
    z=fractions_st,
)
def test_poly_product_evaluates_multiplicatively(a, b, z):
    pa, pb = Poly(a), Poly(b)
    assert (pa * pb)(z) == pa(z) * pb(z)


def test_deflate_perfect_square():
    assert divide_exactly(Z * Z - 4 * Z + 4, 2) == Z - 2


def test_deflate_monomial():
    assert divide_exactly(Z, 0) == Poly.one()


def test_deflate_rejects_non_root():
    with pytest.raises(AssertionError, match="remainder"):
        divide_exactly(Z - 1, 0)


@settings(max_examples=60, deadline=None)
@given(q=st.lists(fractions_st, max_size=6), c=fractions_st)
def test_deflate_inverts_linear_multiplication(q, c):
    poly = Poly(q)
    assert divide_exactly((Z - c) * poly, c) == poly


def test_det_identity():
    assert det_exact(DenseMatrix.identity(3)) == 1


def test_det_zero_matrix():
    assert det_exact(DenseMatrix([[0]])) == 0


def test_det_rejects_rectangular():
    with pytest.raises(NotSquare):
        det_exact(DenseMatrix([[1, 2]]))


def test_det_catalan_minor_at_zero():
    # det(0*I_3 - J_3) must equal P_3(0) = -4; oracle: cofactor expansion.
    J = catalan_hessenberg(3)
    rows = [[-v for v in row] for row in dense_rows(J)]
    assert cofactor_det(rows) == -4
    assert det_exact(DenseMatrix(rows)) == -4


def test_det_matches_cofactor_on_seeded_matrices():
    rng = random.Random(20240817)
    for _ in range(25):
        n = rng.randint(1, 5)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
        assert det_exact(DenseMatrix(rows)) == cofactor_det(rows)


def test_det_zero_pivots_force_row_swaps():
    cases = [
        [[0, 1], [1, 0]],
        [[0, 1, 2], [1, 0, 3], [4, 5, 0]],
        [[1, 2, 3], [2, 4, 5], [3, 6, 8]],  # second pivot vanishes, singular
        [[1, 2, 3], [2, 4, 7], [3, 7, 8]],  # second pivot vanishes, regular
    ]
    for rows in cases:
        grid = [[Fraction(v) for v in row] for row in rows]
        assert det_exact(DenseMatrix(grid)) == cofactor_det(grid)


def test_det_unit_triangular_is_one():
    rng = random.Random(7)
    for n in (1, 3, 6):
        rows = [
            [
                Fraction(1)
                if i == j
                else (Fraction(rng.randint(-5, 5), rng.randint(1, 5)) if j < i else Fraction(0))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert det_exact(DenseMatrix(rows)) == 1


def test_solve_identity():
    x = solve_unit_lower_triangular(DenseMatrix.identity(3), [1, 2, 3])
    assert x == (1, 2, 3)


def test_solve_two_by_two():
    t = DenseMatrix([[1, 0], [5, 1]])
    assert solve_unit_lower_triangular(t, [1, 0]) == (1, -5)


def test_solve_seeded_roundtrip():
    rng = random.Random(99)
    n = 6
    rows = [
        [
            Fraction(1)
            if i == j
            else (Fraction(rng.randint(-9, 9), rng.randint(1, 9)) if j < i else Fraction(0))
            for j in range(n)
        ]
        for i in range(n)
    ]
    t = DenseMatrix(rows)
    b = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
    x = solve_unit_lower_triangular(t, b)
    for i in range(n):
        assert sum(rows[i][k] * x[k] for k in range(n)) == b[i]


def test_solve_shape_errors():
    with pytest.raises(ShapeMismatch):
        solve_unit_lower_triangular(DenseMatrix.identity(2), [1])
    with pytest.raises(ShapeMismatch):
        solve_unit_lower_triangular(DenseMatrix([[2]]), [1])
