"""Banded storage, windowed products, characteristic sequences."""

from fractions import Fraction
import random

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from banded_darboux import (
    BandMatrix,
    BandedHessenberg,
    BidiagonalChain,
    IndexOutOfRange,
    LowerBidiagonalUnit,
    SizeMismatch,
    UpperBidiagonal,
    characteristic_polys,
    format_rational,
    multiply_window,
)
from helpers import (
    DenseMatrix,
    Z,
    as_polys,
    fraction_polys,
    catalan_hessenberg,
    dense_mul,
    dense_rows,
    det_exact,
    draw_rational,
    entry,
    gamma,
    plain_json,
    random_hessenberg_local,
    read_chain,
    reconstruct,
)


def _identity(n):
    return BandMatrix(n, 0, 0, {0: [1] * n})


def test_hessenberg_from_recurrence_matches_dense_construction():
    J = catalan_hessenberg(3)
    assert dense_rows(J) == [
        [Fraction(2), Fraction(1), Fraction(0)],
        [Fraction(1), Fraction(2), Fraction(1)],
        [Fraction(0), Fraction(1), Fraction(2)],
    ]


def test_hessenberg_seeded_regularity():
    rng = random.Random(5)
    J = random_hessenberg_local(rng, 3, 8)
    assert all(J.a(i, i - 3) != 0 for i in range(3, 8))


def test_hessenberg_band_access_and_bounds():
    J = catalan_hessenberg(4)
    assert entry(J, 0, 1) == 1
    assert entry(J, 0, 2) == 0
    assert J.a(2, 1) == 1
    with pytest.raises(IndexOutOfRange):
        J.a(0, 1)


def test_hessenberg_json_round_trip():
    rng = random.Random(17)
    J = random_hessenberg_local(rng, 2, 5)
    again = BandedHessenberg.from_json_dict(plain_json(J.to_json_dict()))
    assert again == J


def test_multiply_identity_keeps_full_window():
    rng = random.Random(3)
    J = random_hessenberg_local(rng, 2, 5)
    prod = multiply_window(_identity(5), J)
    assert prod == J
    assert prod.valid_rows == 5


def test_multiply_bidiagonal_factors_band_values():
    n = 5
    l1 = LowerBidiagonalUnit(n, [1] * (n - 1))
    l2 = LowerBidiagonalUnit(n, [2] * (n - 1))
    prod = multiply_window(l1, l2)
    assert prod.valid_rows == n
    assert all(entry(prod, i, i) == 1 for i in range(n))
    assert all(entry(prod, i, i - 1) == 3 for i in range(1, n))
    assert all(entry(prod, i, i - 2) == 2 for i in range(2, n))
    assert dense_rows(prod) == dense_mul(dense_rows(l1), dense_rows(l2))


def test_multiply_upper_times_lower_window_shrinks():
    # U * L for the Catalan instance: Hessenberg with unit superdiagonal,
    # rows 0..N-2 trustworthy; the dense product is the oracle for values.
    n = 6
    U = UpperBidiagonal(n, [Fraction(2), Fraction(3, 2), Fraction(4, 3), 1, 1, 1])
    L = LowerBidiagonalUnit(n, [Fraction(1, 2), Fraction(2, 3), 1, 1, 1])
    prod = multiply_window(U, L)
    assert prod.valid_rows == n - 1
    assert dense_rows(prod) == dense_mul(dense_rows(U), dense_rows(L))
    assert all(entry(prod, i, i + 1) == 1 for i in range(n - 1))


def test_window_bound_is_honest_against_larger_truncation():
    # Rows inside the window agree with a larger truncation's product; the
    # first row beyond it does not (the truncation edge corrupts it).
    rng = random.Random(11)
    n, big = 6, 10
    diag_big = [draw_rational(rng, nonzero=True) for _ in range(big)]
    sub_big = [draw_rational(rng) for _ in range(big - 1)]
    U_small = UpperBidiagonal(n, diag_big[:n])
    L_small = LowerBidiagonalUnit(n, sub_big[: n - 1])
    U_big = UpperBidiagonal(big, diag_big)
    L_big = LowerBidiagonalUnit(big, sub_big)
    small = multiply_window(U_small, L_small)
    reference = multiply_window(U_big, L_big)
    assert small.valid_rows == n - 1
    for i in range(small.valid_rows):
        for j in range(n):
            assert entry(small, i, j) == entry(reference, i, j)
    last = n - 1
    assert any(entry(small, last, j) != entry(reference, last, j) for j in range(n))


def test_window_counts_upper_band_beyond_truncation():
    # At n = 1 the superdiagonal of L U falls outside the matrix, but it
    # still reaches row 1 of the next factor: row 0 of (L U) L is not
    # trustworthy, as the 2 x 2 truncation shows.
    L1, U1 = LowerBidiagonalUnit(1, []), UpperBidiagonal(1, [2])
    L2, U2 = LowerBidiagonalUnit(2, [3]), UpperBidiagonal(2, [2, 5])
    small = multiply_window(multiply_window(L1, U1), L1)
    big = multiply_window(multiply_window(L2, U2), L2)
    assert small.valid_rows == 0
    assert entry(small, 0, 0) != entry(big, 0, 0)
    assert big.valid_rows == 1


@st.composite
def _band_matrix(draw, n):
    """Widths lower 0..4 and upper 0..3, each band present or absent, its
    slots outside the matrix zero, and valid_rows 0..n + 1."""
    lower, upper = draw(st.integers(0, 4)), draw(st.integers(0, 3))
    values = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
    bands = {
        d: [draw(values) if 0 <= i + d < n else 0 for i in range(n)]
        for d in range(-lower, upper + 1)
        if draw(st.booleans())
    }
    return BandMatrix(n, lower, upper, bands, draw(st.integers(0, n + 1)))


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 10))
def test_multiply_window_matches_the_dense_product_for_any_widths(data, n):
    a, b = data.draw(_band_matrix(n)), data.draw(_band_matrix(n))
    prod = multiply_window(a, b)
    assert dense_rows(prod) == dense_mul(dense_rows(a), dense_rows(b))
    assert prod.lower == min(a.lower + b.lower, n - 1)
    assert prod.upper == a.upper + b.upper
    assert prod.valid_rows == max(0, min(a.valid_rows, b.valid_rows - a.upper))


def test_multiply_rejects_size_mismatch():
    with pytest.raises(SizeMismatch):
        multiply_window(_identity(3), _identity(4))


def test_equal_matrices_hash_equal_whatever_their_stored_widths():
    a = BandMatrix(3, 1, 0, {0: [1, 1, 1]})
    b = _identity(3)
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # The typed constructors share the rule: same n, same entries.
    upper = UpperBidiagonal(3, [2, 2, 2])
    assert upper == BandMatrix(3, 0, 1, {0: [2, 2, 2], 1: [1, 1, 0]})
    assert hash(upper) == hash(BandMatrix(3, 2, 1, {0: [2, 2, 2], 1: [1, 1, 0]}))
    assert LowerBidiagonalUnit(3, [0, 0]) == b
    assert BandMatrix(3, 0, 0, {0: [1, 1, 1]}) != BandMatrix(4, 0, 0, {0: [1, 1, 1, 1]})


def test_band_closure_of_unit_lower_products():
    rng = random.Random(23)
    n = 7
    for w1, w2 in [(1, 1), (1, 2), (2, 2)]:
        a_bands = {
            d: [draw_rational(rng) if i + d >= 0 else 0 for i in range(n)]
            for d in range(-w1, 0)
        }
        b_bands = {
            d: [draw_rational(rng) if i + d >= 0 else 0 for i in range(n)]
            for d in range(-w2, 0)
        }
        a = BandMatrix(n, w1, 0, {**a_bands, 0: [1] * n})
        b = BandMatrix(n, w2, 0, {**b_bands, 0: [1] * n})
        prod = multiply_window(a, b)
        assert prod.upper == 0
        assert prod.lower == w1 + w2
        assert dense_rows(prod) == dense_mul(dense_rows(a), dense_rows(b))
        assert prod.band(0) == (1,) * n  # unit diagonal survives


def test_characteristic_initial_polynomial_is_one():
    rng = random.Random(2)
    J = random_hessenberg_local(rng, 2, 5)
    assert fraction_polys(characteristic_polys(J, 0)) == ((1,),)


def test_characteristic_catalan_values():
    J = catalan_hessenberg(4)
    P = fraction_polys(characteristic_polys(J, 3))
    assert P[1] == (Z - 2).coefficients
    assert P[2] == (Z * Z - 4 * Z + 3).coefficients
    assert P[3] == (-4, 10, -6, 1)


def test_characteristic_nilpotent_case_gives_monomials():
    J = BandedHessenberg(2, 5, {})
    P = fraction_polys(characteristic_polys(J, 5))
    for n, poly in enumerate(P):
        assert poly == (0,) * n + (1,)


def test_characteristic_matches_determinants_at_points():
    # P_n(z) = det(z I_n - J_n): monic degree n on both sides, so equality
    # at n+1 points settles it.
    rng = random.Random(31)
    for p in (1, 2, 3):
        J = random_hessenberg_local(rng, p, 6)
        P = as_polys(characteristic_polys(J, 6))
        for n in range(7):
            for z in range(n + 1):
                minor = DenseMatrix.from_function(
                    n, n, lambda i, j: (z if i == j else 0) - entry(J, i, j)
                )
                assert P[n](z) == det_exact(minor)


def test_characteristic_rejects_untrusted_rows():
    J = catalan_hessenberg(4)
    trimmed = BandedHessenberg(1, 4, {0: J.band(0), -1: J.band(-1)}, valid_rows=2)
    with pytest.raises(IndexOutOfRange):
        characteristic_polys(trimmed, 4)


def _tiny_chain():
    n = 5
    factors = [
        LowerBidiagonalUnit(n, [Fraction(i + 1, 2) for i in range(n - 1)]),
        LowerBidiagonalUnit(n, [Fraction(2 * i + 1, 3) for i in range(n - 1)]),
    ]
    upper = UpperBidiagonal(n, [Fraction(k + 2, 3) for k in range(n)])
    return BidiagonalChain(2, n, Fraction(1, 2), factors, upper)


def test_from_band_matrix_zero_shift_is_the_general_formula():
    # A zero shift keeps the product's diagonal; any shift, zero or not,
    # gives what adding it entry by entry gives.
    chain = _tiny_chain()
    bm = multiply_window(multiply_window(chain.upper, chain.factors[0]), chain.factors[1])
    for shift in (0, Fraction(0), Fraction(-7, 3)):
        bands = {d: bm.band(d) for d in (-2, -1)}
        bands[0] = [v + shift for v in bm.band(0)]
        expected = BandedHessenberg(2, bm.n, bands, bm.valid_rows)
        got = BandedHessenberg.from_band_matrix(bm, 2, shift)
        assert got == expected
        assert got.valid_rows == expected.valid_rows == bm.valid_rows
        assert all(type(v) is Fraction for v in got.band(0))


def test_chain_gamma_values_land_in_declared_slots():
    chain = _tiny_chain()
    p, n = chain.p, chain.n
    # Every block q holds U's row q, then each factor's row q+1, once.
    tiling = [
        v
        for q in range(n - 1)
        for v in (chain.upper.diag[q], *(f.sub_at_row(q + 1) for f in chain.factors))
    ]
    assert [gamma(chain, t) for t in range(1, (n - 1) * (p + 1) + 1)] == tiling


def test_chain_reconstruction_and_json_round_trip():
    chain = _tiny_chain()
    recon = reconstruct(chain)
    expected = dense_mul(
        dense_mul(dense_rows(chain.factors[0]), dense_rows(chain.factors[1])),
        dense_rows(chain.upper),
    )
    for i in range(chain.n):
        expected[i][i] += chain.shift
    assert dense_rows(recon) == expected
    data = plain_json(chain.to_json_dict())
    assert plain_json(read_chain(data).to_json_dict()) == data


def test_printed_values_are_what_to_json_dict_prints():
    chain = _tiny_chain()
    data = chain.to_json_dict()
    printed = [data["C"], *(v for f in data["factors"] for v in f["sub"]), *data["U"]["diag"]]
    assert [format_rational(v) for v in chain.printed_values()] == printed
