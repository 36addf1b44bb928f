"""Shifted LU, chain peeling, rotations, and the relation matrices."""

from fractions import Fraction
import random

import pytest

from banded_darboux import (
    BadFreeSpec,
    BandedHessenberg,
    IndexOutOfRange,
    InstanceConfig,
    ShiftedInstance,
    ShapeMismatch,
    SingularLeadingMinor,
    ZeroPeelPivot,
    chain_from_instance,
    characteristic_polys,
    darboux_transform,
    generate,
    multiply_window,
    peel_stages,
    shifted_lu,
    transformed_polys,
)
from banded_darboux.factorization import last_row_lowest_entry
from helpers import (
    Poly,
    Z,
    as_polys,
    fraction_polys,
    catalan_hessenberg,
    dense_mul,
    dense_rows,
    divide_exactly,
    draw_rational,
    entry,
    freivalds_mismatches,
    g_matrix,
    gamma,
    hand_example,
    make_chain,
    plus_scaled_identity,
    product_window,
    random_hessenberg_local,
    random_unit_lower,
    recurrence_values_by_fractions,
    split_chain,
    unit_lower,
)


# ---------------------------------------------------------------- shifted LU


def test_lu_on_already_upper_bidiagonal_matrix():
    n = 5
    J = BandedHessenberg(2, n, {0: range(1, n + 1)})
    inst = ShiftedInstance(J, 0)
    L, U, _ = shifted_lu(inst, inst.n)
    assert L == [[0, 0]] * n
    assert U.diag == tuple(Fraction(i + 1) for i in range(n))


def test_lu_catalan_values():
    inst = ShiftedInstance(catalan_hessenberg(3), 0)
    L, U, _ = shifted_lu(inst, inst.n)
    assert U.diag == (Fraction(2), Fraction(3, 2), Fraction(4, 3))
    assert L == [[0], [Fraction(1, 2)], [Fraction(2, 3)]]


def test_lu_rejects_singular_shift():
    # P_1(2) = 0 for the Catalan instance, so the order-1 minor is singular.
    with pytest.raises(SingularLeadingMinor) as err:
        ShiftedInstance(catalan_hessenberg(3), 2)
    assert err.value.index == 1


def test_lu_reconstructs_shifted_matrix_exactly():
    rng = random.Random(401)
    for p in (1, 2, 3, 4):
        J = random_hessenberg_local(rng, p, 9)
        shift = Fraction(1, 3)
        try:
            inst = ShiftedInstance(J, shift)
        except SingularLeadingMinor:
            continue
        L, U, _ = shifted_lu(inst, inst.n)
        prod = multiply_window(unit_lower(L), U)
        assert prod.valid_rows == 9
        target = plus_scaled_identity(J, -shift)
        assert prod == target


def test_lu_pivots_are_minor_ratios():
    # u_n = -P_{n+1}(C)/P_n(C): the running determinant ratio.
    rng = random.Random(402)
    J = random_hessenberg_local(rng, 2, 8)
    shift = Fraction(-2, 5)
    inst = ShiftedInstance(J, shift)
    values = recurrence_values_by_fractions(J, shift, inst.n)
    _, U, _ = shifted_lu(inst, inst.n)
    for n in range(8):
        assert U.diag[n] == -values[n + 1] / values[n]


# ------------------------------------------------------------- chain peeling


def test_peel_identity_with_zero_free_entries():
    # L = I has a zero lowest band: row 3 of stage 1 is 0 = s * 0 before
    # the last row, which the peel does not settle by convention.
    L = [[Fraction(0)] * 3] * 6
    with pytest.raises(ZeroPeelPivot) as err:
        split_chain(L, [[0, 0], [0]])
    assert (err.value.stage, err.value.row) == (1, 3)
    assert str(err.value) == "zero peeling pivot at stage 1, row 3"


def test_peel_hand_example_free_one():
    n = 6
    L = hand_example(n)
    factors = split_chain(L, [[1]])
    assert factors[0].sub == (1,) * (n - 1)
    assert factors[1].sub == (2,) * (n - 1)
    assert product_window(factors) == unit_lower(L)


def test_peel_hand_example_free_two_still_reconstructs():
    # Same L, different free entry: the peel at row 2 divides by 3 - 2 = 1,
    # giving 2 again, and the whole first factor stays at 2 while the
    # remainder drops to 1; the product is the real contract.
    n = 6
    L = hand_example(n)
    factors = split_chain(L, [[2]])
    assert factors[0].sub_at_row(1) == 2
    assert factors[0].sub_at_row(2) == Fraction(2, 1)
    assert factors[0].sub == (2,) * (n - 1)
    assert factors[1].sub == (1,) * (n - 1)
    assert product_window(factors) == unit_lower(L)


def test_peel_seeded_roundtrip_and_prescribed_entries():
    rng = random.Random(77)
    for p in (1, 2, 3, 4):
        for _ in range(6):
            L = random_unit_lower(rng, p, 8)
            rows = [[draw_rational(rng) for _ in range(p - j)] for j in range(1, p)]
            try:
                factors = split_chain(L, rows)
            except ZeroPeelPivot:
                continue
            assert product_window(factors) == unit_lower(L)
            for j in range(1, p):
                for r in range(1, p - j + 1):
                    assert factors[j - 1].sub_at_row(r) == rows[j - 1][r - 1]


def test_peel_is_deterministic():
    rng = random.Random(78)
    L = random_unit_lower(rng, 3, 8)
    free_rows = [[1, 2], [3]]
    once = split_chain(L, free_rows)
    twice = split_chain(L, free_rows)
    assert once == twice


def test_peel_zero_pivot_is_reported():
    # Free entry 3 makes the remainder's first subdiagonal entry 3 - 3 = 0;
    # the next row then needs 2 / 0, which has no solution.
    n = 5
    L = hand_example(n)
    with pytest.raises(ZeroPeelPivot) as err:
        split_chain(L, [[3]])
    assert (err.value.stage, err.value.row) == (1, 2)
    assert str(err.value).endswith(": no chain with the staged free entries exists")


def test_peel_vacuous_constraint_takes_zero():
    # Band -2 is zero, and free entry 3 zeroes the remainder's row 1, so row
    # 2 reads 0 = s * 0. On the last row any s completes the block, and the
    # peel takes 0; before it, no convention picks s and the peel raises.
    L = [[Fraction(0), Fraction(3 if i else 0)] for i in range(3)]
    factors = split_chain(L, [[3]])
    assert factors[0].sub == (3, 0)
    assert product_window(factors) == unit_lower(L)
    with pytest.raises(ZeroPeelPivot) as err:
        split_chain(L + L[1:], [[3]])
    assert (err.value.stage, err.value.row) == (1, 2)
    assert str(err.value) == "zero peeling pivot at stage 1, row 2"


def test_free_spec_validation():
    # Too few rows, a row too long, and rows sized for another p, given to
    # the chain of an instance with p = 3, and one more row than p = 2 takes.
    inst, _ = make_chain(random.Random(81), 3, 8)
    cases = [
        ([[1, 2]], "need rows for factors 1..2, got 1"),
        ([[1, 2], [3, 4]], "stage 2 needs 1 free entries, got 2"),
        ([[1, 2, 3], [4]], "stage 1 needs 2 free entries, got 3"),
        ([[1]], "need rows for factors 1..2, got 1"),
        ([[1, 2, 3], [4, 5], [6]], "need rows for factors 1..2, got 3"),
    ]
    for rows, message in cases:
        for keep in (3, inst.n):
            with pytest.raises(BadFreeSpec, match=message):
                chain_from_instance(inst, rows, keep)
    inst, _ = make_chain(random.Random(82), 2, 4)
    with pytest.raises(BadFreeSpec, match="need rows for factors 1..1, got 2"):
        chain_from_instance(inst, [[1, 2], [3]], inst.n)


def test_partial_peel_keeps_reconstruction():
    rng = random.Random(79)
    L = random_unit_lower(rng, 3, 7)
    factors, remainder = peel_stages(L, [[1, 2]], 1)
    assert {len(row) for row in remainder} == {2}
    assert product_window([factors[0], unit_lower(remainder)]) == unit_lower(L)


def test_peel_rejects_an_empty_ragged_or_overhanging_lower():
    # Empty, ragged, and with a nonzero entry at column -1 of row 1.
    zero = [Fraction(0)] * 2
    for L in ([], [zero, [Fraction(1)]], [zero, [Fraction(1), Fraction(3)], [Fraction(2)] * 2]):
        with pytest.raises(ShapeMismatch):
            peel_stages(L, [[1]], 1)


# ------------------------------------------------------ rotations / g matrix


def test_rotation_zero_is_the_source_matrix():
    rng = random.Random(80)
    inst, chain = make_chain(rng, 3, 8)
    J0 = dict(darboux_transform(chain, [0]))[0]
    assert J0.valid_rows == 8
    assert dense_rows(J0) == dense_rows(inst.J)


def test_rotation_catalan_p1():
    inst = ShiftedInstance(catalan_hessenberg(6), 0)
    chain = chain_from_instance(inst, (), inst.n)
    J1 = dict(darboux_transform(chain, [1]))[1]
    assert J1.a(0, 0) == Fraction(5, 2)
    assert entry(J1, 0, 1) == 1
    dense = dense_mul(dense_rows(chain.upper), dense_rows(chain.factors[0]))
    for i in range(J1.valid_rows):
        for j in range(6):
            expected = dense[i][j] + (chain.shift if i == j else 0)
            assert entry(J1, i, j) == expected


def test_rotation_full_cycle_dense_oracle():
    rng = random.Random(81)
    inst, chain = make_chain(rng, 2, 7, shift=Fraction(1, 2))
    rotations = dict(darboux_transform(chain, range(3)))
    for j in range(3):
        got = rotations[j]
        mats = [dense_rows(f) for f in chain.factors[j:]]
        mats.append(dense_rows(chain.upper))
        mats.extend(dense_rows(f) for f in chain.factors[:j])
        acc = mats[0]
        for m in mats[1:]:
            acc = dense_mul(acc, m)
        for i in range(got.valid_rows):
            for k in range(7):
                expected = acc[i][k] + (chain.shift if i == k else 0)
                assert entry(got, i, k) == expected
        if j > 0:
            assert got.valid_rows == 6
        assert all(entry(got, i, i + 1) == 1 for i in range(min(got.valid_rows, 6)))


def test_rotation_index_bounds():
    rng = random.Random(82)
    _, chain = make_chain(rng, 2, 6)
    with pytest.raises(IndexOutOfRange):
        darboux_transform(chain, [3])
    with pytest.raises(IndexOutOfRange):
        darboux_transform(chain, [-1])


def test_last_row_lowest_entry_matches_the_formed_rotation():
    # The product route is the reference: the chain-only entry must equal
    # the formed J(j)'s a(N-1, N-1-p) for every j, the source's at j = 0.
    for seed in (83, 84, 85):
        rng = random.Random(seed)
        for p in range(1, 5):
            for n in (p + 1, p + 3, 9):
                inst, chain = make_chain(rng, p, n, shift=Fraction(seed - 84, 3))
                for j in range(p + 1):
                    expected = dict(darboux_transform(chain, [j]))[j].a(n - 1, n - 1 - p)
                    assert last_row_lowest_entry(chain, j) == expected
                assert last_row_lowest_entry(chain, 0) == inst.J.a(n - 1, n - 1 - p)
    _, chain = make_chain(rng, 2, 6)
    for j in (-1, 3):
        with pytest.raises(IndexOutOfRange):
            last_row_lowest_entry(chain, j)
    # N <= p: the truncation has no band -p at all.
    with pytest.raises(IndexOutOfRange):
        last_row_lowest_entry(chain.leading(2), 1)


def test_g_matrix_p1_is_the_upper_factor():
    inst = ShiftedInstance(catalan_hessenberg(5), 0)
    chain = chain_from_instance(inst, (), inst.n)
    G = g_matrix(chain, 0)
    for i in range(5):
        assert entry(G, i, i) == chain.upper.diag[i]
        if i + 1 < 5:
            assert entry(G, i, i + 1) == 1


def test_g_matrix_dense_oracle_and_band_profile():
    rng = random.Random(83)
    _, chain = make_chain(rng, 3, 8)
    for j in range(3):
        G = g_matrix(chain, j)
        mats = [dense_rows(f) for f in chain.factors[j + 1:]]
        mats.append(dense_rows(chain.upper))
        mats.extend(dense_rows(f) for f in chain.factors[:j])
        acc = mats[0]
        for m in mats[1:]:
            acc = dense_mul(acc, m)
        for i in range(G.valid_rows):
            for k in range(8):
                assert entry(G, i, k) == acc[i][k]
        # (p+1)-banded Hessenberg: support n-p+1 .. n+1 with unit top.
        for i in range(G.valid_rows):
            for k in range(8):
                if k > i + 1 or k < i - 2:
                    assert entry(G, i, k) == 0
            if i + 1 < 8:
                assert entry(G, i, i + 1) == 1


def test_g_matrix_lowest_band_nonzero_for_regular_chains():
    rng = random.Random(84)
    found = 0
    while found < 3:
        _, chain = make_chain(rng, 3, 8)
        if not all(v != 0 for f in chain.factors for v in f.sub) or 0 in chain.upper.diag:
            continue
        found += 1
        for j in range(3):
            G = g_matrix(chain, j)
            for i in range(2, G.valid_rows):
                assert entry(G, i, i - 2) != 0


def test_transformed_sequence_starts_at_one_and_is_monic():
    rng = random.Random(85)
    _, chain = make_chain(rng, 2, 8)
    sequences = dict(transformed_polys(chain, 6, range(3)))
    for j in range(3):
        polys = fraction_polys(sequences[j])
        assert polys[0] == (1,)
        for n, poly in enumerate(polys):
            assert len(poly) == n + 1 and poly[-1] == 1


def test_adjacent_stage_factor_relation():
    # Stage-j and stage-(j+1) sequences differ by one chain coefficient:
    # Q^j_{m+1} = Q^{j+1}_{m+1} + gamma_{m(p+1)+j+2} * Q^{j+1}_m, and the
    # m = -1 case is the shared initial value 1.
    rng = random.Random(86)
    for p in (1, 2, 3):
        inst, chain = make_chain(rng, p, 10, shift=draw_rational(rng))
        nmax = 10 - p - 1
        seqs = [as_polys(polys) for _, polys in transformed_polys(chain, nmax, range(p + 1))]
        for j in range(p):
            assert seqs[j][0] == seqs[j + 1][0] == Poly.one()
            for m in range(nmax - 1):
                g = gamma(chain, m * (p + 1) + j + 2)
                assert seqs[j][m + 1] == seqs[j + 1][m + 1] + g * seqs[j + 1][m]


def test_transformed_sequence_catalan_kernel_oracle():
    # p = 1: the rotated sequence must match the classical kernel formula
    # (P_{n+1} - (P_{n+1}(C)/P_n(C)) P_n) / (z - C) with C = 0.
    inst = ShiftedInstance(catalan_hessenberg(12), 0)
    chain = chain_from_instance(inst, (), inst.n)
    P = as_polys(characteristic_polys(inst.J, 11))
    [(_, got)] = transformed_polys(chain, 10, [1])
    got = as_polys(got)
    assert got[1] == Z - Fraction(5, 2)
    for n in range(11):
        ratio = P[n + 1](0) / P[n](0)
        expected = divide_exactly(P[n + 1] - ratio * P[n], 0)
        assert got[n] == expected


@pytest.mark.parametrize(
    "p, n", [(1, 1000), (2, 700), (4, 400)], ids=["p1-N1000", "p2-N700", "p4-N400"]
)
def test_chain_and_rotations_pass_a_freivalds_check_at_full_n(p, n):
    # Shapes of the chain-long benchmark, far past the N <= 40 of the exact
    # oracles: J - C*I = L(1) .. L(p) U on all N rows, and each J(j) on the
    # rows 0 .. N-2 it is valid on, checked mod 2^61 - 1 with random vectors.
    # C is nonzero, so a J(j) that left it off would differ.
    built = generate(InstanceConfig(p=p, n=n, window=8, seed=1, shift="1/2"))
    chain = chain_from_instance(built.instance, built.staging.free_rows, n)
    rng = random.Random(p)
    assert freivalds_mismatches(chain, built.instance.J, 0, rng) == []
    for j, hess in darboux_transform(chain, range(1, p + 1)):
        assert freivalds_mismatches(chain, hess, j, rng) == []
