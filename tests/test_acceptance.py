"""Acceptance suite: every criterion at exact (zero-tolerance) rational
equality, one pass/fail line printed per criterion.

Run as `pytest tests/test_acceptance.py -v -s` for the per-criterion lines.
"""

from fractions import Fraction
import random
import time

import pytest

from banded_darboux import (
    HypothesisViolated,
    InstanceConfig,
    ShiftedInstance,
    chain_from_instance,
    characteristic_polys,
    darboux_transform,
    delta_det,
    dual_sequence,
    generate,
    is_p_orthogonal,
    moment_budget,
    multiply_window,
    peel_stages,
    recurrence_values,
    run_theorem,
    shifted_lu,
    transformed_polys,
    vector,
)
from banded_darboux.engine import _staging
from helpers import (
    DenseMatrix,
    Functional,
    Z,
    as_polys,
    catalan_hessenberg,
    dense_mul,
    dense_rows,
    det_exact,
    divide_exactly,
    draw_rational,
    g_matrix,
    gamma,
    hand_example,
    make_chain,
    plus_scaled_identity,
    product_window,
    random_hessenberg_local,
    random_unit_lower,
    recurrence_values_by_fractions,
    source_ladder,
    split_chain,
    transformed_nu,
    unit_lower,
)


def report(n, name, detail):
    print(f"ACCEPTANCE {n:>2} {name}: PASS ({detail})")


def test_01_lu_roundtrip_200_seeded_instances():
    t0 = time.perf_counter()
    rng = random.Random(1001)
    factored = 0
    singular = 0
    for case in range(200):
        p = case % 4 + 1
        n = 24
        J = random_hessenberg_local(rng, p, n)
        if case % 4 == 0:
            shift = J.a(0, 0)  # forces P_1(C) = 0
        else:
            shift = draw_rational(rng)
        nums = recurrence_values(J, shift, n)
        first_zero = next((k for k in range(1, n + 1) if nums[k] == 0), None)
        if first_zero is not None:
            with pytest.raises(Exception) as err:
                ShiftedInstance(J, shift)
            assert err.value.index == first_zero
            singular += 1
        else:
            inst = ShiftedInstance(J, shift)
            L, U, _ = shifted_lu(inst, inst.n)
            product = multiply_window(unit_lower(L), U)
            assert product.valid_rows == n
            assert product == plus_scaled_identity(J, -shift)
            factored += 1
    elapsed = time.perf_counter() - t0
    assert factored + singular == 200 and singular >= 50
    assert elapsed < 10.0
    report(1, "LU roundtrip", f"{factored} factored, {singular} singular, {elapsed:.2f}s")


def test_02_characteristic_equals_determinants():
    rng = random.Random(1002)
    checks = 0
    for case in range(20):
        p = case % 4 + 1
        n = 12
        J = random_hessenberg_local(rng, p, n)
        polys = as_polys(characteristic_polys(J, n))
        for order in range(n + 1):
            # Both sides are monic of degree `order`; agreement on order+1
            # distinct rational points is agreement as polynomials.
            for point in range(order + 1):
                z = Fraction(point)
                minor = DenseMatrix.from_function(
                    order, order, lambda i, j: (z if i == j else 0) - J.entry(i, j)
                )
                assert polys[order](z) == det_exact(minor)
                checks += 1
    report(2, "characteristic = minors", f"{checks} point checks, 20 instances")


def test_03_chain_roundtrip_100_pairs_and_hand_example():
    rng = random.Random(1003)
    done = 0
    attempts = 0
    while done < 100:
        attempts += 1
        assert attempts < 200
        p = done % 4 + 1
        L = random_unit_lower(rng, p, 8)
        free_rows = [[draw_rational(rng) for _ in range(p - j)] for j in range(1, p)]
        try:
            factors = split_chain(L, free_rows)
        except Exception:
            continue
        assert product_window(factors) == unit_lower(L)
        for j in range(1, p):
            for r in range(1, p - j + 1):
                assert factors[j - 1].sub_at_row(r) == free_rows[j - 1][r - 1]
        done += 1
    n = 7
    L = hand_example(n)
    factors = split_chain(L, [[1]])
    assert factors[0].sub == (1,) * (n - 1)
    assert factors[1].sub == (2,) * (n - 1)
    assert product_window(factors) == unit_lower(L)
    report(3, "chain roundtrip", f"100 pairs in {attempts} draws + hand example")


def test_04_kernel_relations_50_chains():
    rng = random.Random(1004)
    relation_checks = 0
    for case in range(50):
        p = case % 4 + 1
        n = 12
        inst, chain = make_chain(rng, p, n, shift=draw_rational(rng))
        shift = inst.shift
        nmax = n - p - 1
        seqs = [as_polys(polys) for _, polys in transformed_polys(chain, nmax, range(p + 1))]
        for j in range(p):
            G = g_matrix(chain, j)
            for m in range(n - p - 1):
                lhs = (Z - shift) * seqs[j + 1][m]
                rhs = seqs[j][m + 1]
                for s in range(p):
                    if m - s >= 0:
                        rhs = rhs + G.entry(m, m - s) * seqs[j][m - s]
                assert lhs == rhs
                relation_checks += 1
        values = recurrence_values_by_fractions(inst.J, shift, n)
        for m in range(n - p - 1):
            ratio = values[m + 1] / values[m]
            assert (Z - shift) * seqs[p][m] == seqs[0][m + 1] - ratio * seqs[0][m]
            assert chain.upper.diag[m] == -ratio
            relation_checks += 1
    report(4, "kernel relations", f"{relation_checks} exact identities on 50 chains")


def test_05_dual_chain_relations_50_chains():
    rng = random.Random(1005)
    compared = 0
    for case in range(50):
        p = case % 3 + 1
        n = 12
        depth = 7
        inst, chain = make_chain(rng, p, n, shift=draw_rational(rng))
        shift = inst.shift
        duals = [
            [Functional(f) for f in dual_sequence(hess, depth)]
            for _, hess in darboux_transform(chain, range(p + 1))
        ]
        values = recurrence_values_by_fractions(inst.J, shift, n)
        for j in range(p):
            G = g_matrix(chain, j)
            for m in range(depth - 1):
                t = m * (p + 1) + j + 2
                lhs = duals[j + 1][m]
                rhs = duals[j][m] + duals[j][m + 1].scaled(gamma(chain, t))
                assert lhs.agrees_with(rhs)
                compared += 1
            for m in range(depth - p):
                lhs = duals[j][m].shift_multiply(shift)
                acc = duals[j + 1][m].scaled(G.entry(m, m))
                for s in range(1, p):
                    acc = acc + duals[j + 1][m + s].scaled(G.entry(m + s, m))
                if m - 1 >= 0:
                    acc = acc + duals[j + 1][m - 1]
                assert lhs.agrees_with(acc)
                compared += 1
        for m in range(depth - 1):
            lhs = duals[0][m].shift_multiply(shift)
            acc = duals[p][m].scaled(-values[m + 1] / values[m])
            if m - 1 >= 0:
                acc = acc + duals[p][m - 1]
            assert lhs.agrees_with(acc)
            compared += 1
    report(5, "dual chain relations", f"{compared} moment-vector equalities on 50 chains")


def test_06_full_rotation_ignores_minor_hypotheses():
    rng = random.Random(1006)
    runs = 0
    for p in (1, 2, 3, 4):
        window = 4 * p
        n = max(window + p + 2, moment_budget(window, p) + 1)
        for source in ("canonical", "random"):
            cfg = InstanceConfig(
                p=p, n=n, window=window, seed=600 + p, nu_source=source,
                require_hypotheses=False,
            )
            built = generate(cfg)
            nu = vector(built, cfg.moment_budget)
            free_rows = [[draw_rational(rng) for _ in range(p - j)] for j in range(1, p)]
            chain = chain_from_instance(built.instance, free_rows, built.instance.n)
            [(_, seq)] = transformed_polys(chain, window, [p])
            rotated = transformed_nu(nu, built.instance.shift, p)
            assert is_p_orthogonal(rotated, seq, p, window).passed
            runs += 1
    report(6, "full rotation, no minor hypothesis", f"{runs} vectors incl. canonical, window 4p")


def test_07_certified_transport_50_runs():
    t0 = time.perf_counter()
    passed = 0
    for case in range(50):
        p = 2 + case % 2
        window = 4 * p
        n = max(window + p + 2, moment_budget(window, p) + 1)
        cfg = InstanceConfig(p=p, n=n, window=window, seed=7000 + case)
        built = generate(cfg)
        nu = vector(built, cfg.moment_budget)
        cert = run_theorem(built.instance, nu, window)
        assert cert.passed
        assert [v.j for v in cert.stage_verdicts] == list(range(1, p + 1))
        passed += 1
    elapsed = time.perf_counter() - t0
    assert passed == 50
    assert elapsed < 60.0
    report(7, "certified transport", f"50 runs (p in 2,3) in {elapsed:.2f}s")


def test_08_negative_paths():
    # Canonical vector: the very first minor is the structural zero.
    for p in (2, 3, 4):
        window = 4
        n = max(window + p + 2, moment_budget(window, p) + 1)
        cfg = InstanceConfig(p=p, n=n, window=window, seed=800 + p, nu_source="canonical")
        built = generate(cfg)
        nu = vector(built, cfg.moment_budget)
        with pytest.raises(HypothesisViolated) as err:
            run_theorem(built.instance, nu, window)
        assert (err.value.stage, err.value.size) == (0, 1)
        assert err.value.value == 0
    # Constructed ladder zeroes a later stage: partial factorization returned.
    cfg = InstanceConfig(
        p=3, n=18, window=9, seed=808, nu_source="ladder",
        nu_ladder=[["1"], ["1", "1"], ["0", "1", "1"]],
    )
    built = generate(cfg)
    nu = vector(built, cfg.moment_budget)
    cert = run_theorem(built.instance, nu, 9)
    assert not cert.passed and cert.partial is not None
    assert cert.partial.stages == 1
    assert cert.partial.violated == (1, 1)
    ladder = source_ladder(built, nu)
    staging = _staging(ladder, 3)
    L, _, _ = shifted_lu(built.instance, built.instance.n)
    factors, remainder = peel_stages(L, staging.free_rows, 1)
    assert {len(row) for row in remainder} == {2}
    assert product_window([factors[0], unit_lower(remainder)]) == unit_lower(L)
    report(8, "negative paths", "structural zero raises; staged zero yields partial chain")


def test_09_single_band_reduction():
    n = 13
    inst = ShiftedInstance(catalan_hessenberg(n), 0)
    chain = chain_from_instance(inst, (), inst.n)
    J1 = dict(darboux_transform(chain, [1]))[1]
    dense = dense_mul(dense_rows(chain.upper), dense_rows(chain.factors[0]))
    for i in range(J1.valid_rows):
        for j in range(n):
            assert J1.entry(i, j) == dense[i][j] + (0 if i != j else chain.shift)
    P = as_polys(characteristic_polys(inst.J, 11))
    [(_, got)] = transformed_polys(chain, 10, [1])
    got = as_polys(got)
    assert got[1] == Z - Fraction(5, 2)
    for m in range(11):
        ratio = P[m + 1](0) / P[m](0)
        assert got[m] == divide_exactly(P[m + 1] - ratio * P[m], 0)
    report(9, "single-band reduction", "rotation = U*L + C*I; kernel formula to degree 10")


def test_10_staircase_transport_identity_and_minor_agreement():
    runs = 0
    identity_checks = 0
    for case in range(12):
        p = 2 + case % 2
        window = 4 * p
        n = max(window + p + 2, moment_budget(window, p) + 1)
        cfg = InstanceConfig(p=p, n=n, window=window, seed=1000 + case)
        built = generate(cfg)
        nu = vector(built, cfg.moment_budget)
        cert = run_theorem(built.instance, nu, window)
        assert cert.passed
        assert cert.transport_checks and all(ok for _, _, ok in cert.transport_checks)
        identity_checks += len(cert.transport_checks)
        # Minors two ways: the certificate records the staged route; the
        # direct route recomputes them from the source ladder.
        ladder = source_ladder(built, nu)
        for j, m, recorded in cert.hypotheses:
            assert str(delta_det(ladder, j, m)) == recorded
        runs += 1
    report(10, "staircase transport identity", f"{identity_checks} matrix equalities over {runs} runs")
