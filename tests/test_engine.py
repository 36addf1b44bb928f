"""The transport engine: hypotheses, stage ladders, free entries, rotation
of vectors, and full certificate runs."""

from fractions import Fraction
import importlib
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from banded_darboux import (
    BandedDarbouxError,
    ConfigError,
    ConsistencyFailure,
    GenerationExhausted,
    HypothesisViolated,
    IndexOutOfRange,
    InstanceConfig,
    LadderViolation,
    LambdaLadder,
    LowerBidiagonalUnit,
    ShiftedInstance,
    ZeroPeelPivot,
    build_nu,
    chain_from_instance,
    delta_det,
    dual_sequence,
    generate,
    is_p_orthogonal,
    lambda_of,
    moment_budget,
    peel_stages,
    run_theorem,
    shift_multiply,
    shifted_lu,
    stage_ladder,
    staircase_transport_identity,
    transformed_polys,
    vector,
)
from banded_darboux.engine import _staging
from banded_darboux.generate import random_ladder
from helpers import (
    canonical_nu,
    catalan_hessenberg,
    check_hypotheses,
    draw_rational,
    product_window,
    source_ladder,
    transformed_nu,
    transport_identity_by_dense,
    unit_lower,
)


def seeded_regular_ladder(rng, p):
    rows = []
    for i in range(1, p + 1):
        rows.append(
            [draw_rational(rng) for _ in range(i - 1)] + [draw_rational(rng, nonzero=True)]
        )
    return LambdaLadder(rows)


def built_instance(p, seed, window=None, nu_source="random", nu_ladder=None, shift="0"):
    window = 4 * p if window is None else window
    n = max(window + p + 2, moment_budget(window, p) + 1)
    cfg = InstanceConfig(
        p=p, n=n, window=window, seed=seed, shift=shift,
        nu_source=nu_source, nu_ladder=nu_ladder,
    )
    built = generate(cfg)
    return vector(built, cfg.moment_budget), built


# ------------------------------------------------------------- hypotheses


def test_hypotheses_empty_for_single_band():
    assert check_hypotheses(LambdaLadder([[3]]), 1) == []


def test_hypotheses_reject_canonical_staircase():
    ladder = LambdaLadder([[1], [0, 1], [0, 0, 1]])
    with pytest.raises(HypothesisViolated) as err:
        check_hypotheses(ladder, 3)
    assert (err.value.stage, err.value.size) == (0, 1)


def test_hypotheses_generic_ladder_values_match_minors():
    rng = random.Random(501)
    ladder = seeded_regular_ladder(rng, 3)
    table = check_hypotheses(ladder, 3)
    assert [(j, m) for j, m, _ in table] == [(0, 1), (0, 2), (1, 1)]
    for j, m, value in table:
        assert value == delta_det(ladder, j, m) != 0


# ------------------------------------------------------------ stage ladder


def test_stage_ladder_degenerate_identity_factor():
    # All-zero factor entries are only consistent when the dropped last
    # equation is 0 = 0, i.e. the old ladder's top staircase column is zero.
    old = LambdaLadder([[1], [1, 0], [3, 5, 0]])
    new = stage_ladder(old, [0, 0])
    assert new.rows == ((1,), (3, 5))


def test_stage_ladder_one_by_one_solve():
    old = LambdaLadder([[2], [6, 3]])
    new = stage_ladder(old, [Fraction(1, 2)])
    assert new.value(1, 0) == old.value(2, 0) == 6
    # side condition: old(2, 1) = sub(1) * new(1, 0) -> 3 = (1/2) * 6
    assert old.value(2, 1) == Fraction(1, 2) * new.value(1, 0)


def test_stage_ladder_side_condition_failure():
    old = LambdaLadder([[2], [6, 3]])
    with pytest.raises(ConsistencyFailure):
        stage_ladder(old, [Fraction(1, 7)])


def test_stage_ladder_matches_transport_matrix_identity():
    rng = random.Random(502)
    for p in (2, 3, 4):
        ladder = seeded_regular_ladder(rng, p)
        try:
            staging = _staging(ladder, p)
        except Exception:
            continue
        if staging.violation is not None:
            continue
        n = p + 2
        # Build the bidiagonal factors from the free rows to check the
        # matrix identity on leading blocks of every size.
        factors = [
            LowerBidiagonalUnit(
                n, list(staging.free_rows[j]) + [0] * (n - 1 - len(staging.free_rows[j]))
            )
            for j in range(p - 1)
        ]
        for j in range(1, p):
            for s in range(1, p - j):
                assert staircase_transport_identity(
                    factors, staging.stage_ladders, j, s
                )


small_fractions = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@settings(max_examples=150, deadline=None)
@given(p=st.integers(2, 4), kind=st.sampled_from(["staged", "factor", "ladder"]), data=st.data())
def test_transport_identity_matches_dense_products(p, kind, data):
    """Factors from the staging of a drawn ladder satisfy the identity; one
    perturbed factor entry or stage-ladder entry usually breaks it. Either
    way the row updates must give the dense products' verdict."""
    nonzero = small_fractions.filter(bool)
    ladder = LambdaLadder(
        [data.draw(st.lists(small_fractions, min_size=i - 1, max_size=i - 1))
         + [data.draw(nonzero)] for i in range(1, p + 1)]
    )
    staging = _staging(ladder, p)
    assume(staging.violation is None)
    n = p + data.draw(st.integers(0, 2))
    subs = [
        list(row) + data.draw(st.lists(small_fractions, min_size=n - 1 - len(row),
                                       max_size=n - 1 - len(row)))
        for row in staging.free_rows
    ]
    stage_ladders = list(staging.stage_ladders)
    if kind == "factor":
        j = data.draw(st.integers(0, p - 2))
        r = data.draw(st.integers(0, n - 2))
        subs[j][r] += data.draw(nonzero)
    elif kind == "ladder":
        j = data.draw(st.integers(1, p - 1))
        rows = [list(row) for row in stage_ladders[j].rows]
        i = data.draw(st.integers(0, len(rows) - 1))
        k = data.draw(st.integers(0, i))
        rows[i][k] += data.draw(nonzero)
        stage_ladders[j] = LambdaLadder(rows)
    factors = [LowerBidiagonalUnit(n, sub) for sub in subs]
    for j in range(p):
        for s in range(1, p - j):
            expected = transport_identity_by_dense(factors, stage_ladders, j, s)
            assert staircase_transport_identity(factors, stage_ladders, j, s) == expected
            if kind == "staged":
                assert expected


# ------------------------------------------------------------ free entries


def test_free_entries_single_band_is_empty():
    _, built = built_instance(1, seed=51, nu_source="ladder", nu_ladder=[["5"]])
    assert built.staging.stage_ladders[0] == LambdaLadder([[5]])
    assert built.staging.free_rows == ()
    assert built.staging.violation is None


def test_free_entries_two_bands_single_ratio():
    _, built = built_instance(2, seed=52, nu_source="ladder", nu_ladder=[["2"], ["3", "5"]])
    assert built.staging.free_rows == ((Fraction(5, 3),),)  # lambda(2,1)/lambda(2,0)
    assert built.staging.violation is None


def test_free_entries_alternating_sum_oracle():
    # At every stage, applying the inverse-bidiagonal's last row to the old
    # ladder's next column must vanish:
    #   old(k+1, k) - old(k+1, k-1) g_k + old(k+1, k-2) g_{k-1} g_k - ... = 0
    # with g_r the chosen factor entries.
    rng = random.Random(503)
    for p in (2, 3, 4):
        for _ in range(4):
            ladder = seeded_regular_ladder(rng, p)
            staging = _staging(ladder, p)
            if staging.violation is not None:
                continue
            for j, row in enumerate(staging.free_rows):
                old = staging.stage_ladders[j]
                for k in range(1, old.nrows):
                    total = Fraction(0)
                    sign = 1
                    gamma_tail = Fraction(1)
                    for t in range(k, -1, -1):
                        total += sign * old.value(k + 1, t) * gamma_tail
                        if t >= 1:
                            gamma_tail *= row[t - 1]
                        sign = -sign
                    assert total == 0


def test_free_entries_raise_on_zero_minor():
    # The staging records the zero minor and no free entries; the chain
    # commands turn it into HypothesisViolated (test_cli, exit 2).
    identity = [["1"], ["0", "1"], ["0", "0", "1"]]
    for source, rows in (("ladder", identity), ("canonical", None)):
        _, built = built_instance(3, seed=53, nu_source=source, nu_ladder=rows)
        assert built.staging.violation == (0, 1)
        assert built.staging.free_rows == ()


def test_staged_minors_agree_both_routes():
    rng = random.Random(504)
    ladder = seeded_regular_ladder(rng, 4)
    staging = _staging(ladder, 4)
    if staging.violation is None:
        for j, m, value in staging.deltas:
            assert delta_det(ladder, j, m) == value
            assert delta_det(staging.stage_ladders[j], 0, m) == value


def test_staging_violation_is_any_zero_source_minor():
    # generate resamples random ladders on this decision; small bounds make
    # zero minors at every stage common.
    rng = random.Random(505)
    zero_seen = 0
    for p in range(1, 6):
        for bound in (1, 2, 3, 9):
            for _ in range(40):
                ladder = random_ladder(rng, p, bound)
                any_zero = any(
                    delta_det(ladder, j, m) == 0 for j in range(p) for m in range(1, p - j)
                )
                assert (_staging(ladder, p).violation is not None) == any_zero
                zero_seen += any_zero
    assert zero_seen > 100


# ------------------------------------------------------ one ladder per run

generate_module = importlib.import_module("banded_darboux.generate")


@st.composite
def ladder_configs(draw):
    """Rows for the "ladder" source: small rationals, nonzero diagonal."""
    p = draw(st.integers(1, 4))
    scalar = st.builds(lambda n, d: f"{n}/{d}", st.integers(-9, 9), st.integers(1, 9))
    nonzero = st.builds(
        lambda n, d: f"{n}/{d}", st.integers(-9, 9).filter(bool), st.integers(1, 9)
    )
    rows = [draw(st.lists(scalar, min_size=i, max_size=i)) + [draw(nonzero)] for i in range(p)]
    return p, rows


@settings(max_examples=80, deadline=None)
@given(
    source=st.sampled_from(["random", "canonical", "ladder"]),
    p_and_rows=ladder_configs(),
    window=st.sampled_from([8, 16]),
    bound=st.sampled_from([1, 9]),
    require_hypotheses=st.booleans(),
    seed=st.integers(0, 10**6),
)
def test_generate_stages_the_ladder_nu_is_built_from(
    source, p_and_rows, window, bound, require_hypotheses, seed
):
    # The old route (recover the ladder from nu, stage it) is the oracle.
    p, rows = p_and_rows
    cfg = InstanceConfig(
        p=p, n=moment_budget(window, p) + p + 1, window=window, seed=seed, bound=bound,
        nu_source=source, nu_ladder=rows if source == "ladder" else None,
        require_hypotheses=require_hypotheses,
    )
    try:
        built = generate(cfg)
    except GenerationExhausted:
        return  # bound 1 at p = 4 can run out of admissible ladders
    nu = vector(built, cfg.moment_budget)
    ladder = built.staging.stage_ladders[0]
    assert source_ladder(built, nu) == ladder
    assert _staging(ladder, p) == built.staging
    if source == "random" and require_hypotheses:
        assert built.staging.violation is None
    if source == "canonical":
        duals = dual_sequence(built.instance.J, cfg.moment_budget)
        identity = LambdaLadder([[0] * i + [1] for i in range(p)])
        assert ladder == identity
        assert build_nu(identity, duals) == canonical_nu(duals, p) == nu


def test_resampled_ladder_keeps_the_accepted_draws_staging():
    # Two rejected draws before the third is accepted.
    cfg = InstanceConfig(p=2, n=20, window=8, seed=1, bound=1, shift="1/2", retry_cap=2)
    built = generate(cfg)
    assert built.ladder_retries == 2
    assert built.staging.violation is None
    # nu is built from the accepted draw, so its ladder heads the staging.
    ladder = built.staging.stage_ladders[0]
    assert source_ladder(built, vector(built, cfg.moment_budget)) == ladder
    assert built.staging == _staging(ladder, 2)


def test_zero_ladder_diagonal_stops_generate_before_staging(monkeypatch):
    staged = []
    monkeypatch.setattr(generate_module, "_staging", lambda *args: staged.append(args))
    with pytest.raises(LadderViolation, match=r"ladder diagonal \(2, 1\) is zero"):
        built_instance(2, seed=5, nu_source="ladder", nu_ladder=[["1"], ["0", "0"]])
    assert staged == []


# --------------------------------------------------------------- rotations


def test_rotated_vector_positions():
    nu = tuple((Fraction(i + 1), Fraction(0), Fraction(0), Fraction(0)) for i in range(3))
    rot = transformed_nu(nu, Fraction(0), 2)
    assert len(rot) == 3
    # (nu_3, (z-0) nu_1, (z-0) nu_2): first entry keeps nu_3's moments.
    assert rot[0] == nu[2][:3]
    assert rot[1] == shift_multiply(nu[0], 0)
    assert rot[2] == shift_multiply(nu[1], 0)


def test_rotated_vector_full_turn_shifts_everything():
    nu = ((Fraction(1), Fraction(2), Fraction(3)), (Fraction(4), Fraction(5), Fraction(6)))
    rot = transformed_nu(nu, Fraction(1), 2)
    assert rot == (shift_multiply(nu[0], 1), shift_multiply(nu[1], 1))


def test_rotated_vector_bounds():
    nu = ((Fraction(1), Fraction(2)),)
    with pytest.raises(IndexOutOfRange):
        transformed_nu(nu, 0, 2)
    with pytest.raises(IndexOutOfRange):
        transformed_nu(nu, 0, 0)


def test_classical_kernel_functional_p1():
    # p = 1: the rotated vector is ((z - C) nu) and it certifies the kernel
    # sequence; checked by the direct scan.
    nu, built = built_instance(1, seed=21, window=6)
    inst = built.instance
    chain = chain_from_instance(inst, (), inst.n)
    [(_, seq)] = transformed_polys(chain, 6, [1])
    rotated = transformed_nu(nu, inst.shift, 1)
    assert is_p_orthogonal(rotated, seq, 1, 6).passed


def test_full_rotation_needs_no_minor_hypothesis():
    # Even the canonical vector (whose minors vanish) transports to j = p,
    # for any choice of free entries.
    for p, seed in [(2, 31), (3, 32)]:
        nu, built = built_instance(p, seed=seed, nu_source="canonical")
        inst = built.instance
        rng = random.Random(seed)
        free_rows = [[draw_rational(rng) for _ in range(p - j)] for j in range(1, p)]
        chain = chain_from_instance(inst, free_rows, inst.n)
        window = 4 * p
        [(_, seq)] = transformed_polys(chain, window, [p])
        rotated = transformed_nu(nu, inst.shift, p)
        assert is_p_orthogonal(rotated, seq, p, window).passed


# ------------------------------------------------------------ full pipeline


def test_certificate_catalan_p1():
    n = 16
    inst = ShiftedInstance(catalan_hessenberg(n), 0)
    duals = dual_sequence(inst.J, moment_budget(6, 1))
    nu = canonical_nu(duals, 1)
    cert = run_theorem(inst, nu, 6)
    assert cert.passed
    assert cert.hypotheses == ()
    assert [v.j for v in cert.stage_verdicts] == [1]


def test_certificate_seeded_p2_p3():
    for p, seed in [(2, 41), (3, 43)]:
        nu, built = built_instance(p, seed=seed)
        cert = run_theorem(built.instance, nu, 4 * p)
        assert cert.passed
        assert [v.j for v in cert.stage_verdicts] == list(range(1, p + 1))
        assert all(ok for _, _, ok in cert.transport_checks)
        assert cert.to_json_dict()["structure_ok"] is True
        assert cert.partial is None


def test_certificate_four_bands_deep_stage_recursion():
    # Three peeling stages, six transport identities: the widest case the
    # generator parameters keep cheap.
    nu, built = built_instance(4, seed=9)
    cert = run_theorem(built.instance, nu, 16)
    assert cert.passed
    assert [v.j for v in cert.stage_verdicts] == [1, 2, 3, 4]
    assert [(j, s) for j, s, _ in cert.transport_checks] == [
        (0, 1), (0, 2), (0, 3), (1, 1), (1, 2), (2, 1),
    ]


def test_certificate_rejects_canonical_vector_immediately():
    nu, built = built_instance(2, seed=44, nu_source="canonical")
    with pytest.raises(HypothesisViolated) as err:
        run_theorem(built.instance, nu, 8)
    assert (err.value.stage, err.value.size) == (0, 1)
    assert err.value.value == 0


def test_certificate_partial_on_staged_zero():
    # lambda(3, 0) = 0 keeps the stage-0 minors alive but kills the stage-1
    # minor, so exactly one factor is peeled and the remainder (2 bands)
    # still reconstructs L together with it.
    ladder_rows = [["1"], ["1", "1"], ["0", "1", "1"]]
    nu, built = built_instance(3, seed=45, window=9, nu_source="ladder", nu_ladder=ladder_rows)
    cert = run_theorem(built.instance, nu, 9)
    assert not cert.passed
    assert cert.partial is not None
    assert cert.partial.stages == 1
    assert cert.partial.violated == (1, 1)
    assert cert.partial.remainder_bands == 2
    ladder = source_ladder(built, nu)
    staging = _staging(ladder, 3)
    assert staging == built.staging
    L, _, _ = shifted_lu(built.instance, built.instance.n)
    factors, remainder = peel_stages(L, staging.free_rows, 1)
    assert product_window([factors[0], unit_lower(remainder)]) == unit_lower(L)


def test_certificate_config_guards():
    nu, built = built_instance(2, seed=46)
    with pytest.raises(ConfigError):
        run_theorem(built.instance, nu, built.instance.n)  # window too big


def test_mixed_vectors_from_adjacent_stages():
    # From vectors at stages j and j+1 one can splice mixed vectors that
    # remain staircase-orthogonal: the tail of stage j+1 prefixed by
    # (z - C) nu^j_1 certifies stage j+1, and nu^j_1 followed by the lead
    # of stage j+1 certifies stage j.
    p, seed = 3, 47
    # Generate with extra moment headroom: the spliced vectors re-shift an
    # already-shifted entry, consuming one more degree than a plain run.
    nu, built = built_instance(p, seed=seed, window=4 * p + p)
    inst = built.instance
    window = 4 * p
    cert = run_theorem(inst, nu, window)
    assert cert.passed
    chain = chain_from_instance(inst, built.staging.free_rows, window + 1)
    seqs = dict(transformed_polys(chain, window, range(p + 1)))
    vectors = {0: nu}
    for j in range(1, p + 1):
        vectors[j] = transformed_nu(nu, inst.shift, j)
    for j in range(p):
        nu_j, nu_next = vectors[j], vectors[j + 1]
        spliced_up = (*nu_next[: p - 1], shift_multiply(nu_j[0], inst.shift))
        assert is_p_orthogonal(spliced_up, seqs[j + 1], p, window).passed
        spliced_down = (nu_j[0], *nu_next[: p - 1])
        assert is_p_orthogonal(spliced_down, seqs[j], p, window).passed


def test_certificate_json_shape_is_stable():
    nu, built = built_instance(2, seed=48)
    cert = run_theorem(built.instance, nu, 8)
    doc = cert.to_json_dict()
    assert list(doc) == [
        "fingerprint", "p", "N", "C", "window", "moment_budget", "hypotheses",
        "free_entries", "transport_checks", "structure_ok", "stages",
        "partial", "passed",
    ]
    assert doc["passed"] is True
    again = run_theorem(built.instance, nu, 8)
    assert again.to_json_dict() == doc


@st.composite
def generated_runs(draw):
    """A generated instance and its random nu at p = 2..5, N <= 40; configs that
    raise are skipped. A budget of p or more moments leaves (z-C) nu_i
    enough of them to be applied to P_0 .. P_{p-1}."""
    p = draw(st.integers(2, 5))
    window = draw(st.integers(1, 10).filter(lambda w: moment_budget(w, p) >= p))
    n = draw(st.integers(max(moment_budget(window, p), window + p + 1), 40))
    config = InstanceConfig(
        p=p, n=n, window=window,
        seed=draw(st.integers(0, 10**6)),
        bound=draw(st.sampled_from([1, 2, 9, 1000])),
        shift=draw(st.sampled_from(["0", "1/3", "-1"])),
    )
    try:
        built = generate(config)
    except BandedDarbouxError:
        assume(False)
    return built, vector(built, config.moment_budget)


@settings(max_examples=30, deadline=None)
@given(run=generated_runs())
def test_staged_ladder_is_the_rotated_vectors_ladder(run):
    # Stage j's ladder comes from the source ladder and the free entries
    # alone. It is the leading p - j rows of the ladder of the rotated
    # vector nu(j) = (nu_{j+1}, .., nu_p, (z-C) nu_1, .., (z-C) nu_j) over
    # the sequence of J(j), j = 1 .. p-1: a route that shares nothing with
    # the staging but the chain.
    built, nu = run
    inst, staging = built.instance, built.staging
    p = inst.p
    assume(staging.violation is None)
    try:
        chain = chain_from_instance(inst, staging.free_rows, p)
    except ZeroPeelPivot:
        assume(False)
    turned = [*nu, *(shift_multiply(f, inst.shift) for f in nu)]
    for j, polys in transformed_polys(chain, p - 1, range(1, p)):
        ladder = lambda_of(turned[j : j + p], polys)
        assert staging.stage_ladders[j].rows == ladder.rows[: p - j]
