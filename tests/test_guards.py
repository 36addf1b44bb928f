"""Each public guard of the library raises its documented class and message.

These are the guards no other test reaches (`python tests/raise_reach.py`
lists them): argument checks on the band types, the chain, the ladder and
the functionals, the immutability of the value types, and the staging's
cross-check of its minors, which only a broken minor route can trip.
"""

from fractions import Fraction

import pytest

from banded_darboux import (
    BadFreeSpec,
    BandedHessenberg,
    BandMatrix,
    BidiagonalChain,
    ConfigError,
    ConsistencyFailure,
    IndexOutOfRange,
    InternalCheckError,
    LadderViolation,
    LambdaLadder,
    LowerBidiagonalUnit,
    NotMonicOrDegreeGap,
    ShapeMismatch,
    ShiftedInstance,
    SizeMismatch,
    UpperBidiagonal,
    build_nu,
    is_p_orthogonal,
    lambda_of,
    peel_stages,
    rational,
    recurrence_values,
    run_theorem,
    stage_ladder,
)
from banded_darboux import engine


def _chain(n=3):
    return BidiagonalChain(
        1, n, 0, [LowerBidiagonalUnit(n, [1] * (n - 1))], UpperBidiagonal(n, [1] * n)
    )


def _hessenberg(p=1, n=6):
    """Diagonal 2, every lower band 1: admissible at C = 0."""
    bands = {-d: [0] * d + [2 if d == 0 else 1] * (n - d) for d in range(p + 1)}
    return BandedHessenberg(p, n, bands)


# L in peel_stages' row layout: two subdiagonals, nothing left of column 0.
_L = [[0, 0], [0, 1], [1, 1]]

GUARDS = {
    "band-slot-count": (
        lambda: BandMatrix(3, 0, 0, {0: [1, 2]}),
        SizeMismatch, "band 0 has 2 slots, expected 3",
    ),
    "band-value-outside-the-matrix": (
        lambda: BandMatrix(3, 1, 0, {-1: [1, 1, 1]}),
        SizeMismatch, "band -1 has a value outside the matrix at row 0",
    ),
    "band-above-the-widths": (
        lambda: BandMatrix(3, 0, 0, {0: [1, 1, 1], 5: [0, 0, 0]}),
        SizeMismatch, "band 5 lies outside bands 0..0",
    ),
    "band-below-the-widths": (
        lambda: BandMatrix(3, 1, 0, {0: [1, 1, 1], -2: [0, 0, 1]}),
        SizeMismatch, "band -2 lies outside bands -1..0",
    ),
    "hessenberg-band-below-p": (
        lambda: BandedHessenberg(1, 3, {0: [1, 1, 1], -2: [0, 0, 1]}),
        SizeMismatch, "band -2 lies outside bands -1..1",
    ),
    "hessenberg-superdiagonal-given": (
        lambda: BandedHessenberg(1, 3, {0: [1, 1, 1], 1: [7, 7, 0]}),
        SizeMismatch, "band 1 is the unit superdiagonal; it is not given",
    ),
    "hessenberg-p-0": (
        lambda: BandedHessenberg(0, 3, {}),
        IndexOutOfRange, "band parameter must be >= 1, got 0",
    ),
    "from-band-matrix-above-the-superdiagonal": (
        lambda: BandedHessenberg.from_band_matrix(
            BandMatrix(3, 0, 2, {1: [1, 1, 0], 2: [5, 0, 0]}), 1, Fraction(0)
        ),
        SizeMismatch, "entry (0, 2) above the superdiagonal is nonzero",
    ),
    "from-band-matrix-below-band-minus-p": (
        lambda: BandedHessenberg.from_band_matrix(
            BandMatrix(3, 2, 1, {-2: [0, 0, 7], 1: [1, 1, 0]}), 1, Fraction(0)
        ),
        SizeMismatch, "entry (2, 0) below band -1 is nonzero",
    ),
    "from-band-matrix-no-superdiagonal": (
        lambda: BandedHessenberg.from_band_matrix(BandMatrix(2, 1, 0, {}), 1, Fraction(0)),
        SizeMismatch, "source has no superdiagonal at all",
    ),
    "from-band-matrix-superdiagonal-not-1": (
        lambda: BandedHessenberg.from_band_matrix(
            BandMatrix(2, 1, 1, {1: [2, 0]}), 1, Fraction(0)
        ),
        SizeMismatch, "superdiagonal entry (0, 1) is 2, not 1",
    ),
    "sub-at-row-0": (
        lambda: LowerBidiagonalUnit(3, [1, 1]).sub_at_row(0),
        IndexOutOfRange, "row 0 has no subdiagonal entry",
    ),
    "chain-factor-count": (
        lambda: BidiagonalChain(
            2, 3, 0, [LowerBidiagonalUnit(3, [1, 1])], UpperBidiagonal(3, [1, 1, 1])
        ),
        SizeMismatch, "need 2 factors, got 1",
    ),
    "chain-factor-size": (
        lambda: BidiagonalChain(
            1, 3, 0, [LowerBidiagonalUnit(2, [1])], UpperBidiagonal(3, [1, 1, 1])
        ),
        SizeMismatch, "factor size differs from chain size",
    ),
    "chain-upper-size": (
        lambda: BidiagonalChain(
            1, 3, 0, [LowerBidiagonalUnit(3, [1, 1])], UpperBidiagonal(2, [1, 1])
        ),
        SizeMismatch, "upper factor size differs from chain size",
    ),
    "leading-0": (lambda: _chain().leading(0), IndexOutOfRange, "leading block 0 outside 1..3"),
    "leading-past-n": (
        lambda: _chain().leading(4), IndexOutOfRange, "leading block 4 outside 1..3"
    ),
    "recurrence-values-past-the-trustworthy-rows": (
        lambda: recurrence_values(
            BandedHessenberg(1, 3, {0: [1, 1, 1], -1: [0, 1, 1]}, valid_rows=2), 0, 3
        ),
        IndexOutOfRange, "need rows 0..2 but only 2 rows are trustworthy",
    ),
    "stage-ladder-short-subdiagonal": (
        lambda: stage_ladder(LambdaLadder([[1], [1, 1]]), []),
        ConsistencyFailure, "need 1 leading subdiagonal entries, got 0",
    ),
    "run-theorem-budget-past-n": (
        lambda: run_theorem(ShiftedInstance(_hessenberg(1, 6), 0), [[1] * 10], 4),
        ConfigError, "moment budget 9 exceeds truncation order 6",
    ),
    "run-theorem-short-vector": (
        lambda: run_theorem(ShiftedInstance(_hessenberg(1, 10), 0), [[1] * 3], 4),
        ConfigError, "vector carries moments to degree 2, budget needs 9",
    ),
    "rational-of-a-float": (
        lambda: rational(1.5), TypeError, "cannot interpret 1.5 as an exact rational"
    ),
    "peel-more-stages-than-bands": (
        lambda: peel_stages(_L, [], 3), BadFreeSpec, "cannot peel 3 stages off 2 bands"
    ),
    "peel-without-free-entries": (
        lambda: peel_stages(_L, [], 1), BadFreeSpec, "need free entries for 1 stages, got 0"
    ),
    "ladder-position": (
        lambda: LambdaLadder([[1]]).value(0, 0),
        IndexOutOfRange, "ladder position (0, 0) out of range",
    ),
    "lambda-of-too-few-polynomials": (
        lambda: lambda_of([[1, 0], [0, 1]], [([1], 1)]),
        NotMonicOrDegreeGap, "need the first 2 polynomials, got 1",
    ),
    "lambda-of-zero-diagonal": (
        lambda: lambda_of([[0, 1]], [([1], 1)]),
        LadderViolation, "nu_1[P_0] = 0, expected nonzero",
    ),
    "build-nu-more-rows-than-duals": (
        lambda: build_nu(LambdaLadder([[1], [0, 1]]), [[1, 0]]),
        ShapeMismatch, "a vector needs 1 to 1 entries, the ladder has 2 rows",
    ),
    "is-p-orthogonal-vector-length": (
        lambda: is_p_orthogonal([[1, 0]], [([1], 1), ([0, 1], 1)], 2, 1),
        ShapeMismatch, "vector has 1 entries, expected 2",
    ),
    "is-p-orthogonal-short-sequence": (
        lambda: is_p_orthogonal([[1, 0]], [([1], 1), ([0, 1], 1)], 1, 3),
        ShapeMismatch, "need polynomials 0..3, got 2",
    ),
}


@pytest.mark.parametrize("name", list(GUARDS))
def test_guard_raises_its_class_and_message(name):
    call, error, message = GUARDS[name]
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


@pytest.mark.parametrize(
    "make",
    [
        lambda: BandMatrix(2, 0, 0, {0: [1, 1]}),
        _chain,
        lambda: ShiftedInstance(_hessenberg(), 0),
        lambda: LambdaLadder([[1]]),
    ],
    ids=["BandMatrix", "BidiagonalChain", "ShiftedInstance", "LambdaLadder"],
)
def test_value_types_are_immutable(make):
    value = make()
    with pytest.raises(AttributeError, match=f"^{type(value).__name__} is immutable$"):
        value.n = 5


def test_staging_refuses_minors_that_differ_between_routes(monkeypatch):
    # The staged minors at offset 0 of each stage-j ladder, j >= 1, are
    # checked against the offset-j minors of the source ladder. Shifting the
    # direct route by 1 must end the staging at the first such minor.
    original = engine.delta_det
    monkeypatch.setattr(
        engine, "delta_det", lambda ladder, j, m: original(ladder, j, m) + (1 if j else 0)
    )
    ladder = LambdaLadder([[1], [1, 1], [1, 2, 3]])
    direct = original(ladder, 1, 1) + 1
    with pytest.raises(InternalCheckError) as caught:
        engine._staging(ladder, 3)
    staged = direct - 1
    assert str(caught.value) == (
        f"minor (offset 1, size 1) differs between routes: {staged} vs {direct}"
    )
