"""Exception types shared across the package.

Every failure mode of the library maps to exactly one of these classes, and
each class carries the exit code the CLI returns for it, as its `exit_code`
attribute. This is the one table of codes and classes:

    1  configuration or input problem: ConfigError, GenerationExhausted,
       BadFreeSpec, NotMonicOrDegreeGap, InsufficientMoments,
       DegreeExceedsMoments
    2  orthogonality hypothesis failure: HypothesisViolated, LadderViolation
    3  singular pivot: SingularLeadingMinor, ZeroPeelPivot
    4  internal consistency: every other class (InternalCheckError,
       ConsistencyFailure, ShapeMismatch, SizeMismatch, IndexOutOfRange),
       inherited from BandedDarbouxError

A subclass that sets no `exit_code` exits 4.
"""


class BandedDarbouxError(Exception):
    """Base class for all library errors."""

    exit_code = 4


class ShapeMismatch(BandedDarbouxError):
    """A vector, ladder row or sequence whose length its operation cannot use."""


class SizeMismatch(BandedDarbouxError):
    """Incompatible truncation sizes in a banded product."""


class SingularLeadingMinor(BandedDarbouxError):
    """det(C*I_n - J_n) = 0 for some leading minor, so J - C*I has no LU.

    `index` is the smallest n with a vanishing minor (equivalently the
    smallest n with P_n(C) = 0).
    """

    exit_code = 3

    def __init__(self, index, message=None):
        self.index = index
        super().__init__(message or f"leading minor {index} of C*I - J is singular")


class ZeroPeelPivot(BandedDarbouxError):
    """A band-peeling divisor vanished while splitting L into bidiagonals
    (vacuous: so did its numerator, which rules out no chain)."""

    exit_code = 3

    def __init__(self, stage, row, vacuous=False):
        self.stage = stage
        self.row = row
        reason = "" if vacuous else ": no chain with the staged free entries exists"
        super().__init__(f"zero peeling pivot at stage {stage}, row {row}{reason}")


class BadFreeSpec(BandedDarbouxError):
    """Free-entry table has the wrong shape for the requested band count."""

    exit_code = 1


class IndexOutOfRange(BandedDarbouxError):
    """An index fell outside its documented range."""


class DegreeExceedsMoments(BandedDarbouxError):
    """A functional was applied to a polynomial beyond its moment budget."""

    exit_code = 1

    def __init__(self, degree, max_degree):
        self.degree = degree
        self.max_degree = max_degree
        super().__init__(f"degree {degree} exceeds moment budget {max_degree}")


class InsufficientMoments(BandedDarbouxError):
    """Too few moments to apply a degree-consuming operation."""

    exit_code = 1


class NotMonicOrDegreeGap(BandedDarbouxError):
    """A polynomial sequence is not monic with exact degrees 0, 1, 2, ..."""

    exit_code = 1


class LadderViolation(BandedDarbouxError):
    """Coefficient ladder breaks the staircase shape or its regularity.

    `row`/`col` locate the offending coefficient, `value` carries it.
    """

    exit_code = 2

    def __init__(self, row, col, value=None, message=None):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(message or f"ladder violation at ({row}, {col}): {value}")


class HypothesisViolated(BandedDarbouxError):
    """A required staircase minor vanished: no factorization with the wanted
    orthogonality transport exists along this route.

    `stage` and `size` locate the zero minor.
    """

    exit_code = 2

    def __init__(self, stage, size, value=None):
        self.stage = stage
        self.size = size
        self.value = value
        super().__init__(f"staircase minor (stage {stage}, size {size}) is zero")


class ConsistencyFailure(BandedDarbouxError):
    """The last-row side condition of a stage-ladder solve failed.

    Signals free entries inconsistent with the ladder being transported.
    """

    def __init__(self, k, message=None):
        self.k = k
        super().__init__(message or f"stage-ladder side condition failed at row {k}")


class InternalCheckError(BandedDarbouxError):
    """A redundant cross-computation disagreed with the primary one."""


class GenerationExhausted(BandedDarbouxError):
    """Random instance generation hit its retry cap."""

    exit_code = 1


class ConfigError(BandedDarbouxError):
    """Invalid run configuration."""

    exit_code = 1
