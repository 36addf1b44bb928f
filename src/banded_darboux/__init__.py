"""Exact Darboux factorizations of banded Hessenberg matrices.

A (p+2)-banded lower-Hessenberg matrix J with unit superdiagonal drives a
(p+2)-term recurrence generating a monic polynomial sequence {P_n}. For an
admissible shift C, J - C*I = L(1) ... L(p) U splits into unit lower
bidiagonal factors and an upper bidiagonal, and each cyclic rotation of the
factors yields a transformed matrix J(j) with its own sequence of kernel
polynomials. This package computes all of that over exact rationals and
certifies, by exhaustive finite scans, how vectors of staircase
orthogonality travel along the rotations.
"""

__version__ = "0.1.0"

from .banded import (
    BandedHessenberg,
    BandMatrix,
    BidiagonalChain,
    LowerBidiagonalUnit,
    UpperBidiagonal,
    characteristic_polys,
    multiply_window,
    recurrence_values,
)
from .engine import (
    PartialFactorization,
    StageVerdict,
    TheoremCertificate,
    moment_budget,
    run_theorem,
    stage_ladder,
    staircase_transport_identity,
)
from .errors import (
    BadFreeSpec,
    BandedDarbouxError,
    ConfigError,
    ConsistencyFailure,
    DegreeExceedsMoments,
    GenerationExhausted,
    HypothesisViolated,
    IndexOutOfRange,
    InsufficientMoments,
    InternalCheckError,
    LadderViolation,
    NotMonicOrDegreeGap,
    ShapeMismatch,
    SingularLeadingMinor,
    SizeMismatch,
    ZeroPeelPivot,
)
from .exact import (
    check_printable,
    format_polynomial,
    format_rational,
    format_row,
    parse_rational,
    rational,
)
from .factorization import (
    ShiftedInstance,
    chain_from_instance,
    darboux_transform,
    peel_stages,
    shifted_lu,
    transformed_polys,
)
from .functionals import (
    LambdaLadder,
    OrthogonalityReport,
    Witness,
    build_nu,
    delta_det,
    dual_sequence,
    is_p_orthogonal,
    lambda_of,
    nu_to_json_dict,
    shift_multiply,
)
from .generate import (
    GeneratedInstance,
    InstanceConfig,
    generate,
    random_hessenberg,
    random_ladder,
    random_rational,
    vector,
)
