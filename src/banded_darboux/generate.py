"""Seeded instance generation and run configuration.

Everything random flows through one `random.Random(seed)` in a fixed draw
order, so a (config, seed) pair regenerates byte-identical artifacts. Draws
are small rationals: numerator in [-B, B], denominator in [1, B], with the
lowest band of J and ladder diagonals resampled until nonzero. An explicit J
with a zero a(m, m-p), m = r-1+sp, is rejected: nu_r[z^k P_{kp+r-1}] = 0 for
k >= s, so no vector of staircase orthogonality exists.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Optional, Sequence

from .banded import BandedHessenberg
from .engine import StagingResult, _staging, moment_budget
from .errors import (
    ConfigError,
    GenerationExhausted,
    ShapeMismatch,
    SingularLeadingMinor,
    SizeMismatch,
)
from .exact import format_rational, parse_rational
from .factorization import ShiftedInstance
from .functionals import LambdaLadder, Moments, build_nu, dual_sequence

DEFAULT_BOUND = 9
DEFAULT_RETRY_CAP = 32
# Larger N are rejected before anything is built: gen's memory grows about
# quadratically in N (p = 1, W = 1: 42 MB at N = 10^4, 2.1 GB at 10^5).
MAX_N = 10_000
# Larger moment budgets B = W + ceil(W/p) + 1 are rejected likewise, at a cap
# by p near where verify, at N = B, bound 9, seed 1 (fresh process, 2-vCPU VM),
# first takes a minute, all measured together: 59 s at 899 (p = 1);
# 52/61 s at 649/670 (p = 2); 65 s at 517 (p = 3); 65 s at 415 (p = 4); 61 s
# at 349 (p = 5); 65 s at 295 (p = 6); 63/70 s at 249/260 (p = 7); 61/68 s at
# 228/235 (p = 8). verify does p stages of work, so the cap falls with p;
# p >= 9, unmeasured, takes p = 8's cap. gen's dual table grows as B^2: gen
# peaks at 558 MB ru_maxrss at p = 1's cap, 232 MB at p = 2's.
MAX_BUDGETS = (900, 670, 517, 415, 350, 295, 250, 228)


def max_budget(p: int) -> int:
    """The largest moment budget a config at band parameter p >= 1 may have."""
    return MAX_BUDGETS[min(p, len(MAX_BUDGETS)) - 1]


def random_rational(rng: random.Random, bound: int, nonzero: bool = False) -> Fraction:
    num = rng.randint(-bound, bound)
    while nonzero and num == 0:
        num = rng.randint(-bound, bound)
    den = rng.randint(1, bound)
    return Fraction(num, den)


def random_hessenberg(rng: random.Random, p: int, n: int, bound: int) -> BandedHessenberg:
    """Random band entries, lowest band kept nonzero (resampled)."""
    bands: dict[int, list[Fraction]] = {d: [Fraction(0)] * n for d in range(-p, 1)}
    for i in range(n):
        for m in range(max(0, i - p), i + 1):
            bands[m - i][i] = random_rational(rng, bound, nonzero=(m == i - p))
    return BandedHessenberg(p, n, bands)


def random_ladder(rng: random.Random, p: int, bound: int) -> LambdaLadder:
    rows = []
    for i in range(1, p + 1):
        row = [random_rational(rng, bound) for _ in range(i - 1)]
        row.append(random_rational(rng, bound, nonzero=True))
        rows.append(row)
    return LambdaLadder(rows)


def _is_rational_list(values) -> bool:
    """A list of config scalars: "num/den" strings or integers."""
    return isinstance(values, (list, tuple)) and all(isinstance(v, (str, int)) for v in values)


def _typed(key: str, value, kind: type = int):
    """A config field of JSON type `kind` (int or bool), checked rather than
    coerced: a bool is no integer here, and no float or string is either."""
    if type(value) is not kind:
        name = "integer" if kind is int else "boolean"
        raise ConfigError(
            f'malformed config: "{key}" must be a JSON {name}, got {type(value).__name__}'
        )
    return value


@dataclass
class InstanceConfig:
    """One reproducible run: sizes, sources, seed, and output knobs."""

    p: int
    n: int
    window: int
    seed: int = 0
    bound: int = DEFAULT_BOUND
    shift: str = "0"
    matrix_source: str = "random"              # "random" | "explicit"
    matrix_bands: Optional[Mapping] = None     # JSON matrix dict when explicit
    nu_source: str = "random"                  # "random" | "canonical" | "ladder"
    nu_ladder: Optional[Sequence[Sequence[str]]] = None
    require_hypotheses: bool = True            # resample random ladders until minors nonzero
    retry_cap: int = DEFAULT_RETRY_CAP
    report_dir: Optional[str] = None
    transform_index: Optional[int] = None      # None means all j = 0..p

    @property
    def moment_budget(self) -> int:
        return moment_budget(self.window, self.p)

    def validate(self) -> None:
        if self.p < 1:
            raise ConfigError(f"p must be >= 1, got {self.p}")
        if self.window < 1:
            raise ConfigError(f"window must be >= 1, got {self.window}")
        if self.bound < 1:
            raise ConfigError(f"bound must be >= 1, got {self.bound}")
        if self.retry_cap < 0:
            raise ConfigError(f"retry cap must be >= 0, got {self.retry_cap}")
        if self.n > MAX_N:
            raise ConfigError(f"N must be <= {MAX_N}, got {self.n}")
        if self.window + self.p + 1 > self.n:
            raise ConfigError(
                f"window {self.window} with p {self.p} needs N >= "
                f"{self.window + self.p + 1}, got {self.n}"
            )
        if self.moment_budget > max_budget(self.p):
            raise ConfigError(
                f"moment budget {self.moment_budget} exceeds {max_budget(self.p)} at "
                f"p = {self.p}; shrink the window"
            )
        if self.moment_budget > self.n:
            raise ConfigError(
                f"moment budget {self.moment_budget} exceeds N = {self.n}; "
                f"raise N or shrink the window"
            )
        if self.moment_budget + 1 < self.p:
            raise ConfigError(
                f"moment budget {self.moment_budget} gives {self.moment_budget + 1} dual "
                f"functionals, fewer than p = {self.p}; widen the window"
            )
        if self.matrix_source not in ("random", "explicit"):
            raise ConfigError(f"unknown matrix source {self.matrix_source!r}")
        if self.matrix_source == "explicit":
            if not (
                isinstance(self.matrix_bands, Mapping)
                and all(_is_rational_list(b) for b in self.matrix_bands.values())
            ):
                raise ConfigError("explicit matrix source needs bands: an object of rational lists")
            known = {str(-d) for d in range(self.p + 1)}
            for key in self.matrix_bands:
                if key not in known:
                    raise ConfigError(f"unknown band key {key!r}: p = {self.p} has bands 0 .. -{self.p}")
        if self.nu_source not in ("random", "canonical", "ladder"):
            raise ConfigError(f"unknown nu source {self.nu_source!r}")
        if self.nu_source == "ladder" and not (
            isinstance(self.nu_ladder, (list, tuple))
            and all(_is_rational_list(row) for row in self.nu_ladder)
        ):
            raise ConfigError("ladder nu source needs ladder rows: a list of rational lists")
        if self.report_dir is not None and not isinstance(self.report_dir, str):
            raise ConfigError(f"report_dir must be a string, got {self.report_dir!r}")
        if self.transform_index is not None and not 0 <= self.transform_index <= self.p:
            raise ConfigError(
                f"transform index {self.transform_index} outside 0..{self.p}"
            )
        try:
            parse_rational(self.shift)
        except (ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad shift {self.shift!r}: {exc}") from None

    def to_json_dict(self) -> dict:
        return {
            "p": self.p,
            "N": self.n,
            "window": self.window,
            "seed": self.seed,
            "bound": self.bound,
            "C": self.shift,
            "matrix": (
                {"source": "explicit", "bands": dict(self.matrix_bands or {})}
                if self.matrix_source == "explicit"
                else {"source": "random"}
            ),
            "nu": (
                {"source": "ladder", "lambda": [list(r) for r in (self.nu_ladder or [])]}
                if self.nu_source == "ladder"
                else {"source": self.nu_source, "require_hypotheses": self.require_hypotheses}
            ),
            "retry_cap": self.retry_cap,
            "moment_budget": self.moment_budget,
            "transform_index": self.transform_index,
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> "InstanceConfig":
        if not isinstance(data, Mapping):
            raise ConfigError("malformed config: the top level must be a JSON object")
        matrix = data.get("matrix", {"source": "random"})
        nu = data.get("nu", {"source": "random"})
        for key, section in (("matrix", matrix), ("nu", nu)):
            if not isinstance(section, Mapping):
                raise ConfigError(f'malformed config: "{key}" must be a JSON object')
        try:
            cfg = cls(
                p=_typed("p", data["p"]),
                n=_typed("N", data["N"]),
                window=_typed("window", data["window"]),
                seed=_typed("seed", data.get("seed", 0)),
                bound=_typed("bound", data.get("bound", DEFAULT_BOUND)),
                shift=str(data.get("C", "0")),
                matrix_source=matrix.get("source", "random"),
                matrix_bands=matrix.get("bands"),
                nu_source=nu.get("source", "random"),
                nu_ladder=nu.get("lambda"),
                require_hypotheses=_typed(
                    "require_hypotheses", nu.get("require_hypotheses", True), bool
                ),
                retry_cap=_typed("retry_cap", data.get("retry_cap", DEFAULT_RETRY_CAP)),
                report_dir=data.get("report_dir"),
                transform_index=(
                    None
                    if data.get("transform_index") is None
                    else _typed("transform_index", data["transform_index"])
                ),
            )
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"malformed config: {exc}") from None
        cfg.validate()
        return cfg


@dataclass(frozen=True)
class GeneratedInstance:
    """Instance, the staging of its ladder (the ladder is
    `staging.stage_ladders[0]`), and the retries it took. The config it came
    from is not kept: the caller has it."""

    instance: ShiftedInstance
    staging: StagingResult
    shift_retries: tuple[str, ...]
    ladder_retries: int


def generate(config: InstanceConfig) -> GeneratedInstance:
    """Build the (J, C) instance and the staged ladder a config describes.

    Shift admissibility: C is accepted only if every P_n(C), n <= N, is
    nonzero; otherwise C+1 is tried, up to the retry cap, recording each
    rejected value. Random ladders are likewise resampled while any
    hypothesis minor vanishes (when require_hypotheses is set). The ladder
    is staged once; the chain commands read that staging, and `vector`
    builds nu from it.
    """
    config.validate()
    rng = random.Random(config.seed)

    if config.matrix_source == "explicit":
        try:
            J = BandedHessenberg.from_json_dict(
                {"p": config.p, "N": config.n, "bands": config.matrix_bands}
            )
        except (SizeMismatch, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad explicit matrix: {exc}") from None
        for r in range(config.p, config.n):
            if J.band(-config.p)[r] == 0:
                raise ConfigError(f"explicit matrix has a zero in band -{config.p} at row "
                                  f"{r}: no vector of staircase orthogonality exists")
    else:
        J = random_hessenberg(rng, config.p, config.n, config.bound)

    shift = parse_rational(config.shift)
    retries: list[str] = []
    for _ in range(config.retry_cap + 1):
        try:
            instance = ShiftedInstance(J, shift)
            break
        except SingularLeadingMinor:
            # Cap 0: the caller insists on this shift; the minor propagates.
            if not config.retry_cap:
                raise
            retries.append(format_rational(shift))
            shift = shift + 1
    else:
        raise GenerationExhausted(
            f"no admissible shift within {config.retry_cap} retries from {config.shift}"
        )

    # Every source ends in one ladder and one staging of it.
    ladder_retries = 0
    if config.nu_source == "canonical":
        # nu = (dual_0, .., dual_{p-1}) is the identity ladder.
        ladder = LambdaLadder([[0] * i + [1] for i in range(config.p)])
    elif config.nu_source == "ladder":
        try:
            ladder = LambdaLadder(
                [[parse_rational(v) for v in row] for row in config.nu_ladder]
            )
        except (ShapeMismatch, ValueError, ZeroDivisionError) as exc:
            raise ConfigError(f"bad ladder: {exc}") from None
        if ladder.nrows != config.p:
            raise ConfigError(f"ladder has {ladder.nrows} rows, p is {config.p}")
        # Before staging; build_nu, a library entry point, checks it again.
        ladder.check_regular()
    else:
        ladder = random_ladder(rng, config.p, config.bound)
    staging = _staging(ladder, config.p)
    while config.nu_source == "random" and config.require_hypotheses and staging.violation is not None:
        ladder_retries += 1
        if ladder_retries > config.retry_cap:
            raise GenerationExhausted(
                f"no hypothesis-satisfying ladder within {config.retry_cap} retries"
            )
        ladder = random_ladder(rng, config.p, config.bound)
        staging = _staging(ladder, config.p)

    return GeneratedInstance(
        instance=instance,
        staging=staging,
        shift_retries=tuple(retries),
        ladder_retries=ladder_retries,
    )


def vector(built: GeneratedInstance, budget: int) -> tuple[Moments, ...]:
    """The vector nu of the staged ladder, nu_i = sum_k lambda(i, k) dual_k,
    with moments to degree `budget`. The budget + 1 dual functionals are
    built here and let go on return; only gen and verify read nu."""
    return build_nu(built.staging.stage_ladders[0], dual_sequence(built.instance.J, budget))
