"""Workloads of the banded-darboux benchmark.

An op is one call to the `banded-darboux` CLI on one generated JSON config.
Each workload is a fixed cycle of config shapes (command, p, window, N,
number bound, nu source); the run's --seed only picks, for every op, which
config seed of the shape's small pool is used. Every op a run can make is
therefore in the finite universe that `record.py` records the reference
outcomes for, and two seeds give the same mix of shapes in the same order,
which keeps their figures comparable.

The inputs do not depend on the program: N follows the formula
N = max(moment_budget(W, p), W + p + 1) + 1 with the budget written out here,
so a change to the package cannot change what the benchmark feeds it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Config seeds a shape can draw from. The reference covers each of them.
POOL_SEEDS = (1, 2, 3, 4)


def moment_budget(window: int, p: int) -> int:
    """Moment degree a window needs: W + ceil(W/p) + 1."""
    return window + math.ceil(window / p) + 1


def default_n(window: int, p: int) -> int:
    return max(moment_budget(window, p), window + p + 1) + 1


@dataclass(frozen=True)
class Shape:
    """One config shape; with a config seed it becomes an `Op`."""

    command: str
    p: int
    window: int
    n: int
    bound: int = 9
    nu: str = "random"  # "random" (positive, exit 0) or "canonical" (exit 2)


@dataclass(frozen=True)
class Op:
    shape: Shape
    config_seed: int

    @property
    def command(self) -> str:
        return self.shape.command

    @property
    def expected_exit(self) -> int:
        return 2 if self.shape.nu == "canonical" else 0

    @property
    def key(self) -> str:
        """Identity of the op in the reference record."""
        s = self.shape
        return (
            f"{s.command} p={s.p} W={s.window} N={s.n} bound={s.bound} "
            f"nu={s.nu} seed={self.config_seed}"
        )

    def config(self) -> dict:
        s = self.shape
        return {
            "p": s.p,
            "N": s.n,
            "window": s.window,
            "seed": self.config_seed,
            "bound": s.bound,
            "C": "0",
            "matrix": {"source": "random"},
            "nu": {"source": s.nu},
        }


@dataclass(frozen=True)
class Workload:
    name: str
    cycle: tuple[Shape, ...]
    # Wall time of one cycle at the commit that defined the benchmark; a run
    # does round(seconds / cycle_s) whole cycles, at least one.
    cycle_s: float
    # Layers whose traced `calls` must be nonzero on this workload.
    layers: tuple[str, ...]
    # Most of the traced op time the glue layers (`tracing.GLUE`) may take.
    max_glue_share: float

    def cycles(self, seconds: float) -> int:
        return max(1, round(seconds / self.cycle_s))

    def ops(self, seed: int, seconds: float) -> list[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        ops = []
        for _ in range(self.cycles(seconds)):
            ops.extend(Op(shape, rng.choice(POOL_SEEDS)) for shape in self.cycle)
        return ops

    def warmup_ops(self) -> list[Op]:
        """One untimed op per command of the cycle, on a small config: it
        runs the same code as the timed ops and keeps the set-up short."""
        commands = dict.fromkeys(shape.command for shape in self.cycle)
        return [Op(Shape(command, 2, 8, default_n(8, 2)), POOL_SEEDS[0]) for command in commands]

    def universe(self) -> list[Op]:
        """Every op a run of this workload can make, whatever its seed."""
        return [Op(shape, s) for shape in self.cycle for s in POOL_SEEDS]


def _verify_grid() -> Workload:
    # p = 2..4 against W = 32, 48, 64 in a Latin-square order, so that each
    # p and each W is spread over the cycle; the tenth op is a negative
    # (canonical nu) config.
    grid = [(2, 32), (3, 48), (4, 64), (3, 32), (4, 48), (2, 64), (4, 32), (2, 48), (3, 64)]
    cycle = tuple(Shape("verify", p, w, default_n(w, p)) for p, w in grid)
    cycle += (Shape("verify", 2, 32, default_n(32, 2), nu="canonical"),)
    return Workload(
        name="verify-grid",
        cycle=cycle,
        cycle_s=27.5,
        layers=(
            "functionals.is_p_orthogonal",
            "functionals.dual_sequence",
            "banded.characteristic_polys",
            "banded.recurrence_values",
            "factorization.shifted_lu",
            "factorization.peel_stages",
            "banded.multiply_window",
            "factorization.darboux_transform",
            "factorization.transformed_polys",
            "engine._staging",
            "engine.staircase_transport_identity",
            "functionals.lambda_of",
            "functionals.build_nu",
            "engine.run_theorem",
            "generate.generate",
            "cli.main",
        ),
        # Glue is about 0.3% here, so a bypassed layer that took more than
        # 5% of the op fails the run.
        max_glue_share=0.05,
    )


def _gen_deep() -> Workload:
    # p = 1 stops at W = 72: one gen at p = 1, W = 96 takes about 20 s, most
    # of a run on its own.
    grid = [(1, 64), (2, 80), (1, 72), (2, 96), (2, 64), (2, 72)]
    cycle = tuple(Shape("gen", p, w, default_n(w, p)) for p, w in grid)
    return Workload(
        name="gen-deep",
        cycle=cycle,
        cycle_s=25.0,
        layers=(
            "functionals.dual_sequence",
            "banded.characteristic_polys",
            "banded.recurrence_values",
            "functionals.build_nu",
            "generate.generate",
            "cli.main",
        ),
        # Glue is about 0.1% here, so a bypassed layer that took more than
        # 5% of the op fails the run.
        max_glue_share=0.05,
    )


CHAIN_COMMANDS = ("factorize", "transform", "polys", "verify")


def _chain_long() -> Workload:
    # Bound 1000 stops at p = 2: at p = 3, N = 400 one op takes about 11 s,
    # at p = 4 about 37 s.
    groups = [(1, 1000, 9), (2, 700, 9), (3, 400, 9), (4, 400, 9), (1, 1000, 1000), (2, 400, 1000)]
    # Op k runs group k % 6 with command (k // 6 + k % 6) % 4: every
    # (group, command) pair once per cycle, commands interleaved.
    cycle = []
    for k in range(len(groups) * len(CHAIN_COMMANDS)):
        p, n, bound = groups[k % len(groups)]
        command = CHAIN_COMMANDS[(k // len(groups) + k % len(groups)) % len(CHAIN_COMMANDS)]
        cycle.append(Shape(command, p, 8, n, bound))
    cycle = tuple(cycle)
    return Workload(
        name="chain-long",
        cycle=cycle,
        cycle_s=16.0,
        layers=(
            "banded.recurrence_values",
            "factorization.shifted_lu",
            "factorization.peel_stages",
            "banded.multiply_window",
            "factorization.darboux_transform",
            "factorization.transformed_polys",
            "banded.characteristic_polys",
            "functionals.dual_sequence",
            "functionals.lambda_of",
            "functionals.is_p_orthogonal",
            "engine._staging",
            "engine.run_theorem",
            "generate.generate",
            "cli.main",
        ),
        # Glue is 10-12% here, mostly formatting multi-MB reports in
        # cli.main. The limit leaves room for a tenfold faster
        # multiply_window (~67%), and still catches that layer bypassed.
        max_glue_share=0.35,
    )


WORKLOADS = {w.name: w for w in (_verify_grid(), _gen_deep(), _chain_long())}
