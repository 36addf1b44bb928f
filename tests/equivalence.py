"""Equivalence corpus: one digest per CLI run over a fixed grid of configs.

    python tests/equivalence.py            # check the runs against the corpus
    python tests/equivalence.py --record   # write tests/equivalence.json

Each run is `banded_darboux.cli.main` in this process, on a config written
to a temporary directory, with the report in a directory of its own. Its
digest is the SHA-256 of the exit code (or the error the CLI let escape),
stdout with the report directory masked, stderr, and the report's bytes up to its `timings` member (the
member sorts last, and only it holds times); a run that writes no report
hashes empty report bytes. So two versions of the package that match here
print, report and exit the same on every run of the grid.

The grid is p = 1..4 x bound 1, 2, 9 x window W = 1, 3, 6 x seeds 1..8 x
the five commands, with N at the moment budget (or at W + p + 1 where that
is larger), and beside it the paths the grid does not reach: explicit
ladders, regular and not; explicit matrices, one with a singular shift;
`require_hypotheses: false` and `retry_cap: 0`; `--j`; p = 10; results past
the digit limit; and each config check the CLI can reach.

The corpus is re-recorded only for a change of output that is meant, and
the change that does so lists each moved entry. Standard library only, so
that it runs under any supported interpreter without pytest. Exit status 1
when a run is missing from the corpus, differs from it, or the corpus holds
a run the grid no longer makes.
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CORPUS = Path(__file__).with_name("equivalence.json")
COMMANDS = ("gen", "factorize", "transform", "polys", "verify")

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from banded_darboux.cli import main as cli_main  # noqa: E402


def _n_at_budget(p: int, window: int) -> int:
    """The smallest N a window allows: its moment budget W + ceil(W/p) + 1,
    or W + p + 1 where that is larger."""
    return max(window - (-window // p) + 1, window + p + 1)


def _case(p: int, window: int, seed: int, **extra) -> dict:
    return {"p": p, "N": _n_at_budget(p, window), "window": window, "seed": seed, **extra}


def _ladder(*rows) -> dict:
    return {"source": "ladder", "lambda": [list(row) for row in rows]}


def cases() -> dict[str, tuple[dict, tuple[str, ...], int | None]]:
    """Name -> (config document, extra CLI arguments, int/str digit limit
    or None for the interpreter's)."""
    out: dict[str, tuple[dict, tuple[str, ...], int | None]] = {}

    def add(name, config, *args, digits=None):
        out[name] = (config, args, digits)

    for p in range(1, 5):
        for bound in (1, 2, 9):
            for window in (1, 3, 6):
                for seed in range(1, 9):
                    add(f"grid-p{p}-b{bound}-w{window}-s{seed}", _case(p, window, seed, bound=bound))

    regular = {2: (["1"], ["1", "2"]), 3: (["1"], ["1", "2"], ["1/2", "-1", "3"])}
    for p, rows in regular.items():
        for window in (3, 6):
            for seed in range(1, 5):
                add(f"ladder-regular-p{p}-w{window}-s{seed}", _case(p, window, seed, nu=_ladder(*rows)))
    zero_diagonal = {
        "p2-row2": (2, (["1"], ["1", "0"])),
        "p3-row1": (3, (["0"], ["1", "1"], ["1", "1", "1"])),
        "p3-row3": (3, (["1"], ["1", "1"], ["1", "1", "0"])),
    }
    for name, (p, rows) in zero_diagonal.items():
        for seed in (1, 2):
            add(f"ladder-zero-diagonal-{name}-s{seed}", _case(p, 6, seed, nu=_ladder(*rows)))
    add("ladder-identity-p2", _case(2, 6, 1, nu=_ladder(["1"], ["0", "1"])))
    add("ladder-stage-1-zero-p3", {"p": 3, "N": 16, "window": 8, "seed": 7,
                                   "nu": _ladder(["1"], ["1", "1"], ["0", "1", "1"])})
    for seed in (1, 2):
        add(f"canonical-p3-s{seed}", _case(3, 6, seed, nu={"source": "canonical"}))

    catalan = {"0": ["2"] * 14, "-1": ["1"] * 13}
    # P_2(1) = 0 and P_1(0) = 0: C = 0 is rejected twice before C = 2.
    singular = {"0": ["0"] * 14, "-1": ["1"] * 13}
    p2_bands = {"0": ["1", "-2", "1/3"] * 4, "-1": ["2", "1"] * 5 + ["1"], "-2": ["1", "-1/2"] * 5}
    for nu in ("random", "canonical"):
        add(f"explicit-catalan-{nu}", {"p": 1, "N": 14, "window": 6, "seed": 3,
                                       "matrix": {"source": "explicit", "bands": catalan},
                                       "nu": {"source": nu}})
    for cap in (0, 1, 2):
        add(f"explicit-singular-cap{cap}", {"p": 1, "N": 14, "window": 6, "seed": 3, "retry_cap": cap,
                                            "matrix": {"source": "explicit", "bands": singular}})
    # The shift is rejected before the ladder's diagonal is read.
    add("explicit-singular-cap0-ladder-zero-diagonal", {
        "p": 1, "N": 14, "window": 6, "seed": 3, "retry_cap": 0, "nu": _ladder(["0"]),
        "matrix": {"source": "explicit", "bands": singular}})
    add("explicit-p2-ladder", {"p": 2, "N": 12, "window": 6, "seed": 1, "C": "1/3",
                               "matrix": {"source": "explicit", "bands": p2_bands},
                               "nu": _ladder(["2"], ["1", "-1"])})

    for p in (2, 3, 4):
        for bound in (1, 2):
            for seed in range(1, 9):
                add(f"no-hypotheses-p{p}-b{bound}-s{seed}",
                    _case(p, 6, seed, bound=bound, nu={"source": "random", "require_hypotheses": False}))
                add(f"retry-cap-0-p{p}-b{bound}-s{seed}", _case(p, 6, seed, bound=bound, retry_cap=0))
    add("zero-peel-pivot-p3", {"p": 3, "N": 20, "window": 8, "seed": 9, "bound": 1,
                               "nu": {"source": "random", "require_hypotheses": False}})

    for p in (2, 3):
        for seed in (1, 2):
            for j in range(p + 1):
                add(f"j{j}-p{p}-s{seed}", _case(p, 3, seed), "--j", str(j))
    add("j0-canonical-p2", _case(2, 6, 1, nu={"source": "canonical"}), "--j", "0")
    add("shift-third-p2", _case(2, 6, 4, C="1/3"))
    add("shift-cli-p3", _case(3, 6, 4), "--C", "-2")

    for window in (3, 10):
        for seed in (1, 2):
            add(f"p10-w{window}-s{seed}", _case(10, window, seed))

    add("digits-bound-beyond-limit", {"p": 1, "N": 4, "window": 1, "seed": 1, "bound": 10**2000})
    add("digits-640-p1-n100", {"p": 1, "N": 100, "window": 8, "seed": 1, "bound": 1000}, digits=640)

    base = {"p": 2, "N": 14, "window": 8, "seed": 42}
    config_errors = {
        "p-0": {**base, "p": 0},
        "window-0": {**base, "window": 0},
        "bound-0": {**base, "bound": 0},
        "retry-cap-negative": {**base, "retry_cap": -1},
        "n-below-window": {**base, "N": 10},
        "budget-above-n": {**base, "N": 12},
        "matrix-source": {**base, "matrix": {"source": "dense"}},
        "nu-source": {**base, "nu": {"source": "moments"}},
        "matrix-bands": {**base, "matrix": {"source": "explicit", "bands": {"0": [1.5]}}},
        "ladder-rows": {**base, "nu": {"source": "ladder", "lambda": [["1"], "12"]}},
        "ladder-row-count": {**base, "nu": _ladder(["1"])},
        "ladder-row-shape": {**base, "nu": _ladder(["1"], ["1"])},
        "band-minus-p-zero": {"p": 1, "N": 8, "window": 3, "seed": 1, "matrix": {
            "source": "explicit", "bands": {"0": ["1"] * 8, "-1": ["1", "0"] + ["1"] * 5}}},
        # The row count is checked before the diagonal.
        "ladder-row-count-zero-diagonal": {**base, "nu": _ladder(["0"])},
        "report-dir": {**base, "report_dir": 5},
        "transform-index": {**base, "transform_index": 3},
        "shift": {**base, "C": "1/0"},
    }
    for name, config in config_errors.items():
        add(f"config-{name}", config)
    return out


def _digest(code: int | str, stdout: str, stderr: str, report: bytes) -> str:
    digest = hashlib.sha256()
    for part in (str(code).encode(), stdout.encode(), stderr.encode(), report):
        digest.update(len(part).to_bytes(8, "big"))
        digest.update(part)
    return digest.hexdigest()


def run_case(config: dict, args: tuple[str, ...], digits: int | None, workdir: Path) -> dict[str, str]:
    """Command -> digest of its run on `config`."""
    path = workdir / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    reports = workdir / "reports"
    old = sys.get_int_max_str_digits()
    digests = {}
    try:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
        for command in COMMANDS:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                try:
                    code = cli_main(
                        [command, "--config", str(path), "--report-dir", str(reports), *args]
                    )
                except Exception as exc:  # an uncaught error is an outcome too
                    code = f"raised {type(exc).__name__}: {exc}"
            report = reports / f"{command}.json"
            data = b""
            if report.exists():
                data = report.read_bytes()
                data = data[: data.index(b',\n  "timings": ')]
                report.unlink()
            text = stdout.getvalue().replace(str(reports), "<reports>")
            digests[command] = _digest(code, text, stderr.getvalue(), data)
    finally:
        sys.set_int_max_str_digits(old)
    return digests


def compute() -> dict[str, str]:
    """Run name ("<case> <command>") -> digest, over the whole grid."""
    runs = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, (config, args, digits) in cases().items():
            for command, digest in run_case(config, args, digits, Path(tmp)).items():
                runs[f"{name} {command}"] = digest
    return runs


def mismatches(runs: dict[str, str], corpus: dict[str, str]) -> list[str]:
    """One line per run that differs from, or is missing from, the corpus,
    and per corpus entry the grid no longer makes."""
    lines = [f"differs: {name}" for name in runs if name in corpus and runs[name] != corpus[name]]
    lines += [f"not in the corpus: {name}" for name in runs if name not in corpus]
    lines += [f"no longer run: {name}" for name in corpus if name not in runs]
    return lines


def main(argv: list[str]) -> int:
    runs = compute()
    if argv == ["--record"]:
        CORPUS.write_text(json.dumps(runs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"recorded {len(runs)} runs to {CORPUS.name}")
        return 0
    if argv:
        print("usage: python tests/equivalence.py [--record]", file=sys.stderr)
        return 1
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    lines = mismatches(runs, corpus)
    for line in lines:
        print(line)
    print(f"{len(runs)} runs, {len(lines)} mismatches")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
