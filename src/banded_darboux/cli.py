"""Command line front end: banded-darboux <command> --config FILE.

Commands
    gen        build the seeded instance and vector, write them as JSON
    factorize  shifted LU plus the bidiagonal chain split
    transform  the rotated matrices J(j) (one j or all of them)
    polys      characteristic sequences of the source and the transforms
    verify     the full certificate run; exit status reflects the verdict

Reports are JSON documents {"payload": ..., "timings": ...}; the payload is
deterministic for a fixed (config, seed) and is what reproducibility
comparisons should hash. Reports land in --report-dir, else the config's
report_dir, else $BANDED_DARBOUX_REPORTS, else ./reports.

A report is streamed: the bytes are those of json.dumps(document, indent=2,
sort_keys=True) + "\n", but transform's chain and each J(j) are formatted
only when the writer reaches them and dropped once written, so memory holds
one section at a time, not the document (factorize formats its chain once,
up front, as stdout prints the same strings). The writer fills a temporary
file in the report directory and renames it onto the report only when the
whole document is written: a failed command leaves no report, and an older
report at that path stays as it was. `timings` is written last, so
`total_s` includes formatting and writing. factorize and transform check
their results printable (exact.check_printable) before formatting any.
transform checks the last row's lowest-band entry of each J(j) it prints,
j >= 1, a product of p + 1 chain values, before it forms any J(j): entry
sizes grow with the row index, so an unprintable J(j) fails there first,
without being formed. Each J(j) it forms is then checked in full.

Every command runs through one runner (`_run`): load the config, start the
clock, generate the instance, run the command, write its report, then print
its stdout and the final `report: <path>` line. A library error ends the run
with one `error:` line on stderr and its class's `exit_code`; the table of
classes and codes is in `banded_darboux.errors`.

Exit codes (total over library errors):
    0  success / certificate passed
    1  configuration or input problem, including bad JSON, missing files
       and usage errors. This includes numbers beyond Python's 4300-digit
       int/str conversion limit: a config integer literal that long, or a
       result value that long in a report (N or bound too large for exact
       JSON output).
    2  orthogonality hypothesis failure, including non-passing verify
       verdicts
    3  singular pivot
    4  internal consistency
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from functools import partial
from itertools import chain as chain_iter
from pathlib import Path
from typing import Callable, Iterable

from . import __version__
from .banded import BandedHessenberg, BidiagonalChain
from .engine import run_theorem
from .errors import BandedDarbouxError, ConfigError, HypothesisViolated
from .exact import check_printable, format_polynomial, format_rational
from .factorization import (
    chain_from_instance,
    darboux_rotations,
    darboux_transform,
    last_row_lowest_entry,
    transformed_polys,
)
from .generate import InstanceConfig, generate

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2


def _report_dir(args, config: InstanceConfig) -> Path:
    if args.report_dir:
        return Path(args.report_dir)
    if config.report_dir:
        return Path(config.report_dir)
    return Path(os.environ.get("BANDED_DARBOUX_REPORTS", "reports"))


class _ReportEncoder(json.JSONEncoder):
    """A zero-argument callable in a report is a deferred section: it is
    called, and its result encoded, only when the writer reaches it."""

    def default(self, o):
        if callable(o):
            return o()
        return super().default(o)


# The writer joins encoder chunks up to this many characters per write. A
# chunk can be one 4,300-digit value, so the bound is in characters.
_BATCH_CHARS = 1 << 16


def _write_report(path: Path, payload: dict, t0: float) -> Path:
    """Stream {"payload": payload, "timings": {"total_s": ...}} to `path`.

    The bytes are json.dumps(document, indent=2, sort_keys=True) + "\n"
    (the same pure-Python encoder, run incrementally). They go to a
    temporary file beside the report, which replaces the report only once
    complete; on any exception it is removed and the exception re-raised.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "payload": payload,
        # Sorted last, so the total covers formatting and writing the payload.
        "timings": lambda: {"total_s": time.perf_counter() - t0},
    }
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8") as out:
            batch: list[str] = []
            size = 0
            for chunk in _ReportEncoder(indent=2, sort_keys=True).iterencode(document):
                batch.append(chunk)
                size += len(chunk)
                if size >= _BATCH_CHARS:
                    out.write("".join(batch))
                    batch, size = [], 0
            batch.append("\n")
            out.write("".join(batch))
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def _write_list(label: str, items: Iterable[str]) -> None:
    """print(label + ", ".join(items)), written piece by piece."""
    write = sys.stdout.write
    write(label)
    for k, item in enumerate(items):
        if k:
            write(", ")
        write(item)
    write("\n")


def _load_config(args) -> InstanceConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file is not UTF-8: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError as exc:
        # An integer literal longer than the str-to-int limit.
        raise ConfigError(
            f"config holds an integer beyond Python's {sys.get_int_max_str_digits()}-digit "
            "str-to-int limit; N or bound is too large for exact JSON output"
        ) from exc
    overrides = {
        "p": args.p,
        "seed": args.seed,
        "C": args.shift,
        "window": args.window,
        "transform_index": args.j,
    }
    if isinstance(data, dict):
        data.update((key, value) for key, value in overrides.items() if value is not None)
    return InstanceConfig.from_json_dict(data)


def _poly_table(label: str, polys) -> list[str]:
    lines = [label]
    for n, poly in enumerate(polys):
        lines.append(f"  P_{n} = {format_polynomial(poly)}")
    return lines


# A command maps (config, built) to its payload body (every key but
# "command", "tool_version" and "config", which the runner adds), a callback
# that prints its stdout once the report is written, and its exit code.
CommandResult = tuple[dict, Callable[[], None], int]


def cmd_gen(config: InstanceConfig, built) -> CommandResult:
    shift = format_rational(built.instance.shift)
    body = {
        "matrix": built.instance.J.to_json_dict(),
        "C": shift,
        "shift_retries": list(built.shift_retries),
        "ladder_retries": built.ladder_retries,
        "nu": built.nu.to_json_dict(),
        "ladder": (
            None
            if config.nu_source == "canonical"
            else [[format_rational(v) for v in row] for row in built.ladder.rows]
        ),
    }

    def show():
        print(f"instance p={config.p} N={config.n} seed={config.seed} C={shift}")
        if built.shift_retries:
            print(f"  rejected shifts: {', '.join(built.shift_retries)}")

    return body, show, EXIT_OK


def cmd_factorize(config: InstanceConfig, built) -> CommandResult:
    chain = _build_chain(built, config.n)
    check_printable(chain.printed_values())
    # The report and stdout print the same strings, so they are formatted
    # once, here, and the chain is the one section held.
    chain_json = chain.to_json_dict()
    shift = format_rational(built.instance.shift)
    rows = [[format_rational(v) for v in row] for row in built.staging.free_rows]
    body = {"C": shift, "free_entries": {"p": config.p, "rows": rows}, "chain": chain_json}

    def show():
        print(f"J - C*I = L(1)..L({config.p}) * U with C = {shift}")
        _write_list("U diagonal: ", chain_json["U"]["diag"])
        for f in chain_json["factors"]:
            _write_list(f"L({f['j']}) subdiagonal: ", f["sub"])

    return body, show, EXIT_OK


def _build_chain(built, rows: int) -> BidiagonalChain:
    """The chain of the leading rows x rows block, with the free entries of
    the ladder's staging; a zero staged minor leaves no chain to build."""
    if built.staging.violation is not None:
        raise HypothesisViolated(*built.staging.violation, 0)
    return chain_from_instance(built.instance, built.staging.free_rows, rows)


def _transform_json(hess: BandedHessenberg) -> dict:
    return {"matrix": hess.to_json_dict(), "valid_rows": hess.valid_rows}


def cmd_transform(config: InstanceConfig, built) -> CommandResult:
    chain = _build_chain(built, config.n)
    check_printable(chain.printed_values())
    index = config.transform_index
    # The last-row check of every J(j) to print, j >= 1, before any is formed.
    if index is None:
        check_printable(last_row_lowest_entry(chain, j) for j in range(1, config.p + 1))
    elif index:
        check_printable([last_row_lowest_entry(chain, index)])
    # J(0) is the source matrix itself; J(1..p) share their halves. All are
    # formed and checked printable in full before anything is formatted:
    # "chain" sorts before "transforms", so the report writes them last.
    if index is None:
        rotations = chain_iter([(0, built.instance.J)], darboux_rotations(chain))
    elif index == 0:
        rotations = [(0, built.instance.J)]
    else:
        rotations = [(index, darboux_transform(chain, index))]
    matrices = []
    for j, hess in rotations:
        check_printable(hess.printed_values())
        matrices.append((j, hess))
    body = {
        "chain": chain.to_json_dict,
        "transforms": {str(j): partial(_transform_json, hess) for j, hess in matrices},
    }

    def show():
        for j, hess in matrices:
            print(f"J({j}): valid rows {hess.valid_rows} of {config.n}")

    return body, show, EXIT_OK


def cmd_polys(config: InstanceConfig, built) -> CommandResult:
    nmax = config.window
    chain = _build_chain(built, nmax + 1)
    indices = (
        range(config.p + 1)
        if config.transform_index is None
        else [config.transform_index]
    )
    sequences = {}
    lines = []
    for j in indices:
        polys = built.source_polys[: nmax + 1] if j == 0 else transformed_polys(chain, j, nmax)
        sequences[str(j)] = [[format_rational(c) for c in poly] for poly in polys]
        lines.extend(_poly_table(f"stage {j}:", polys))
    body = {"nmax": nmax, "sequences": sequences}
    return body, lambda: print("\n".join(lines)), EXIT_OK


def cmd_verify(config: InstanceConfig, built) -> CommandResult:
    certificate = run_theorem(built.instance, built.nu, config.window)

    def show():
        print(f"verdict: {'pass' if certificate.passed else 'FAIL'}")
        for verdict in certificate.stage_verdicts:
            status = "pass" if verdict.passed else "FAIL"
            print(
                f"  j={verdict.j}: {status} "
                f"({verdict.report.zero_checks} zero checks, "
                f"{verdict.report.nonzero_checks} nonzero checks)"
            )
            for witness in verdict.report.failures:
                print(
                    f"    witness {witness.kind} (r={witness.r}, k={witness.k}, "
                    f"n={witness.n}) -> {format_rational(witness.value)}"
                )
        if certificate.partial is not None:
            print(
                f"  partial chain: {certificate.partial.stages} factor(s), "
                f"minor (stage {certificate.partial.violated[0]}, "
                f"size {certificate.partial.violated[1]}) = 0"
            )

    body = {"certificate": certificate.to_json_dict()}
    return body, show, EXIT_OK if certificate.passed else EXIT_HYPOTHESIS


_COMMANDS = {
    "gen": cmd_gen,
    "factorize": cmd_factorize,
    "transform": cmd_transform,
    "polys": cmd_polys,
    "verify": cmd_verify,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="banded-darboux",
        description="Exact Darboux factorizations of banded Hessenberg matrices",
    )
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--p", type=int, help="override band parameter")
    parser.add_argument("--seed", type=int, help="override seed")
    parser.add_argument("--C", dest="shift", help="override shift (rational string)")
    parser.add_argument("--window", type=int, help="override verification window")
    parser.add_argument("--j", type=int, help="select one transform index")
    parser.add_argument("--report-dir", help="override report directory")
    parser.add_argument("--out", help="report file name inside the report directory")
    return parser


def _run(args) -> int:
    """Load, generate, run the command, write its report, print its stdout."""
    config = _load_config(args)
    t0 = time.perf_counter()
    built = generate(config)
    body, show, code = _COMMANDS[args.command](config, built)
    payload = {
        "command": args.command,
        "tool_version": __version__,
        "config": built.config_echo,
        **body,
    }
    path = _write_report(
        _report_dir(args, config) / (args.out or f"{args.command}.json"), payload, t0
    )
    show()
    print(f"report: {path}")
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors; that slot belongs to hypothesis
        # failures here, so usage problems become config errors.
        return EXIT_OK if exc.code in (0, None) else EXIT_CONFIG
    try:
        return _run(args)
    except BandedDarbouxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
