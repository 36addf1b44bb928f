"""Command line front end: banded-darboux <command> --config FILE.

Commands
    gen        build the seeded instance and vector, write them as JSON
    factorize  shifted LU plus the bidiagonal chain split
    transform  the rotated matrices J(j) (one j or all of them)
    polys      characteristic sequences of the source and the transforms;
               with --j 0 only the source's, so it builds no chain
    verify     the full certificate run; exit status reflects the verdict

Reports are JSON documents {"payload": ..., "timings": ...}; the payload is
deterministic for a fixed (config, seed) and is what reproducibility
comparisons should hash. Reports land in --report-dir, else the config's
report_dir, else $BANDED_DARBOUX_REPORTS, else ./reports.

A report is streamed value by value by json's own encoder
(JSONEncoder.iterencode), so the bytes are those of
json.dumps(document, indent=2, sort_keys=True) + "\n". A list may also be
any iterator, such as a lazy `map` of format_rational, which `_Stream` feeds
to the encoder one item at a time, and a zero-argument callable is a section
resolved only when the encoder reaches it. So a command holds its numbers
and the one value being written, not the formatted text.
A command's stdout goes to a spool, a temporary file that the runner copies
to stdout once the report is written; factorize formats each chain value
once, as the writer reaches it, and copies it to the spool there. The writer
fills a temporary file in the report directory and renames it onto the
report only when the whole document is written: a failed command leaves no
report and prints nothing to stdout, and an older report at that path stays
as it was. `timings` is written last, so `total_s` includes formatting and
writing. factorize and transform check their chain printable
(exact.check_printable) before formatting anything. transform also checks
the last row's lowest-band entry of each J(j) it prints, j >= 1, a product
of p + 1 chain values, before it forms any J(j): entry sizes grow with the
row index, so an unprintable J(j) fails there first, without being formed.
The J(j), j >= 1, then come from one lazy darboux_transform call (J(0) is
the source matrix): each is taken only when the writer reaches its section,
written and let go. So transform holds one J(j) at a time, plus, at
p >= 10, the J(j) it skipped because the keys sort as strings ("10" before
"2"). A J(j) that passes the last-row check yet holds a value too long to
print is refused by the writer, whose format_rational raises the same
ConfigError on that value: the run fails as an early check does, since the
report is renamed into place only when complete. polys and verify likewise
take their J(j) one at a time from one call, through transformed_polys.
Each sequence comes as integer rows (nums, d_n); verify's scan reads them
as they are, and polys forms each coefficient nums[i] / d_n only as it
prints it (exact.format_row).

Every command runs through one runner (`_run`): load the config, start the
clock, generate the instance (J, C and the staged ladder), run the command
on it, write its report, then copy its stdout from the spool and print the
final `report: <path>` line. The instance is passed as a temporary, so the
runner keeps only the config. Each command builds only the tables it reads:
gen and verify build nu, through its dual functionals; polys builds the
source sequence P_0 .. P_W for its stage 0; factorize and transform build
neither. gen also builds P_0 .. P_W, unread, after nu (see cmd_gen). A
library error ends the run with one `error:` line on stderr and
its class's `exit_code`; the table of classes and codes is in
`banded_darboux.errors`.

Exit codes (total over library errors):
    0  success / certificate passed
    1  configuration or input problem, including bad JSON, missing files
       and usage errors, and a config nested too deeply to parse. This
       includes numbers beyond Python's 4300-digit int/str conversion
       limit: a config integer literal that long, or a result value that
       long in a report (N or bound too large for exact JSON output).
    2  orthogonality hypothesis failure, including non-passing verify
       verdicts
    3  singular pivot
    4  internal consistency
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time
from collections.abc import Iterator
from functools import cache, partial
from itertools import chain as chain_iter
from pathlib import Path
from typing import Iterable, TextIO

from . import __version__
from .banded import BidiagonalChain, characteristic_polys
from .engine import run_theorem
from .errors import BandedDarbouxError, ConfigError, HypothesisViolated
from .exact import check_printable, format_polynomial, format_rational, format_row
from .factorization import (
    chain_from_instance,
    darboux_transform,
    last_row_lowest_entry,
    transformed_polys,
)
from .functionals import nu_to_json_dict
from .generate import GeneratedInstance, InstanceConfig, generate, vector

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_HYPOTHESIS = 2


def _report_dir(args, config: InstanceConfig) -> Path:
    if args.report_dir:
        return Path(args.report_dir)
    if config.report_dir:
        return Path(config.report_dir)
    return Path(os.environ.get("BANDED_DARBOUX_REPORTS", "reports"))


def _resolve(o):
    """json's `default` hook: a zero-argument callable is a deferred section,
    called only when the encoder reaches it (the encoder calls the hook again
    on a result that is itself callable); an iterator is a lazy list. Any
    other type is refused, as json.dumps refuses it: a set has no order to
    write."""
    if callable(o):
        return o()
    if isinstance(o, Iterator):
        return _Stream(o)
    raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


_END = object()


class _Stream(list):
    """An iterator as json's pure-Python encoder reads a list: it tests the
    list's truth, then iterates it once. The first item is taken when the
    encoder reaches the list; the rest are read as they are written."""

    def __init__(self, items: Iterator):
        self._rest = items
        self._head = next(items, _END)

    def __bool__(self):
        return self._head is not _END

    def __iter__(self):
        # Not a generator: chain's iteration is the cheaper one per item.
        return chain_iter((self._head,), self._rest)


# iterencode, not dumps: on 3.13 dumps with an indent runs the C encoder,
# which iterates a list without testing its truth, and so would write an
# empty _Stream's _END. iterencode runs the pure-Python encoder on 3.10-3.13,
# which tests a list's truth and then iterates it, and yields the text
# lazily, about one value per chunk.
_ENCODER = json.JSONEncoder(indent=2, sort_keys=True, default=_resolve)

# The buffer of the report file and of the stdout spool, in bytes. json's
# encoder yields about one value per chunk, and the file passes the chunks
# on to the system in writes this large.
_BUFFER_BYTES = 1 << 16


def _write_report(path: Path, payload: dict, t0: float) -> Path:
    """Stream {"payload": payload, "timings": {"total_s": ...}} to `path`.

    The bytes are json.dumps(document, indent=2, sort_keys=True) + "\n",
    written as json's encoder yields them, with lazy lists and deferred
    sections read through `_resolve`. They go to a temporary file beside
    the report, which replaces the report only once complete; on any
    exception it is removed and the exception re-raised.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    document = {
        "payload": payload,
        # Sorted last, so the total covers formatting and writing the payload.
        "timings": lambda: {"total_s": time.perf_counter() - t0},
    }
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with temp.open("w", encoding="utf-8", buffering=_BUFFER_BYTES) as out:
            out.writelines(_ENCODER.iterencode(document))
            out.write("\n")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise
    return path


def _tee(out: TextIO, label: str, items: Iterable[str]) -> Iterator[str]:
    """Yield `items`, printing label + ", ".join(items) to `out` as they pass."""
    write = out.write
    write(label)
    for k, item in enumerate(items):
        if k:
            write(", ")
        write(item)
        yield item
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
    except RecursionError:
        raise ConfigError("config is nested too deeply to parse") from None
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


# A command maps (config, built, out) to its payload body (every key but
# "command", "tool_version" and "config", which the runner adds) and its exit
# code; `built` is the instance the runner generated from the config. It
# prints its stdout to `out`, a spool the runner copies to stdout once the
# report is written.
CommandResult = tuple[dict, int]


def cmd_gen(config: InstanceConfig, built: GeneratedInstance, out: TextIO) -> CommandResult:
    nu = vector(built, config.moment_budget)
    # Read by no one: perfbench's gen-deep coverage list requires
    # banded.characteristic_polys, which only this call makes there, until
    # ROADMAP item 1 takes the list from a reference. Built once nu is formed
    # and its dual table gone, and not kept: gen never holds both tables.
    characteristic_polys(built.instance.J, config.window)
    shift = format_rational(built.instance.shift)
    body = {
        "matrix": built.instance.J.to_json_dict(),
        "C": shift,
        "shift_retries": list(built.shift_retries),
        "ladder_retries": built.ladder_retries,
        "nu": nu_to_json_dict(nu),
        "ladder": (
            None
            if config.nu_source == "canonical"
            else [[format_rational(v) for v in row] for row in built.staging.stage_ladders[0].rows]
        ),
    }
    print(f"instance p={config.p} N={config.n} seed={config.seed} C={shift}", file=out)
    if built.shift_retries:
        print(f"  rejected shifts: {', '.join(built.shift_retries)}", file=out)
    return body, EXIT_OK


def cmd_factorize(config: InstanceConfig, built: GeneratedInstance, out: TextIO) -> CommandResult:
    chain = _build_chain(built, config.n)
    check_printable(chain.printed_values())
    shift = format_rational(built.instance.shift)
    rows = [[format_rational(v) for v in row] for row in built.staging.free_rows]
    print(f"J - C*I = L(1)..L({config.p}) * U with C = {shift}", file=out)
    # Each chain value is formatted once, when the writer reaches it, and
    # printed as it passes: "U" sorts before "factors", so the writer reads
    # the lists in stdout's order.
    chain_json = chain.to_json_dict()
    chain_json["U"]["diag"] = _tee(out, "U diagonal: ", chain_json["U"]["diag"])
    for f in chain_json["factors"]:
        f["sub"] = _tee(out, f"L({f['j']}) subdiagonal: ", f["sub"])
    body = {"C": shift, "free_entries": {"p": config.p, "rows": rows}, "chain": chain_json}
    return body, EXIT_OK


def _build_chain(built, rows: int) -> BidiagonalChain:
    """The chain of the leading rows x rows block, with the free entries of
    the ladder's staging; a zero staged minor leaves no chain to build."""
    if built.staging.violation is not None:
        raise HypothesisViolated(*built.staging.violation, 0)
    return chain_from_instance(built.instance, built.staging.free_rows, rows)


def _indices(config: InstanceConfig) -> range | list[int]:
    """The transform indices a command reports: --j, else 0 .. p."""
    index = config.transform_index
    return range(config.p + 1) if index is None else [index]


def cmd_transform(config: InstanceConfig, built: GeneratedInstance, out: TextIO) -> CommandResult:
    chain = _build_chain(built, config.n)
    check_printable(chain.printed_values())
    js = _indices(config)
    # The last-row check of every J(j) to print, j >= 1, before any is formed.
    check_printable(last_row_lowest_entry(chain, j) for j in js if j)
    # J(0) is the source matrix itself; the rotated J(j) come, in increasing
    # j, from one lazy builder call. A product's last row is not valid: the
    # head's superdiagonal crosses the truncation edge.
    rotations = darboux_transform(chain, [j for j in js if j])
    for j in js:
        print(f"J({j}): valid rows {config.n - 1 if j else config.n} of {config.n}", file=out)
    taken = {0: built.instance.J}

    def section(j: int) -> dict:
        # The writer reaches the keys as sorted strings ("10" before "2"), so
        # the builder is read forward to J(j), keeping only the J(k) skipped.
        # The section is J(j)'s last reader, so it lets go of it. The writer's
        # format_rational refuses any of its values too long to print.
        while j not in taken:
            k, hess = next(rotations)
            taken[k] = hess
        hess = taken.pop(j)
        return {"matrix": hess.to_json_dict(), "valid_rows": hess.valid_rows}

    body = {
        "chain": chain.to_json_dict,
        "transforms": {str(j): partial(section, j) for j in js},
    }
    return body, EXIT_OK


def cmd_polys(config: InstanceConfig, built: GeneratedInstance, out: TextIO) -> CommandResult:
    nmax = config.window
    js = _indices(config)
    rotated = [j for j in js if j]
    # J(0)'s sequence is the source's, so the chain (of at least p rows) is
    # built only when a rotated sequence is asked for.
    stages = [(0, characteristic_polys(built.instance.J, nmax))] if 0 in js else []
    if rotated:
        chain = _build_chain(built, max(nmax + 1, config.p))
        stages = chain_iter(stages, transformed_polys(chain, nmax, rotated))
    sequences = {}
    for j, polys in stages:
        sequences[str(j)] = printed = [format_row(poly) for poly in polys]
        print(f"stage {j}:", file=out)
        for n, poly in enumerate(printed):
            print(f"  P_{n} = {format_polynomial(poly)}", file=out)
    body = {"nmax": nmax, "sequences": sequences}
    return body, EXIT_OK


def cmd_verify(config: InstanceConfig, built: GeneratedInstance, out: TextIO) -> CommandResult:
    certificate = run_theorem(built.instance, vector(built, config.moment_budget), config.window)
    print(f"verdict: {'pass' if certificate.passed else 'FAIL'}", file=out)
    for verdict in certificate.stage_verdicts:
        status = "pass" if verdict.passed else "FAIL"
        print(
            f"  j={verdict.j}: {status} "
            f"({verdict.report.zero_checks} zero checks, "
            f"{verdict.report.nonzero_checks} nonzero checks)",
            file=out,
        )
        for witness in verdict.report.failures:
            print(
                f"    witness {witness.kind} (r={witness.r}, k={witness.k}, "
                f"n={witness.n}) -> {format_rational(witness.value)}",
                file=out,
            )
    if certificate.partial is not None:
        print(
            f"  partial chain: {certificate.partial.stages} factor(s), "
            f"minor (stage {certificate.partial.violated[0]}, "
            f"size {certificate.partial.violated[1]}) = 0",
            file=out,
        )
    body = {"certificate": certificate.to_json_dict()}
    return body, EXIT_OK if certificate.passed else EXIT_HYPOTHESIS


_COMMANDS = {
    "gen": cmd_gen,
    "factorize": cmd_factorize,
    "transform": cmd_transform,
    "polys": cmd_polys,
    "verify": cmd_verify,
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built once: parsing does not change it."""
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
    """Load, generate the instance, run the command on it, write its
    report, print its stdout."""
    config = _load_config(args)
    t0 = time.perf_counter()
    with tempfile.TemporaryFile("w+", buffering=_BUFFER_BYTES, encoding="utf-8") as spool:
        body, code = _COMMANDS[args.command](config, generate(config), spool)
        payload = {
            "command": args.command,
            "tool_version": __version__,
            "config": config.to_json_dict(),
            **body,
        }
        path = _write_report(
            _report_dir(args, config) / (args.out or f"{args.command}.json"), payload, t0
        )
        spool.seek(0)
        shutil.copyfileobj(spool, sys.stdout)
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
