"""Running one op through the CLI and judging its outcome.

An op is one in-process call to `banded_darboux.cli.main([...])`. The
package is imported from the checkout's `src/`, never from an installed copy.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import importlib
import io
import json
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Optional

from workloads import Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = "banded_darboux"


class PackageMissing(RuntimeError):
    pass


def require_package() -> None:
    if not (SRC / PACKAGE / "cli.py").is_file():
        raise PackageMissing(f"no {PACKAGE} package under {SRC}")


def import_cli():
    """Import the package from the checkout's `src/` and return its cli module."""
    require_package()
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module(f"{PACKAGE}.cli")
    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise PackageMissing(f"{PACKAGE} was imported from {cli.__file__}, not {SRC}")
    return cli


class _Discard(io.TextIOBase):
    """Stdout of an op: the CLI's tables are formatted, then dropped."""

    def write(self, text: str) -> int:
        return len(text)


@dataclass
class Outcome:
    op: Op
    seconds: float
    exit_code: Optional[int]
    error: Optional[str]  # class of an exception that escaped cli.main
    message: str  # the exception's text, or the CLI's stderr
    report: Path


def run_op(cli, op: Op, config: Path, report_dir: Path, out: str) -> Outcome:
    argv = [op.command, "--config", str(config), "--report-dir", str(report_dir), "--out", out]
    (report_dir / out).unlink(missing_ok=True)
    gc.collect()  # each op starts from a collected heap, as in a fresh process
    err = io.StringIO()
    exit_code = error = None
    with contextlib.redirect_stdout(_Discard()), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            exit_code = cli.main(argv)
        except Exception as exc:  # counted as a failed op; the run goes on
            error = type(exc).__name__
            message = str(exc)
        seconds = perf_counter() - t0
    if error is None:
        message = err.getvalue()
    return Outcome(op, seconds, exit_code, error, message.strip()[:160], report_dir / out)


def write_config(op: Op, directory: Path) -> Path:
    path = directory / f"{op.key.replace(' ', '_').replace('=', '-')}.json"
    path.write_text(json.dumps(op.config(), sort_keys=True))
    return path


def payload_digest(payload) -> str:
    """sha256 of the canonical JSON of a report's payload (timings excluded)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def read_payload(report: Path):
    return json.loads(report.read_text())["payload"]


def reference_entry(outcome: Outcome) -> dict:
    """What `record.py` stores for an op: exit code, escaped exception, and
    the payload digest when the op ran as its config kind expects."""
    digest = None
    if outcome.exit_code == outcome.op.expected_exit and outcome.report.is_file():
        digest = payload_digest(read_payload(outcome.report))
    return {"exit": outcome.exit_code, "error": outcome.error, "sha256": digest}


def _exit_label(outcome: Outcome) -> str:
    # Exit 3 is shared by SingularLeadingMinor and ZeroPeelPivot; the CLI's
    # message tells them apart.
    if outcome.exit_code == 3:
        kind = "ZeroPeelPivot" if "peeling pivot" in outcome.message else "SingularLeadingMinor"
        return f"exit 3 ({kind})"
    return f"exit {outcome.exit_code}"


def failure(outcome: Outcome, reference: dict) -> Optional[str]:
    """Why the op failed, or None when it passed.

    Fails: an exception escaped cli.main; the exit code is not the one its
    config kind expects; a positive verify certificate did not pass; the
    payload digest differs from the reference. A positive op that failed
    when the reference was recorded has no digest and passes once it exits 0
    and writes a report. A negative op that wrote no report then needs only
    its exit code.
    """
    op = outcome.op
    if outcome.error is not None:
        return f"{outcome.error} in {op.command}: {outcome.message[:80]}"
    if outcome.exit_code != op.expected_exit:
        return f"{_exit_label(outcome)} in {op.command}"
    if not outcome.report.is_file():
        if op.expected_exit == 0 or reference["sha256"] is not None:
            return f"no report from {op.command}"
        return None
    payload = read_payload(outcome.report)
    if op.command == "verify" and op.expected_exit == 0 and payload["certificate"]["passed"] is not True:
        return "verify certificate not passed"
    if reference["sha256"] is not None and payload_digest(payload) != reference["sha256"]:
        return f"digest mismatch in {op.command}"
    return None


def known_failure(op: Op, reference: dict) -> bool:
    """The op already failed when the reference was recorded."""
    return reference["error"] is not None or reference["exit"] != op.expected_exit
