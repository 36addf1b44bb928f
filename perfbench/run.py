"""Benchmark of the banded-darboux CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-grid --seed 1 --seconds 30 --trace 0

Each op is one in-process call to `banded_darboux.cli.main` on a generated
config, in a closed loop from this single process (the next op starts when
the previous one returns). `--seconds` sets the work: the run does
round(seconds / cycle_s) whole cycles of the workload's config shapes, which
took about `--seconds` when the benchmark was defined, so a faster program
finishes sooner and `wall_s` shows it. Reports go to a fresh directory under
`.perfbench/` and are checked against `reference.json` after the timed phase.

`--trace 0` prints the end-to-end metrics. `--trace 1` runs each op
untraced and traced, alternating which goes first, and prints the per-layer
metrics and `trace_overhead_s`; its spans are written to `.perfbench/` when
it ends.
The last line of stdout is one JSON object with the result.
"""

from time import perf_counter

# setup_s counts from here, before the imports.
PROCESS_START = perf_counter()

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import harness
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
WORK_DIR = harness.ROOT / ".perfbench"
# Set-ups per run: this process's own and one each in SETUPS - 1 fresh
# processes; setup_s is their median.
SETUPS = 5


def tail(samples: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples above it,
    and that percentile (nearest rank). Below eleven samples no percentile
    has ten above it, and the maximum is reported as percentile 100."""
    xs = sorted(samples)
    if len(xs) <= 10:
        return xs[-1], 100.0
    k = len(xs) - 11
    return xs[k], 100.0 * (k + 1) / len(xs)


def set_up(workload, seed: int, seconds: int, directory: Path):
    """Import, config generation and one untimed warm-up op per command;
    returns the time taken since process start with the rest."""
    cli = harness.import_cli()
    ops = workload.ops(seed, seconds)
    configs = {}
    for op in ops + workload.warmup_ops():
        if op.key not in configs:
            configs[op.key] = harness.write_config(op, directory)
    for i, op in enumerate(workload.warmup_ops()):
        harness.run_op(cli, op, configs[op.key], directory, f"warmup{i}.json")
    return cli, ops, configs, perf_counter() - PROCESS_START


def setup_probes(args, count: int) -> list[float]:
    """Set-up times of `count` fresh processes, run one after another, each
    doing the whole set-up (imports included) and no timed op."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    times = []
    for _ in range(count):
        done = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True, timeout=150)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        times.append(float(done.stdout.split()[-1]))
    return times


def timed_pass(cli, ops, configs, report_dir: Path):
    """Closed loop over the ops; returns the outcomes and the wall time."""
    report_dir.mkdir(parents=True)
    outcomes = []
    t0 = perf_counter()
    for i, op in enumerate(ops):
        outcomes.append(harness.run_op(cli, op, configs[op.key], report_dir, f"op{i:04d}.json"))
    return outcomes, perf_counter() - t0


def paired_passes(cli, ops, configs, directory: Path, tracer):
    """Each op untraced and traced, alternating which goes first, so that
    neither pass is favoured by running second; returns both outcome lists."""
    dirs = {False: directory / "untraced", True: directory / "traced"}
    for d in dirs.values():
        d.mkdir(parents=True)
    outcomes = {False: [], True: []}
    for i, op in enumerate(ops):
        tracer.op = i
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            tracer.enable(traced)
            outcome = harness.run_op(cli, op, configs[op.key], dirs[traced], f"op{i:04d}.json")
            outcomes[traced].append(outcome)
    tracer.enable(False)
    return outcomes[False], outcomes[True]


def judge(outcomes, reference):
    """Failure reasons (None for a passed op) and whether every failure is
    one the reference already records."""
    reasons, correct = [], True
    for outcome in outcomes:
        entry = reference.get(outcome.op.key)
        if entry is None:
            raise RuntimeError(f"no reference outcome for op {outcome.op.key}")
        reason = harness.failure(outcome, entry)
        if reason is not None and not harness.known_failure(outcome.op, entry):
            correct = False
        reasons.append(reason)
    return reasons, correct


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(setup_times, wall, outcomes, failed, peak_rss_mb):
    latencies = [o.seconds for o in outcomes]
    n = len(latencies)
    tail_s, tail_pct = tail(latencies)
    rows = [
        ("setup_s", statistics.median(setup_times), "s",
         f"median of {len(setup_times)} set-ups, this process first: "
         + ", ".join(f"{t:.3f}" for t in setup_times)),
        ("wall_s", wall, "s", f"{n} ops"),
        ("op_s.p50", statistics.median(latencies), "s", f"n={n}"),
        ("op_s.tail", tail_s, "s",
         f"p{tail_pct:.1f}, n={n}" + ("; fewer than 11 samples, so the maximum" if n <= 10 else "")),
        ("peak_rss_mb", peak_rss_mb, "MB", "ru_maxrss"),
        ("ok_rate", (n - failed) / n, "ratio", f"fail_rate {failed / n:.4f} = {failed}/{n}"),
    ]
    for name, value, unit, note in rows:
        print(f"{name:12s} {value:.4f} {unit}  ({note})")
    return {name: metric(value, unit) for name, value, unit, _ in rows}


def per_layer(tracer, workload, untraced, traced):
    traced_wall = sum(o.seconds for o in traced)
    tracing.check_coverage(tracer, workload.layers, workload.name)
    glue = tracing.check_attribution(tracer, traced_wall, workload.max_glue_share, workload.name)
    report_bytes = sum(o.report.stat().st_size for o in traced if o.report.is_file())
    values = tracing.layer_metrics(tracer, report_bytes)
    untraced_wall = sum(o.seconds for o in untraced)
    values["trace_overhead_s"] = traced_wall - untraced_wall
    n = len(traced)
    print(f"traced ops: {n}, traced op time {traced_wall:.3f} s; share = self_s / traced op time")
    for name, metrics in tracing.LAYERS.items():
        self_s = values[f"{name}.self_s"]
        calls = values.get(f"{name}.calls", n)
        extras = ", ".join(
            f"{m} {values[f'{name}.{m}']:.4g}" for m in metrics if m not in ("calls", "self_s")
        )
        print(f"  {name:38s} calls {calls:6d} ({calls / n:6.2f}/op)  self {self_s:9.4f} s "
              f"{100 * self_s / traced_wall:5.1f}%  {extras}")
    print(f"glue share {glue:.4f} (self time of {', '.join(tracing.GLUE)}; "
          f"at most {workload.max_glue_share})")
    bookkeeping = sum(span.done - span.end for span in tracer.spans)
    print(f"trace_overhead_s {values['trace_overhead_s']:.4f} s "
          f"(traced wall {traced_wall:.3f} s - untraced wall {untraced_wall:.3f} s; "
          f"number-size bookkeeping inside it {bookkeeping:.3f} s)")
    return {
        name: metric(value, "s" if name == "trace_overhead_s" else tracing.UNITS[name.rsplit(".", 1)[1]])
        for name, value in values.items()
    }


def write_spans(tracer, path: Path) -> None:
    with path.open("w") as handle:
        for i, span in enumerate(tracer.spans):
            handle.write(json.dumps(span.to_json_dict(i)) + "\n")


def run(args) -> int:
    harness.require_package()
    workload = WORKLOADS[args.workload]
    WORK_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        cli, ops, configs, setup_first = set_up(workload, args.seed, args.seconds, tmp)
        if args.setup_only:
            print(repr(setup_first))
            return 0
        reference = json.loads((HERE / "reference.json").read_text())
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install()
            untraced, traced = paired_passes(cli, ops, configs, tmp, tracer)
            outcomes = untraced + traced
        else:
            setup_times = [setup_first] + setup_probes(args, SETUPS - 1)
            outcomes, wall = timed_pass(cli, ops, configs, tmp / "untraced")
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        print(f"workload {workload.name}, seed {args.seed}: {len(ops)} ops in "
              f"{workload.cycles(args.seconds)} cycle(s), closed loop, one process")
        reasons, correct = judge(outcomes, reference)
        attempted = len(reasons)
        failed = sum(r is not None for r in reasons)
        if args.trace:
            metrics = per_layer(tracer, workload, untraced, traced)
            spans = WORK_DIR / f"spans-{workload.name}-seed{args.seed}.jsonl"
            write_spans(tracer, spans)
            print(f"spans: {spans.relative_to(harness.ROOT)}")
            print(f"fail_rate    {failed / attempted:.4f}  ({failed}/{attempted}, both passes)")
        else:
            metrics = end_to_end(setup_times, wall, outcomes, failed, peak_rss_mb)
        breakdown = Counter(r for r in reasons if r is not None)
        for reason, count in sorted(breakdown.items()):
            print(f"  failed: {count} x {reason}")
        print(f"outputs checked against the reference: {'correct' if correct else 'NEW FAILURES'}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="do the set-up only and print its time (used for setup_s)")
    args = parser.parse_args(argv)
    try:
        return run(args)
    except harness.PackageMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
