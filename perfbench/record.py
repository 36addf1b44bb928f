"""Record the reference outcome of every op any benchmark run can make.

Run from the root of a checkout, at the commit the reference describes:

    python3 perfbench/record.py

For each op of each workload's universe (every config shape with every pool
seed) it stores the exit code, the class of any exception that escaped
`cli.main`, and the sha256 of the report's canonical payload, in
`perfbench/reference.json`.
"""

import json
import shutil
import sys
import tempfile
from pathlib import Path

import harness
from workloads import WORKLOADS

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def main() -> int:
    reference = {}
    cli = harness.import_cli()
    work = harness.ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="record-", dir=work))
    try:
        for name in sorted(WORKLOADS):
            for op in WORKLOADS[name].universe():
                config = harness.write_config(op, tmp)
                outcome = harness.run_op(cli, op, config, tmp, "report.json")
                reference[op.key] = harness.reference_entry(outcome)
                print(f"{name}: {op.key}: {reference[op.key]} ({outcome.seconds:.3f} s)", flush=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
