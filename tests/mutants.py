"""Mutant registry: each recorded mutant must turn its tests red.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

A mutant names a file under src/, an exact text that occurs there once, its
replacement, and the tests that are to catch it: the mutant is killed when
one of them fails. The script copies src/ and tests/ into a temporary
directory and first runs every listed test there unmutated (they must
pass). Then, one mutant at a time, it applies the replacement to a fresh
copy of the file and runs only that mutant's tests with pytest
(HYPOTHESIS_PROFILE=mutants: derandomized, no shrinking). It exits 1 if a
mutant survives, if its text no longer occurs exactly once, or if its tests
cannot run. A mutant whose code is rewritten is rewritten here for the new
code, not dropped.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    path: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = (
    Mutant(
        "det-loses-swap-sign",
        "src/banded_darboux/functionals.py",
        "            sign = -sign\n",
        "",
        ("tests/test_functionals.py::test_delta_elimination_matches_the_dense_oracle",),
    ),
    Mutant(
        "transport-skips-first-factor",
        "src/banded_darboux/engine.py",
        "for factor in reversed(factors[:j]):",
        "for factor in reversed(factors[1:j]):",
        ("tests/test_engine.py::test_transport_identity_matches_dense_products",),
    ),
    Mutant(
        "leading-minus-printed-as-plus",
        "src/banded_darboux/exact.py",
        'else "-" + text[2:]',
        'else "+" + text[2:]',
        ("tests/test_exact.py::test_format_polynomial_matches_the_oracle",),
    ),
    Mutant(
        "generate-keeps-first-draws-staging",
        "src/banded_darboux/generate.py",
        "            ladder = random_ladder(rng, config.p, config.bound)\n"
        "            staging = _staging(ladder, config.p)\n",
        "            ladder = random_ladder(rng, config.p, config.bound)\n"
        "            if _staging(ladder, config.p).violation is None:\n"
        "                break\n",
        (
            "tests/test_engine.py::test_resampled_ladder_keeps_the_accepted_draws_staging",
            "tests/test_engine.py::test_generate_stages_the_ladder_nu_is_built_from",
        ),
    ),
    Mutant(
        "identity-ladder-one-in-column-0",
        "src/banded_darboux/generate.py",
        "LambdaLadder([[0] * i + [1] for i in range(config.p)])",
        "LambdaLadder([[1] + [0] * i for i in range(config.p)])",
        (
            "tests/test_engine.py::test_free_entries_raise_on_zero_minor",
            "tests/test_engine.py::test_generate_stages_the_ladder_nu_is_built_from",
            "tests/test_cli.py::test_verify_canonical_vector_exits_with_hypothesis_code",
        ),
    ),
    Mutant(
        "chain-split-accepts-p-rows",
        "src/banded_darboux/factorization.py",
        "if len(free_rows) != p - 1:",
        "if len(free_rows) not in (p - 1, p):",
        ("tests/test_factorization.py::test_free_spec_validation",),
    ),
    Mutant(
        "lu-tail-ignores-zero-pivot",
        "src/banded_darboux/factorization.py",
        "        if un == 0:\n            raise _UndecidedResidue\n        piv.pop(0)\n",
        "        piv.pop(0)\n",
        ("tests/test_kernels.py::test_undecided_lu_tail_reruns_the_exact_chain",),
    ),
    Mutant(
        "undecided-residue-not-rerun",
        "src/banded_darboux/factorization.py",
        "    except _UndecidedResidue:\n        return _chain(inst, free_rows, inst.n).leading(rows)\n",
        "    except _UndecidedResidue:\n        raise\n",
        (
            "tests/test_kernels.py::test_undecided_lu_tail_reruns_the_exact_chain",
            "tests/test_kernels.py::test_undecided_peel_tail_reruns_the_exact_chain",
        ),
    ),
    Mutant(
        "rotation-halves-swapped",
        "src/banded_darboux/factorization.py",
        "yield j, _rotation(chain, heads.pop(), tail)",
        "yield j, _rotation(chain, tail, heads.pop())",
        ("tests/test_kernels.py::test_rotations_from_shared_halves_match_chained_product",),
    ),
    Mutant(
        "printable-denominator-at-the-limit",
        "src/banded_darboux/exact.py",
        "v.denominator >= bound",
        "v.denominator > bound",
        ("tests/test_exact.py::test_check_printable_agrees_with_str_at_the_limit",),
    ),
    Mutant(
        "transform-formats-chain-before-rotation-checks",
        "src/banded_darboux/cli.py",
        "    index = config.transform_index\n",
        "    index = config.transform_index\n"
        "    json.dumps(chain.to_json_dict(), default=list)\n",
        (
            "tests/test_cli.py::test_transform_checks_every_rotation_before_formatting",
            "tests/test_cli.py::test_transform_full_check_still_rejects_a_rotation_the_last_row_passes",
        ),
    ),
    Mutant(
        "section-resolved-once",
        "src/banded_darboux/cli.py",
        "    while callable(o):\n",
        "    if callable(o):\n",
        ("tests/test_cli.py::test_report_writer_matches_json_dumps_byte_for_byte",),
    ),
    Mutant(
        "writer-keys-unsorted",
        "src/banded_darboux/cli.py",
        "sorted(o.items())",
        "o.items()",
        (
            "tests/test_cli.py::test_report_writer_matches_json_dumps_byte_for_byte",
            "tests/test_cli.py::test_transform_at_p_10_sorts_the_transform_keys_as_strings",
        ),
    ),
)


def _pytest(workdir: Path, tests) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), HYPOTHESIS_PROFILE="mutants")
    return subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=workdir, env=env, capture_output=True, text=True,
    )


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if not argv or m.name in argv]
    unknown = set(argv) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {', '.join(sorted(unknown))}")
        return 1
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    failed = []
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for top in ("src", "tests"):
            shutil.copytree(ROOT / top, work / top, ignore=ignore)
        tests = list(dict.fromkeys(t for m in chosen for t in m.tests))
        clean = _pytest(work, tests)
        if clean.returncode != 0:
            print(f"the listed tests fail on the unmutated tree:\n{clean.stdout}{clean.stderr}")
            return 1
        for mutant in chosen:
            target = work / mutant.path
            original = (ROOT / mutant.path).read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                failed.append(mutant.name)
                print(f"STALE    {mutant.name}: its text occurs {original.count(mutant.old)} "
                      f"times in {mutant.path}; rewrite it for the current code")
                continue
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            try:
                run = _pytest(work, mutant.tests)
            finally:
                target.write_text(original, encoding="utf-8")
            if run.returncode == 1:
                print(f"killed   {mutant.name}")
            else:
                failed.append(mutant.name)
                verdict = "SURVIVED" if run.returncode == 0 else f"ERROR {run.returncode}"
                print(f"{verdict:8} {mutant.name}\n{run.stdout}{run.stderr}")
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
