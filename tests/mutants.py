"""Mutant registry: each recorded mutant must turn its tests red.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones

A mutant names a file under src/, an exact text that occurs there once, its
replacement, and the tests that are to catch it: the mutant is killed when
one of them fails. The script copies src/ and tests/ into a temporary
directory, and each mutant's src/ into a directory of its own with the
replacement applied. It runs every listed test on the unmutated src/ (they
must pass) and each mutant's tests on its src/, with pytest
(HYPOTHESIS_PROFILE=mutants: derandomized, no shrinking). It exits 1 if a
mutant survives, if its text no longer occurs exactly once, or if its tests
cannot run. A mutant whose code is rewritten is rewritten here for the new
code, not dropped.

Most of a separate pytest process would be its start-up, so pytest and
Hypothesis are imported here once and each test run is a forked child
(POSIX only) that imports the package from its own src/. JOBS children run
at a time.

The file is not named test_*.py, so pytest does not collect it.
"""

from __future__ import annotations

import compileall
import importlib
import os
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path

import pytest

# Imported before any fork, so that no child imports them again (pytest
# then warns that it cannot rewrite Hypothesis' asserts; each child runs
# with that warning off). The package itself is imported only in the
# children.
for _module in ("hypothesis", "_hypothesis_pytestplugin"):
    importlib.import_module(_module)

ROOT = Path(__file__).resolve().parents[1]
# Test runs at once.
JOBS = 2


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
        "        ladder = random_ladder(rng, config.p, config.bound)\n"
        "        staging = _staging(ladder, config.p)\n",
        "        ladder = random_ladder(rng, config.p, config.bound)\n"
        "        if _staging(ladder, config.p).violation is None:\n"
        "            break\n",
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
        "gen-holds-the-sequence-while-it-builds-nu",
        "src/banded_darboux/cli.py",
        "    nu = vector(built, config.moment_budget)\n",
        "    polys = characteristic_polys(built.instance.J, config.window)\n"
        "    nu = vector(built, config.moment_budget)\n",
        (
            "tests/test_cli.py::"
            "test_gen_never_holds_the_dual_table_and_the_source_sequence_together",
        ),
    ),
    Mutant(
        "gen-keeps-the-dual-table",
        "src/banded_darboux/cli.py",
        "    nu = vector(built, config.moment_budget)\n",
        "    from .functionals import build_nu, dual_sequence\n"
        "    duals = dual_sequence(built.instance.J, config.moment_budget)\n"
        "    nu = build_nu(built.staging.stage_ladders[0], duals)\n",
        (
            "tests/test_cli.py::"
            "test_gen_never_holds_the_dual_table_and_the_source_sequence_together",
        ),
    ),
    Mutant(
        "verify-builds-the-source-sequence",
        "src/banded_darboux/cli.py",
        "    certificate = run_theorem(",
        "    characteristic_polys(built.instance.J, config.window)\n"
        "    certificate = run_theorem(",
        ("tests/test_cli.py::test_verify_builds_no_source_sequence",),
    ),
    Mutant(
        "factorize-builds-nu-again",
        "src/banded_darboux/cli.py",
        "    chain = _build_chain(built, config.n)\n"
        "    check_printable(chain.printed_values())\n"
        "    shift = ",
        "    vector(built, config.moment_budget)\n"
        "    chain = _build_chain(built, config.n)\n"
        "    check_printable(chain.printed_values())\n"
        "    shift = ",
        ("tests/test_cli.py::test_chain_commands_build_no_vector",),
    ),
    Mutant(
        "chain-split-accepts-p-rows",
        "src/banded_darboux/factorization.py",
        "if len(free_rows) != p - 1:",
        "if len(free_rows) not in (p - 1, p):",
        ("tests/test_factorization.py::test_free_spec_validation",),
    ),
    Mutant(
        "row-lu-drops-the-left-neighbour",
        "src/banded_darboux/factorization.py",
        "x = row[k] = (bands[k][i] - x) / pivots[k - p]",
        "x = row[k] = bands[k][i] / pivots[k - p]",
        (
            "tests/test_factorization.py::test_lu_reconstructs_shifted_matrix_exactly",
            "tests/test_factorization.py::test_lu_pivots_are_minor_ratios",
        ),
    ),
    Mutant(
        "last-factor-from-the-wrong-remainder-rows",
        "src/banded_darboux/factorization.py",
        "[row[0] for row in remainder[1:]]",
        "[row[0] for row in remainder[:-1]]",
        (
            "tests/test_kernels.py::test_chain_on_leading_rows_matches_full_chain",
            "tests/test_cli.py::test_factorize_chain_payload_round_trips",
        ),
    ),
    Mutant(
        "residue-division-ignores-a-zero-divisor",
        "src/banded_darboux/factorization.py",
        "        if not b.num:\n            raise _UndecidedResidue\n",
        "",
        (
            "tests/test_kernels.py::test_undecided_lu_tail_reruns_the_exact_chain",
            "tests/test_kernels.py::test_residue_scalar_matches_fraction_arithmetic_mod_q",
        ),
    ),
    Mutant(
        "residue-zero-test-answers-nonzero",
        "src/banded_darboux/factorization.py",
        "        if self.num:\n            return True\n        raise _UndecidedResidue\n",
        "        return True\n",
        ("tests/test_kernels.py::test_residue_scalar_matches_fraction_arithmetic_mod_q",),
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
        "multiply_window(heads.pop(j), tail)",
        "multiply_window(tail, heads.pop(j))",
        ("tests/test_kernels.py::test_rotations_from_shared_halves_match_chained_product",),
    ),
    Mutant(
        "tail-multiplied-on-the-left",
        "src/banded_darboux/factorization.py",
        "else multiply_window(tail, factor)",
        "else multiply_window(factor, tail)",
        (
            "tests/test_kernels.py::test_rotations_built_once_for_any_index_set",
            "tests/test_kernels.py::test_rotations_from_shared_halves_match_chained_product",
        ),
    ),
    Mutant(
        "heads-stop-one-short",
        "src/banded_darboux/factorization.py",
        "for k in range(p, min(wanted, default=p), -1):",
        "for k in range(p, min(wanted, default=p) + 1, -1):",
        ("tests/test_kernels.py::test_rotations_built_once_for_any_index_set",),
    ),
    Mutant(
        "tails-built-past-the-last-index",
        "src/banded_darboux/factorization.py",
        "enumerate(chain.factors[: max(wanted, default=0)], start=1)",
        "enumerate(chain.factors, start=1)",
        ("tests/test_kernels.py::test_rotations_built_once_for_any_index_set",),
    ),
    Mutant(
        "builder-forms-every-rotation-before-yielding",
        "src/banded_darboux/factorization.py",
        "    return _rotations(chain, wanted)\n",
        "    return iter(list(_rotations(chain, wanted)))\n",
        ("tests/test_kernels.py::test_rotations_are_formed_only_as_the_iterator_reaches_them",),
    ),
    Mutant(
        "rotation-leaves-the-shift-off",
        "src/banded_darboux/banded.py",
        "bands[0] = [v + shift for v in bm.band(0)]",
        "bands[0] = bm.band(0)",
        (
            "tests/test_kernels.py::test_rotations_from_shared_halves_match_chained_product",
            "tests/test_kernels.py::test_rotations_built_once_for_any_index_set",
        ),
    ),
    Mutant(
        "zero-shift-path-for-every-shift",
        "src/banded_darboux/banded.py",
        "if shift else bm.band(0)",
        "if False else bm.band(0)",
        ("tests/test_banded.py::test_from_band_matrix_zero_shift_is_the_general_formula",),
    ),
    Mutant(
        "recurrence-term-denominator-without-its-polynomial",
        "src/banded_darboux/banded.py",
        "lcm(*(v.denominator * d_s for v, _, d_s in",
        "lcm(*(v.denominator for v, _, d_s in",
        (
            "tests/test_kernels.py::test_characteristic_polys_matches_polynomial_recurrence",
            "tests/test_kernels.py::"
            "test_characteristic_polys_of_rotations_match_polynomial_recurrence",
        ),
    ),
    Mutant(
        "recurrence-lcm-without-the-s-0-term",
        "src/banded_darboux/banded.py",
        "for v, _, d_s in terms if v)",
        "for v, _, d_s in terms[1:] if v)",
        (
            "tests/test_kernels.py::test_characteristic_polys_matches_polynomial_recurrence",
            "tests/test_kernels.py::"
            "test_characteristic_polys_of_rotations_match_polynomial_recurrence",
        ),
    ),
    Mutant(
        "recurrence-rows-left-unreduced",
        "src/banded_darboux/banded.py",
        "        g = gcd(den, *acc)\n",
        "        g = 1\n",
        (
            "tests/test_kernels.py::test_characteristic_polys_matches_polynomial_recurrence",
            "tests/test_kernels.py::"
            "test_characteristic_polys_of_rotations_match_polynomial_recurrence",
        ),
    ),
    Mutant(
        "scan-witness-over-the-functionals-denominator-alone",
        "src/banded_darboux/functionals.py",
        "Fraction(num, d_nu * polys[n][1])",
        "Fraction(num, d_nu)",
        (
            "tests/test_kernels.py::test_scan_matches_apply",
            "tests/test_kernels.py::test_stage_reports_match_the_per_rotation_oracle",
        ),
    ),
    Mutant(
        "ladder-over-the-functionals-denominator-alone",
        "src/banded_darboux/functionals.py",
        "sum(map(mul, nums, moments)), d_nu * d)",
        "sum(map(mul, nums, moments)), d_nu)",
        ("tests/test_functionals.py::test_ladder_round_trip_exact",),
    ),
    Mutant(
        "rotated-vector-from-the-previous-window",
        "src/banded_darboux/engine.py",
        "nu_j = turned[j : j + p]",
        "nu_j = turned[j - 1 : j - 1 + p]",
        (
            "tests/test_kernels.py::test_stage_reports_match_the_per_rotation_oracle",
            "tests/test_engine.py::test_certificate_seeded_p2_p3",
        ),
    ),
    Mutant(
        "shift-multiply-adds-c",
        "src/banded_darboux/functionals.py",
        "b - c * a for a, b in",
        "b + c * a for a, b in",
        (
            "tests/test_functionals.py::test_shift_multiply_constant_moments",
            "tests/test_functionals.py::test_shift_multiply_is_adjoint_to_linear_factor",
        ),
    ),
    Mutant(
        "scan-without-moment-budget-guard",
        "src/banded_darboux/functionals.py",
        "            if c and len(c) + k > len(moments):\n"
        "                raise DegreeExceedsMoments(len(c) - 1 + k, len(moments) - 1)\n",
        "",
        (
            "tests/test_functionals.py::test_scan_needs_enough_moments",
            "tests/test_kernels.py::test_scan_matches_apply",
        ),
    ),
    Mutant(
        "shift-by-zero-keeps-the-input-scalars",
        "src/banded_darboux/functionals.py",
        "tuple(map(rational, moments[1:]))",
        "tuple(moments[1:])",
        ("tests/test_functionals.py::test_shift_multiply_by_zero_is_the_general_formula",),
    ),
    Mutant(
        "scan-certificate-skips-the-last-row",
        "src/banded_darboux/functionals.py",
        "            and not any(value(window, k) for k in range(1, top + 1))\n",
        "",
        (
            "tests/test_functionals.py::test_scan_certificate_reads_the_last_row",
            "tests/test_kernels.py::test_stage_reports_match_the_per_rotation_oracle",
        ),
    ),
    Mutant(
        "scan-certificate-column-starts-past-r",
        "src/banded_darboux/functionals.py",
        "value(n, 0) for n in range(r, window + 1)",
        "value(n, 0) for n in range(r + 1, window + 1)",
        ("tests/test_functionals.py::test_scan_certificate_column_starts_at_r",),
    ),
    Mutant(
        "scan-certificate-column-stops-before-the-window",
        "src/banded_darboux/functionals.py",
        "value(n, 0) for n in range(r, window + 1)",
        "value(n, 0) for n in range(r, window)",
        ("tests/test_functionals.py::test_scan_certificate_column_ends_at_the_window",),
    ),
    Mutant(
        "scan-certificate-miscounts-zero-checks",
        "src/banded_darboux/functionals.py",
        "(n - r) // p + 1 for n in",
        "(n - r) // p for n in",
        (
            "tests/test_functionals.py::test_scan_certificate_reads_the_last_row",
            "tests/test_kernels.py::test_scan_matches_apply",
        ),
    ),
    Mutant(
        "polys-j-0-builds-the-chain",
        "src/banded_darboux/cli.py",
        "    if rotated:\n        chain = _build_chain(built, max(nmax + 1, config.p))\n",
        "    chain = _build_chain(built, max(nmax + 1, config.p))\n    if rotated:\n",
        ("tests/test_cli.py::test_polys_of_j_0_builds_no_chain",),
    ),
    Mutant(
        "polys-chain-on-window-rows-only",
        "src/banded_darboux/cli.py",
        "_build_chain(built, max(nmax + 1, config.p))",
        "_build_chain(built, nmax + 1)",
        ("tests/test_cli.py::test_polys_stdout_is_pinned",),
    ),
    Mutant(
        "explicit-band-minus-p-unchecked",
        "src/banded_darboux/generate.py",
        "            if J.band(-config.p)[r] == 0:\n",
        "            if False:\n",
        ("tests/test_cli.py::test_zero_in_band_minus_p_is_a_config_error",),
    ),
    Mutant(
        "last-row-0-over-0-raises",
        "src/banded_darboux/factorization.py",
        "        elif row[0] or r < len(block) - 1:\n",
        "        elif True:\n",
        ("tests/test_factorization.py::test_peel_vacuous_constraint_takes_zero",),
    ),
    Mutant(
        "peel-pivot-message-ignores-the-numerator",
        "src/banded_darboux/factorization.py",
        "ZeroPeelPivot(j, r, vacuous=not row[0])",
        "ZeroPeelPivot(j, r)",
        (
            "tests/test_factorization.py::test_peel_identity_with_zero_free_entries",
            "tests/test_factorization.py::test_peel_vacuous_constraint_takes_zero",
            "tests/test_cli.py::test_zero_in_band_minus_p_is_a_config_error",
        ),
    ),
    Mutant(
        "moment-budget-uncapped",
        "src/banded_darboux/generate.py",
        "        if self.moment_budget > max_budget(self.p):\n",
        "        if False:\n",
        ("tests/test_cli.py::test_budget_beyond_the_cap_is_rejected_before_anything_is_built",),
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
        "    # The last-row check of every J(j) to print",
        "    json.dumps(chain.to_json_dict(), default=list)\n"
        "    # The last-row check of every J(j) to print",
        (
            "tests/test_cli.py::test_transform_checks_every_rotation_before_formatting",
            "tests/test_cli.py::test_transform_full_check_still_rejects_a_rotation_the_last_row_passes",
        ),
    ),
    Mutant(
        "section-takes-the-next-rotation-whatever-its-key",
        "src/banded_darboux/cli.py",
        "        while j not in taken:\n"
        "            k, hess = next(rotations)\n"
        "            taken[k] = hess\n"
        "        hess = taken.pop(j)\n",
        "        hess = taken.pop(j) if j in taken else next(rotations)[1]\n",
        ("tests/test_cli.py::test_transform_sections_match_the_chained_oracle_byte_for_byte",),
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


def _start(work: Path, src: Path, tests) -> int:
    """Fork a child that runs `tests` with pytest in `work`, importing the
    package from `src`, its output to pytest.log beside `src`; returns the
    child's pid."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid:
        return pid
    code = 3
    try:
        fd = os.open(src.parent / "pytest.log", os.O_WRONLY | os.O_CREAT | os.O_TRUNC)
        os.dup2(fd, 1)
        os.dup2(fd, 2)
        os.chdir(work)
        # In place of this script's directory.
        sys.path[0] = str(src)
        # Hypothesis' plugin is the one the tests need; not scanning for the
        # others saves a good part of a run.
        os.environ.update(
            PYTHONPATH=str(src), HYPOTHESIS_PROFILE="mutants", PYTEST_DISABLE_PLUGIN_AUTOLOAD="1"
        )
        code = pytest.main([
            "-q", "-x", "-p", "no:cacheprovider", "-p", "_hypothesis_pytestplugin",
            "-W", "ignore::pytest.PytestAssertRewriteWarning", *tests,
        ])
    except BaseException:
        traceback.print_exc()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(int(code))


def _run_all(work: Path, runs: dict) -> dict:
    """Each run's pytest exit code, with at most JOBS children at a time;
    `runs` maps a key to (src, tests)."""
    codes = {}
    running = {}
    pending = list(runs)
    while pending or running:
        if pending and len(running) < JOBS:
            name = pending.pop(0)
            src, tests = runs[name]
            running[_start(work, src, tests)] = name
            continue
        pid, status = os.wait()
        codes[running.pop(pid)] = os.waitstatus_to_exitcode(status)
    return codes


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
        # Compiled once here, so that each mutant's copy recompiles only its
        # mutated file.
        compileall.compile_dir(work / "src", quiet=1)
        # The clean run is keyed None, each mutant's by its name.
        runs = {None: (work / "src", tuple(dict.fromkeys(t for m in chosen for t in m.tests)))}
        for mutant in chosen:
            original = (ROOT / mutant.path).read_text(encoding="utf-8")
            if original.count(mutant.old) != 1:
                failed.append(mutant.name)
                print(f"STALE    {mutant.name}: its text occurs {original.count(mutant.old)} "
                      f"times in {mutant.path}; rewrite it for the current code")
                continue
            home = work / "mutants" / mutant.name
            shutil.copytree(work / "src", home / "src")
            target = home / mutant.path
            target.write_text(original.replace(mutant.old, mutant.new), encoding="utf-8")
            for stale in (target.parent / "__pycache__").glob(f"{target.stem}.*.pyc"):
                stale.unlink()
            runs[mutant.name] = (home / "src", mutant.tests)
        codes = _run_all(work, runs)
        if codes[None] != 0:
            log = (work / "pytest.log").read_text()
            print(f"the listed tests fail on the unmutated tree:\n{log}")
            return 1
        for mutant in chosen:
            if mutant.name not in codes:
                continue
            if codes[mutant.name] == 1:
                print(f"killed   {mutant.name}")
            else:
                failed.append(mutant.name)
                verdict = "SURVIVED" if codes[mutant.name] == 0 else f"ERROR {codes[mutant.name]}"
                log = (work / "mutants" / mutant.name / "pytest.log").read_text()
                print(f"{verdict:8} {mutant.name}\n{log}")
    print(f"{len(chosen) - len(failed)} of {len(chosen)} mutants killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
