"""Command dispatch, reports, determinism, and the exit-code contract."""

import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stdout
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from banded_darboux import (
    BandedHessenberg,
    BidiagonalChain,
    ConfigError,
    GenerationExhausted,
    HypothesisViolated,
    InstanceConfig,
    InternalCheckError,
    LambdaLadder,
    ShiftedInstance,
    SingularLeadingMinor,
    chain_from_instance,
    generate,
    moment_budget,
    vector,
)
from banded_darboux.exact import format_rational
from banded_darboux.generate import MAX_N, max_budget
from banded_darboux import banded, cli, engine, factorization, functionals
from banded_darboux.cli import (
    EXIT_CONFIG,
    EXIT_HYPOTHESIS,
    EXIT_OK,
    main,
)
from banded_darboux.errors import (
    BadFreeSpec,
    BandedDarbouxError,
    ConsistencyFailure,
    DegreeExceedsMoments,
    IndexOutOfRange,
    InsufficientMoments,
    LadderViolation,
    NotMonicOrDegreeGap,
    ShapeMismatch,
    SizeMismatch,
    ZeroPeelPivot,
)
from helpers import (
    characteristic_polys_by_polynomials,
    darboux_transform_chained,
    dense_rows,
    plain_json,
    read_chain,
    read_vector,
    reconstruct,
)

# The documented codes of a singular pivot and of an internal consistency
# failure (the cli and errors docstrings); the package names no constant
# for them, and the test does not read them off the error classes.
EXIT_SINGULAR = 3
EXIT_INTERNAL = 4


def write_config(tmp_path, name="config.json", **overrides):
    data = {
        "p": 2,
        "N": 14,
        "window": 8,
        "seed": 42,
        "C": "0",
        "matrix": {"source": "random"},
        "nu": {"source": "random"},
    }
    data.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return path


def run_cli(tmp_path, command, config_path, *extra):
    return main(
        [command, "--config", str(config_path), "--report-dir", str(tmp_path / "reports"), *extra]
    )


def read_report(tmp_path, command):
    return json.loads((tmp_path / "reports" / f"{command}.json").read_text())


def test_gen_is_reproducible_byte_for_byte(tmp_path, capsys):
    config = write_config(tmp_path, N=16)
    assert run_cli(tmp_path, "gen", config) == EXIT_OK
    first = (tmp_path / "reports" / "gen.json").read_text()
    payload_first = json.loads(first)["payload"]
    assert run_cli(tmp_path, "gen", config) == EXIT_OK
    second = (tmp_path / "reports" / "gen.json").read_text()
    payload_second = json.loads(second)["payload"]
    assert json.dumps(payload_first, sort_keys=True) == json.dumps(payload_second, sort_keys=True)
    capsys.readouterr()


def test_gen_payload_echoes_seed_and_loads_back(tmp_path, capsys):
    config = write_config(tmp_path, seed=77)
    assert run_cli(tmp_path, "gen", config) == EXIT_OK
    payload = read_report(tmp_path, "gen")["payload"]
    assert payload["config"]["seed"] == 77
    BandedHessenberg.from_json_dict(payload["matrix"])
    read_vector(payload["nu"])
    capsys.readouterr()


def test_explicit_matrix_loads_verbatim(tmp_path, capsys):
    bands = {
        "0": ["2", "2", "2", "2", "2", "2", "2", "2", "2", "2", "2", "2", "2", "2"],
        "-1": ["1"] * 13,
    }
    config = write_config(
        tmp_path, p=1, N=14, window=6,
        matrix={"source": "explicit", "bands": bands},
        nu={"source": "canonical"},
    )
    assert run_cli(tmp_path, "gen", config) == EXIT_OK
    payload = read_report(tmp_path, "gen")["payload"]
    assert payload["matrix"]["bands"] == bands
    capsys.readouterr()


def test_verify_passes_on_catalan_instance(tmp_path, capsys):
    bands = {"0": ["2"] * 14, "-1": ["1"] * 13}
    config = write_config(
        tmp_path, p=1, N=14, window=6,
        matrix={"source": "explicit", "bands": bands},
        nu={"source": "canonical"},
    )
    assert run_cli(tmp_path, "verify", config) == EXIT_OK
    payload = read_report(tmp_path, "verify")["payload"]
    assert payload["certificate"]["passed"] is True
    out = capsys.readouterr().out
    assert "verdict: pass" in out


def test_verify_canonical_vector_exits_with_hypothesis_code(tmp_path, capsys):
    config = write_config(tmp_path, nu={"source": "canonical"})
    assert run_cli(tmp_path, "verify", config) == EXIT_HYPOTHESIS
    err = capsys.readouterr().err
    assert "stage 0, size 1" in err


@pytest.mark.parametrize("command", ["factorize", "transform", "polys"])
@pytest.mark.parametrize(
    "overrides, size",
    [
        ({"nu": {"source": "canonical"}}, (0, 1)),
        ({"nu": {"source": "ladder", "lambda": [["1"], ["0", "1"]]}}, (0, 1)),
        (
            {"p": 3, "N": 16, "nu": {"source": "ladder", "lambda": [[1], [1, 1], [0, 1, 1]]}},
            (1, 1),
        ),
    ],
    ids=["canonical", "identity-ladder", "stage-1-zero"],
)
def test_chain_commands_exit_2_on_a_zero_staged_minor(tmp_path, capsys, command, overrides, size):
    # The staging generate recorded has no free entries past the zero
    # minor, so no chain is built: one error line, no report.
    config = write_config(tmp_path, **overrides)
    assert run_cli(tmp_path, command, config) == EXIT_HYPOTHESIS
    captured = capsys.readouterr()
    assert captured.err == f"error: staircase minor (stage {size[0]}, size {size[1]}) is zero\n"
    assert captured.out == ""
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "overrides, code",
    [
        ({"nu": {"source": "canonical"}}, EXIT_HYPOTHESIS),
        (
            {
                "p": 3, "N": 20, "seed": 9, "bound": 1,
                "nu": {"source": "random", "require_hypotheses": False},
            },
            EXIT_SINGULAR,
        ),
    ],
    ids=["canonical", "zero-peel-pivot"],
)
def test_polys_of_j_0_builds_no_chain(tmp_path, capsys, overrides, code):
    # J(0)'s sequence is the source's, so polys --j 0 prints it where no
    # chain can be built; the commands that need the chain still stop.
    config = write_config(tmp_path, **overrides)
    for command in ("polys", "transform", "verify"):
        assert run_cli(tmp_path, command, config) == code
    assert not (tmp_path / "reports").exists()
    capsys.readouterr()
    assert run_cli(tmp_path, "polys", config, "--j", "0") == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    sequences = read_report(tmp_path, "polys")["payload"]["sequences"]
    assert list(sequences) == ["0"]
    # The same seed with a random vector has the same source matrix.
    reference = write_config(
        tmp_path, "reference.json", **{**overrides, "nu": {"source": "random"}}
    )
    assert run_cli(tmp_path, "polys", reference, "--j", "0") == EXIT_OK
    assert capsys.readouterr().out == captured.out
    assert read_report(tmp_path, "polys")["payload"]["sequences"] == sequences


def test_factorize_reports_first_singular_minor(tmp_path, capsys):
    bands = {"0": ["2"] * 14, "-1": ["1"] * 13}
    config = write_config(
        tmp_path, p=1, N=14, window=6, C="2", retry_cap=0,
        matrix={"source": "explicit", "bands": bands},
        nu={"source": "canonical"},
    )
    assert run_cli(tmp_path, "factorize", config) == EXIT_SINGULAR
    err = capsys.readouterr().err
    assert "minor 1" in err


def test_factorize_chain_payload_round_trips(tmp_path, capsys):
    # The reported chain, read back, factors the reported J on every row of
    # a truncation far past the window's rows, and labels L(1) .. L(p).
    window, n = 4, 40
    for p in range(1, 5):
        config = write_config(tmp_path, p=p, N=n, window=window)
        assert run_cli(tmp_path, "gen", config) == EXIT_OK
        assert run_cli(tmp_path, "factorize", config) == EXIT_OK
        capsys.readouterr()
        J = BandedHessenberg.from_json_dict(read_report(tmp_path, "gen")["payload"]["matrix"])
        payload = read_report(tmp_path, "factorize")["payload"]
        chain = read_chain(payload["chain"])
        assert chain.p == p and chain.n == n
        assert [f["j"] for f in payload["chain"]["factors"]] == list(range(1, p + 1))
        product = reconstruct(chain)
        assert product.valid_rows == n
        assert dense_rows(product) == dense_rows(J)


def test_transform_and_polys_commands(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli(tmp_path, "transform", config) == EXIT_OK
    transforms = read_report(tmp_path, "transform")["payload"]["transforms"]
    assert sorted(transforms) == ["0", "1", "2"]
    assert run_cli(tmp_path, "polys", config, "--j", "1") == EXIT_OK
    sequences = read_report(tmp_path, "polys")["payload"]["sequences"]
    assert list(sequences) == ["1"]
    out = capsys.readouterr().out
    assert "P_0 = 1" in out


# The `polys` stdout of three fixed configs, stage by stage: a random
# instance with fractional coefficients, an explicit integer matrix whose
# sequences have unit, negative and zero coefficients, and p = 4 at W = 1,
# where the chain needs p rows, more than the W + 1 that degree W reads.
_POLYS_STAGES = {
    "random": (
        """stage 0:
  P_0 = 1
  P_1 = z + 6
  P_2 = z^2 + 20/3*z + 17/4
  P_3 = z^3 + 44/3*z^2 + 703/12*z + 122/3
  P_4 = z^4 + 47/3*z^3 + 2645/36*z^2 + 2767/27*z + 469/9""",
        """stage 1:
  P_0 = 1
  P_1 = z + 19/2
  P_2 = z^2 + 564/85*z + 4031/1020
  P_3 = z^3 + 1097/84*z^2 + 68429/1428*z + 196009/5712
  P_4 = z^4 + 639613/40758*z^3 + 36102811/489096*z^2 + 152217431/1467288*z + 103713425/1956384""",
        """stage 2:
  P_0 = 1
  P_1 = z + 143/24
  P_2 = z^2 + 260/51*z - 3187/612
  P_3 = z^3 + 1755/122*z^2 + 120073/2196*z + 361175/13176
  P_4 = z^4 + 92411/5628*z^3 + 711427/8442*z^2 + 29071675/202608*z + 102625/1407""",
    ),
    "explicit": (
        """stage 0:
  P_0 = 1
  P_1 = z
  P_2 = z^2 + 1
  P_3 = z^3 + 2*z - 1
  P_4 = z^4 + 3*z^2 - 2*z + 1""",
        """stage 1:
  P_0 = 1
  P_1 = z + 18/5
  P_2 = z^2 + 5/14*z + 16/7
  P_3 = z^3 - 28/3*z^2 - 4/3*z - 67/3
  P_4 = z^4 - 3*z^3 + 31*z^2 + 2*z + 68""",
        """stage 2:
  P_0 = 1
  P_1 = z - 2
  P_2 = z^2 + 2/5*z + 11/5
  P_3 = z^3 - 6*z^2 - 15
  P_4 = z^4 + 18/13*z^3 + 61/13*z^2 + 2*z + 29/13""",
    ),
    "p4-w1": tuple(
        f"stage {j}:\n  P_0 = 1\n  P_1 = z + {c}"
        for j, c in enumerate(["6", "39/5", "48/7", "8/3", "143/24"])
    ),
}
_POLYS_CONFIGS = {
    "random": {"window": 4},
    "p4-w1": {"p": 4, "N": 8, "window": 1},
    "explicit": {
        "N": 12,
        "window": 4,
        "seed": 3,
        "C": "1/2",
        "matrix": {
            "source": "explicit",
            "bands": {"0": ["0"] * 12, "-1": ["-1"] * 11, "-2": ["1"] * 10},
        },
    },
}


@pytest.mark.parametrize("name", sorted(_POLYS_CONFIGS))
@pytest.mark.parametrize("j", [None, 2])
def test_polys_stdout_is_pinned(tmp_path, capsys, name, j):
    config = write_config(tmp_path, **_POLYS_CONFIGS[name])
    extra = () if j is None else ("--j", str(j))
    capsys.readouterr()
    assert run_cli(tmp_path, "polys", config, *extra) == EXIT_OK
    stages = _POLYS_STAGES[name] if j is None else _POLYS_STAGES[name][j:j + 1]
    report = tmp_path / "reports" / "polys.json"
    assert capsys.readouterr().out == "\n".join(stages) + f"\nreport: {report}\n"


def test_window_too_large_is_a_config_error(tmp_path, capsys):
    config = write_config(tmp_path, window=12)
    assert run_cli(tmp_path, "verify", config) == EXIT_CONFIG
    capsys.readouterr()


def test_cli_overrides_reach_the_run(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli(tmp_path, "verify", config, "--seed", "7", "--window", "6") == EXIT_OK
    payload = read_report(tmp_path, "verify")["payload"]
    assert payload["config"]["seed"] == 7
    assert payload["config"]["window"] == 6
    capsys.readouterr()


def test_missing_config_file_is_config_exit(tmp_path, capsys):
    assert run_cli(tmp_path, "gen", tmp_path / "absent.json") == EXIT_CONFIG
    capsys.readouterr()


def test_usage_errors_map_to_config_exit(tmp_path, capsys):
    assert main([]) == EXIT_CONFIG
    assert main(["frobnicate", "--config", "x.json"]) == EXIT_CONFIG
    assert main(["gen"]) == EXIT_CONFIG
    capsys.readouterr()


def test_bad_ladder_and_matrix_are_config_errors(tmp_path, capsys):
    config = write_config(tmp_path, nu={"source": "ladder", "lambda": [["1"], ["1"]]})
    assert run_cli(tmp_path, "gen", config) == EXIT_CONFIG
    config = write_config(
        tmp_path, matrix={"source": "explicit", "bands": {"0": ["1", "2"]}}
    )
    assert run_cli(tmp_path, "gen", config) == EXIT_CONFIG
    capsys.readouterr()


@pytest.mark.parametrize(
    "overrides, message",
    [
        ({"p": 0}, "p must be >= 1, got 0"),
        ({"window": 0}, "window must be >= 1, got 0"),
        ({"bound": 0}, "bound must be >= 1, got 0"),
        ({"retry_cap": -1}, "retry cap must be >= 0, got -1"),
        ({"N": 10}, "window 8 with p 2 needs N >= 11, got 10"),
        ({"N": 12}, "moment budget 13 exceeds N = 12; raise N or shrink the window"),
        ({"matrix": {"source": "dense"}}, "unknown matrix source 'dense'"),
        ({"nu": {"source": "moments"}}, "unknown nu source 'moments'"),
        (
            {"matrix": {"source": "explicit", "bands": {"0": [1.5]}}},
            "explicit matrix source needs bands: an object of rational lists",
        ),
        (
            {"nu": {"source": "ladder", "lambda": [["1"], "12"]}},
            "ladder nu source needs ladder rows: a list of rational lists",
        ),
        ({"nu": {"source": "ladder", "lambda": [["0"]]}}, "ladder has 1 rows, p is 2"),
        ({"report_dir": 5}, "report_dir must be a string, got 5"),
        ({"transform_index": 3}, "transform index 3 outside 0..2"),
    ],
    ids=[
        "p", "window", "bound", "retry-cap", "n-below-window", "budget-above-n",
        "matrix-source", "nu-source", "matrix-bands", "ladder-rows", "ladder-row-count",
        "report-dir", "transform-index",
    ],
)
def test_config_checks_name_their_field(tmp_path, capsys, overrides, message):
    # Each check of the config fails every command before anything is built:
    # exit 1, one error line, no report.
    config = write_config(tmp_path, **overrides)
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, config) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "document",
    [
        [{"p": 2, "N": 14, "window": 8}],
        {"p": 2, "N": 14, "window": 8, "nu": "random"},
        {"p": 2, "N": 14, "window": 8, "matrix": ["explicit"]},
    ],
    ids=["top-level", "nu", "matrix"],
)
def test_non_object_config_sections_are_config_errors(tmp_path, capsys, document):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    with pytest.raises(ConfigError):
        InstanceConfig.from_json_dict(document)
    assert run_cli(tmp_path, "gen", path) == EXIT_CONFIG
    assert run_cli(tmp_path, "verify", path, "--p", "2") == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["gen", "factorize", "transform", "polys", "verify"])
def test_values_beyond_int_str_limit_are_config_errors(tmp_path, capsys, command):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 1, "N": 4, "window": 1, "seed": 1, "bound": 10**2000}))
    assert run_cli(tmp_path, command, path) == EXIT_CONFIG
    assert "4300-digit" in capsys.readouterr().err


def test_config_literal_beyond_str_int_limit_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text('{"p": 1, "N": 4, "window": 1, "seed": 1, "bound": ' + "9" * 5000 + "}")
    assert run_cli(tmp_path, "gen", path) == EXIT_CONFIG
    assert "4300-digit" in capsys.readouterr().err


_BASE = {"p": 2, "N": 14, "window": 8, "seed": 42}


def _config_bytes(**sections) -> bytes:
    return json.dumps({**_BASE, **sections}).encode()


@pytest.mark.parametrize(
    "content",
    [
        b'{"p": 2, "N": 14, "window": 8, "C": "\xff"}',
        _config_bytes(matrix={"source": "explicit", "bands": [1, 2]}),
        _config_bytes(matrix={"source": "explicit", "bands": {"0": 5}}),
        _config_bytes(nu={"source": "ladder", "lambda": 5}),
        _config_bytes(nu={"source": "ladder", "lambda": [[None]]}),
        b"[" * 100_000 + b"]" * 100_000,
        _config_bytes(matrix={}).replace(b"{}", b"[" * 5_000 + b"]" * 5_000),
    ],
    ids=["not-utf8", "bands-list", "band-scalar", "ladder-scalar", "ladder-null",
         "deep-array", "deep-matrix"],
)
def test_malformed_config_shapes_are_config_errors(tmp_path, capsys, content):
    path = tmp_path / "config.json"
    path.write_bytes(content)
    assert run_cli(tmp_path, "verify", path) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "error:" in err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json", "Expecting value: line 1 column 1 (char 0)"),
        ('{"p": 2, "N": 14}', "malformed config: 'window'"),
    ],
    ids=["not-json", "missing-window"],
)
def test_config_not_json_or_without_a_field_is_a_config_error(tmp_path, capsys, text, message):
    # json's own error passes through _load_config and ends the run in main;
    # a missing field is named by InstanceConfig.from_json_dict.
    path = tmp_path / "config.json"
    path.write_text(text)
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, path) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "key, document",
    [
        ("p", {**_BASE, "p": 2.9}),
        ("window", {**_BASE, "window": 8.7}),
        ("require_hypotheses", {**_BASE, "nu": {"source": "random", "require_hypotheses": "false"}}),
        ("seed", {**_BASE, "seed": True}),
        ("N", {**_BASE, "N": "14"}),
    ],
    ids=["float-p", "float-window", "string-require-hypotheses", "bool-seed", "string-N"],
)
def test_config_fields_are_not_coerced(tmp_path, capsys, key, document):
    # int() and bool() would run these as p = 2, W = 8 and require_hypotheses
    # true; each field takes only its own JSON type.
    with pytest.raises(ConfigError, match=f'"{key}"'):
        InstanceConfig.from_json_dict(document)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    assert run_cli(tmp_path, "verify", path) == EXIT_CONFIG
    assert f'"{key}"' in capsys.readouterr().err
    assert not (tmp_path / "reports" / "verify.json").exists()


# Values that int() cannot turn into a large size, so no size the fuzzer
# picks can make a run slow.
_ODD_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-5, 5),
    st.sampled_from([float("inf"), float("-inf"), float("nan"), 1.5, -0.5]),
    st.text(alphabet="/-+. x_", max_size=6),
)
_ODD = st.recursive(
    _ODD_ATOMS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_RATIONALS = st.fractions(min_value=-9, max_value=9, max_denominator=9).map(str)
_SCALARS = st.one_of(_RATIONALS, st.integers(-5, 5), st.text(alphabet="0123456789/-", max_size=6))


@st.composite
def _configs(draw):
    """Mostly well-formed configs (N <= 40, window <= 8): each field is
    replaced by a malformed value about one time in twenty, and dropped
    about one time in thirty."""
    rng = draw(st.randoms(use_true_random=True))

    def field(valid):
        return draw(_ODD) if rng.random() < 0.05 else draw(valid)

    p = draw(st.integers(1, 4))
    window = draw(st.integers(1, 8))
    n = draw(st.integers(window + -(-window // p) + 1, 40))
    matrix = {"source": "random"}
    if rng.random() < 0.3:
        bands = {}
        for d in range(p + 1):
            values = [draw(_RATIONALS) for _ in range(n - d)]
            bands[str(-d)] = field(st.just(values) if rng.random() < 0.9 else st.lists(_SCALARS))
        matrix = {"source": "explicit", "bands": field(st.just(bands))}
    nu = {"source": draw(st.sampled_from(["random", "canonical", "ladder"]))}
    if nu["source"] == "ladder":
        ladder = [[draw(_RATIONALS) for _ in range(i)] for i in range(1, p + 1)]
        nu["lambda"] = field(st.just([field(st.just(row)) for row in ladder]))
    config = {
        "p": field(st.just(p)),
        "N": field(st.just(n)),
        "window": field(st.just(window)),
        "seed": field(st.integers(-10**6, 10**6)),
        "bound": field(st.sampled_from([1, 2, 9, 1000])),
        "C": field(_RATIONALS if rng.random() < 0.9 else _SCALARS),
        "matrix": field(st.just(matrix)),
        "nu": field(st.just(nu)),
        "retry_cap": field(st.integers(0, 40)),
        "transform_index": field(st.integers(0, p)),
        "report_dir": field(st.none()),
    }
    for key in list(config):
        if rng.random() < 0.03:
            del config[key]
    config.update(draw(st.dictionaries(st.text(max_size=4).filter(lambda k: k not in config), _ODD, max_size=2)))
    return field(st.just(config))


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["gen", "factorize", "transform", "polys", "verify"]),
    config=_configs(),
)
@example(command="verify", config={**_BASE, "matrix": {"source": "explicit", "bands": [1, 2]}})
@example(command="verify", config={**_BASE, "matrix": {"source": "explicit", "bands": {"0": 5}}})
@example(command="verify", config={**_BASE, "nu": {"source": "ladder", "lambda": 5}})
@example(command="verify", config={**_BASE, "nu": {"source": "ladder", "lambda": [[None]]}})
@example(command="gen", config={**_BASE, "p": float("inf")})
@example(command="gen", config={**_BASE, "report_dir": 5})
@example(command="gen", config={"p": 1, "N": 10**12, "window": 1})
@example(command="verify", config={"p": 1, "N": 10**12, "window": 1})
@example(command="transform", config={"p": 1, "N": 10**12, "window": 1})
def test_any_json_config_exits_with_a_documented_code(command, config):
    with tempfile.TemporaryDirectory() as tmp:
        path = f"{tmp}/config.json"
        with open(path, "w") as handle:
            json.dump(config, handle)
        code = main([command, "--config", path, "--report-dir", f"{tmp}/reports"])
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_HYPOTHESIS, EXIT_SINGULAR, EXIT_INTERNAL)


@pytest.mark.parametrize("n", [MAX_N + 1, 10**12])
def test_n_beyond_the_cap_is_rejected_before_anything_is_built(tmp_path, capsys, monkeypatch, n):
    document = {"p": 1, "N": n, "window": 1}
    with pytest.raises(ConfigError, match=f"N must be <= {MAX_N}"):
        InstanceConfig.from_json_dict(document)
    # validate rejects the config: no command reaches generate.
    monkeypatch.setattr(cli, "generate", None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err == f"error: N must be <= {MAX_N}, got {n}\n"
    assert not (tmp_path / "reports").exists()


def test_budget_cap_falls_with_p():
    # p >= 9 is unmeasured and takes p = 8's cap. Every cap admits the
    # benchmark's largest budget, 145.
    assert [max_budget(p) for p in range(1, 10)] == [900, 670, 517, 415, 350, 295, 250, 228, 228]
    assert max_budget(100) == 228


def test_n_at_the_cap_is_accepted():
    InstanceConfig.from_json_dict({"p": 1, "N": MAX_N, "window": 1}).validate()


@pytest.mark.parametrize("p", range(1, 10))
def test_budget_beyond_the_cap_is_rejected_before_anything_is_built(
    tmp_path, capsys, monkeypatch, p
):
    # The widest window within p's cap is accepted and the next is not;
    # validate rejects it, so no command reaches generate.
    cap = max_budget(p)
    window = max(w for w in range(1, cap) if moment_budget(w, p) <= cap)
    InstanceConfig.from_json_dict({"p": p, "N": MAX_N, "window": window}).validate()
    document = {"p": p, "N": MAX_N, "window": window + 1}
    message = (
        f"moment budget {moment_budget(window + 1, p)} exceeds {cap} at p = {p}; "
        "shrink the window"
    )
    with pytest.raises(ConfigError, match=message):
        InstanceConfig.from_json_dict(document)
    monkeypatch.setattr(cli, "generate", None)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, path) == EXIT_CONFIG
        assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("rows", [(2, 10), (10,)], ids=["rows-2-and-10", "row-10"])
def test_zero_in_band_minus_p_is_a_config_error(tmp_path, capsys, rows):
    # The J of seed 113 at p = 2 with a(r, r-2) = 0 at the given rows, with
    # C = 1 and a ladder nu. A zero in band -p leaves no vector of staircase
    # orthogonality, so every command stops before anything is built. The
    # peel would have met 0/0 at stage 1, row 2, where s = 0 fails at row 4
    # and s = 1 peels; it now reports that row rather than pick a value.
    J = generate(InstanceConfig(p=2, n=20, window=8, seed=113, bound=2)).instance.J
    bands = {key: list(band) for key, band in J.to_json_dict()["bands"].items()}
    for r in rows:
        bands["-2"][r - 2] = "0"
    ladder = [["1/2"], ["1", "1/2"]]
    path = write_config(
        tmp_path, N=20, C="1",
        matrix={"source": "explicit", "bands": bands}, nu={"source": "ladder", "lambda": ladder},
    )
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, path) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: explicit matrix has a zero in band -2 at row {rows[0]}: "
            "no vector of staircase orthogonality exists\n"
        )
        assert captured.out == ""
    assert not (tmp_path / "reports").exists()
    # The library still takes such a J, and its peel stops at the 0/0 row.
    if rows == (2, 10):
        J = BandedHessenberg.from_json_dict({"p": 2, "N": 20, "bands": bands})
        inst = ShiftedInstance(J, 1)
        ladder = LambdaLadder([[Fraction(1, 2)], [1, Fraction(1, 2)]])
        with pytest.raises(ZeroPeelPivot) as err:
            chain_from_instance(inst, engine._staging(ladder, 2).free_rows, inst.n)
        assert (err.value.stage, err.value.row) == (1, 2)
        assert str(err.value) == "zero peeling pivot at stage 1, row 2"  # 0 = s * 0


@pytest.mark.parametrize("key, band", [("1", ["2"]), ("x", []), ("-3", ["1"] * 11)])
def test_unknown_band_keys_are_config_errors(tmp_path, capsys, key, band):
    # The echo in every report lists the bands given, so none may be dropped.
    bands = {"0": ["2"] * 14, "-1": ["1"] * 13, "-2": ["1"] * 12, key: band}
    document = {**_BASE, "matrix": {"source": "explicit", "bands": bands}}
    with pytest.raises(ConfigError, match=f"unknown band key '{key}'"):
        InstanceConfig.from_json_dict(document)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(document))
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, path) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and repr(key) in err
    assert not (tmp_path / "reports").exists()
    del bands[key]
    path.write_text(json.dumps(document))
    assert run_cli(tmp_path, "gen", path) == EXIT_OK
    capsys.readouterr()


def _pinned_configs():
    """Small configs at p = 1..4 with each nu source and C = 1/3, and one
    that ends in a partial factorization."""
    configs = {}
    for p in range(1, 5):
        base = {"p": p, "N": 2 * p + 8, "window": 4, "seed": p}
        ladder = [[str(k + 1) for k in range(i)] for i in range(1, p + 1)]
        configs[f"p{p}-random"] = base
        configs[f"p{p}-canonical"] = {**base, "nu": {"source": "canonical"}}
        configs[f"p{p}-ladder"] = {**base, "nu": {"source": "ladder", "lambda": ladder}}
        configs[f"p{p}-C13"] = {**base, "C": "1/3"}
    # A vanishing stage-1 minor: verify reports a partial factorization.
    configs["partial"] = {
        "p": 3, "N": 16, "window": 8, "seed": 7,
        "nu": {"source": "ladder", "lambda": [["1"], ["1", "1"], ["0", "1", "1"]]},
    }
    return configs


_PINNED_CONFIGS = _pinned_configs()

# sha256 over "<command> <exit code>\n<payload>\n" for the five commands in
# order, <payload> being json.dumps(payload, indent=2, sort_keys=True), or
# empty when the command writes no report. The digests were recorded from an
# earlier version of the package, so they pin the bytes across versions.
_PINNED_DIGESTS = {
    "p1-random": "b9d02c26db168a189d4b0d762969cc1660cce34363f2e870fd87718ca9854325",
    "p1-canonical": "b73f33b3d8223938ef4112e4a05611d7e01560797e7cc1b731f1de7472330d55",
    "p1-ladder": "7f626a4f6618e0d98b797dd09180e945f05c62204b14e5072583062fc1c41c8e",
    "p1-C13": "0bd41f4a91a7909371fb72a527d631e1bcd4be4fd7d44bbe1a82dc60e1489369",
    "p2-random": "749001bdb46b20c3fbf8412ffacf1f4a417b7a6a7e6c96950888b1f728133d05",
    "p2-canonical": "c146dadaed3190a1e69f5f280c544efeab105b6c297ffea52408c2d0b885cc87",
    "p2-ladder": "f610738f6fce2ccd7dc7e35c65ed2e88268c5458795139771ad0927695410845",
    "p2-C13": "4cd5bf1c3ccdcdb751cc2288b1068ef82b42ab2abac48d28092c8d9265ca92b1",
    "p3-random": "3bc6bf63545ec7b51375d5f893a7298dca5f4297259223fe5c8377d4c580daa2",
    "p3-canonical": "82bad744c4b5b9c90c088d2610ae2ee8d831ab59bdc662f1035e8e829d126d1b",
    "p3-ladder": "4420f9ba908b97ca5cc8120c63fbf06bb8741a25639d998e5b023a7822c73669",
    "p3-C13": "24376be43b6e7037d303a59b7fd8ebe1c60d549c0a1cb08846a1f55ccbd71cf6",
    "p4-random": "88891cb5b331eb62dddeed2dc63e05664698381fef0f907bb959f8d507aecc5f",
    "p4-canonical": "f14a23a5b597af720d351c3ebc508dff3845ded52445ef0c5e7efa48100377e2",
    "p4-ladder": "682d30df498d59bf17bb7219c0f14e86dca862bab07f3da1bf25d6190da8842d",
    "p4-C13": "5576170ab1255b9c0347baea124c13ab041cf0f12a3c3e71d79e73d5f8ba282f",
    "partial": "30e3c294775dea00dcc9f685ced47a2383f55d441bf1473dc642678f7ed880b4",
}


@pytest.mark.parametrize("name", sorted(_PINNED_CONFIGS))
def test_payload_bytes_are_pinned(tmp_path, capsys, name):
    path = write_config(tmp_path, **_PINNED_CONFIGS[name])
    digest = hashlib.sha256()
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        code = run_cli(tmp_path, command, path)
        report = tmp_path / "reports" / f"{command}.json"
        payload = ""
        if report.exists():
            payload = json.dumps(json.loads(report.read_text())["payload"], indent=2, sort_keys=True)
            report.unlink()
        digest.update(f"{command} {code}\n{payload}\n".encode())
    capsys.readouterr()
    assert digest.hexdigest() == _PINNED_DIGESTS[name]


def test_report_dir_env_var_is_honored(tmp_path, capsys, monkeypatch):
    config = write_config(tmp_path)
    monkeypatch.setenv("BANDED_DARBOUX_REPORTS", str(tmp_path / "via_env"))
    assert main(["gen", "--config", str(config)]) == EXIT_OK
    assert (tmp_path / "via_env" / "gen.json").exists()
    capsys.readouterr()


# One instance of every library error class, with its documented exit code.
_DOCUMENTED_EXITS = {
    ConfigError("x"): EXIT_CONFIG,
    GenerationExhausted("x"): EXIT_CONFIG,
    BadFreeSpec("x"): EXIT_CONFIG,
    NotMonicOrDegreeGap("x"): EXIT_CONFIG,
    InsufficientMoments("x"): EXIT_CONFIG,
    DegreeExceedsMoments(3, 2): EXIT_CONFIG,
    HypothesisViolated(0, 1): EXIT_HYPOTHESIS,
    LadderViolation(1, 0): EXIT_HYPOTHESIS,
    SingularLeadingMinor(1): EXIT_SINGULAR,
    ZeroPeelPivot(1, 2): EXIT_SINGULAR,
    InternalCheckError("x"): EXIT_INTERNAL,
    ConsistencyFailure(1): EXIT_INTERNAL,
    ShapeMismatch("x"): EXIT_INTERNAL,
    SizeMismatch("x"): EXIT_INTERNAL,
    IndexOutOfRange("x"): EXIT_INTERNAL,
}


def _subclasses(klass):
    for sub in klass.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def test_exit_codes_are_total_over_library_errors():
    documented = {type(exc): code for exc, code in _DOCUMENTED_EXITS.items()}
    assert BandedDarbouxError.exit_code == EXIT_INTERNAL
    for klass in _subclasses(BandedDarbouxError):
        assert klass in documented, f"{klass.__name__} has no documented exit code"
        assert klass.exit_code == documented[klass], klass.__name__


@pytest.mark.parametrize("exc", list(_DOCUMENTED_EXITS), ids=lambda exc: type(exc).__name__)
def test_each_library_error_ends_the_run_with_its_exit_code(tmp_path, capsys, monkeypatch, exc):
    def fail(config):
        raise exc

    monkeypatch.setattr(cli, "generate", fail)
    config = write_config(tmp_path)
    for command in ("gen", "factorize", "transform", "polys", "verify"):
        assert run_cli(tmp_path, command, config) == _DOCUMENTED_EXITS[exc]
        captured = capsys.readouterr()
        assert captured.err == f"error: {exc}\n"
        assert captured.out == ""
        assert not (tmp_path / "reports").exists()


def test_config_validation_matches_direct_construction():
    with pytest.raises(ConfigError):
        InstanceConfig(p=2, n=10, window=8).validate()
    cfg = InstanceConfig(p=2, n=14, window=8, seed=5)
    cfg.validate()
    built_a = generate(cfg)
    built_b = generate(cfg)
    assert built_a.instance.J == built_b.instance.J
    assert built_a.staging == built_b.staging
    assert vector(built_a, cfg.moment_budget) == vector(built_b, cfg.moment_budget)


@pytest.mark.parametrize(
    "shift",
    ["1.5", "1e2", " 3 ", "1_000", "+2", "٣"],
    ids=["decimal", "exponent", "spaces", "underscore", "plus", "arabic-indic-digit"],
)
def test_shift_outside_the_wire_format_is_config_error(tmp_path, capsys, shift):
    config = write_config(tmp_path, C=shift)
    assert run_cli(tmp_path, "verify", config) == EXIT_CONFIG
    assert "bad shift" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["polys", "verify"])
@pytest.mark.parametrize(
    "p, seed, stage, row", [(2, 79, 1, 17), (3, 128, 2, 17)], ids=["p2-stage1", "p3-stage2"]
)
def test_peel_pivot_past_the_window_still_exits_3(tmp_path, capsys, command, p, seed, stage, row):
    # polys and verify compute the chain exactly on the leading W + 1 rows
    # only; the zero divisor at row 17 lies in the residue-checked tail.
    config = write_config(tmp_path, p=p, N=20, window=8, seed=seed, bound=1)
    assert run_cli(tmp_path, command, config) == EXIT_SINGULAR
    assert f"stage {stage}, row {row}" in capsys.readouterr().err


def test_verify_with_more_bands_than_window_rows(tmp_path, capsys):
    # At p = 5, W = 1 the moment budget (3) gives 4 duals, short of the p
    # the ladder needs: the config is rejected before generation.
    config = write_config(tmp_path, p=5, N=8, window=1)
    assert run_cli(tmp_path, "verify", config) == EXIT_CONFIG
    assert "fewer than p = 5" in capsys.readouterr().err
    # At W = 3 the budget suffices and the chain spans p = 5 > W + 1 rows,
    # enough for the transport checks' leading blocks.
    config = write_config(tmp_path, p=5, N=12, window=3, seed=0)
    assert run_cli(tmp_path, "verify", config) == EXIT_OK
    certificate = read_report(tmp_path, "verify")["payload"]["certificate"]
    assert certificate["passed"] and len(certificate["transport_checks"]) == 10
    capsys.readouterr()


def test_transform_of_one_index_matches_the_full_report(tmp_path, capsys):
    # All j come from one builder call (J(0) from the instance), one j from
    # a call that builds only the halves it reaches. Both must print the
    # same matrix.
    config = write_config(tmp_path, p=3, N=16, window=6)
    assert run_cli(tmp_path, "transform", config) == EXIT_OK
    full = read_report(tmp_path, "transform")["payload"]["transforms"]
    assert sorted(full) == ["0", "1", "2", "3"]
    for j in range(4):
        assert run_cli(tmp_path, "transform", config, "--j", str(j)) == EXIT_OK
        assert read_report(tmp_path, "transform")["payload"]["transforms"] == {str(j): full[str(j)]}
    capsys.readouterr()


def canonical(text):
    return json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n"


# The writer reads a report's lists and sections once, so the documents are
# drawn as pairs: the plain JSON value, and a function that builds a fresh
# copy of it in the writer's lazy forms.
def _same(value):
    return value


def _deferred(build, depth):
    """A section that resolves to build() after `depth` calls."""
    section = build
    for _ in range(depth - 1):
        section = partial(_same, section)
    return section


_LIST_FORMS = [
    list,
    tuple,
    iter,
    lambda items: (item for item in items),
    lambda items: map(_same, items),
]

_JSON_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(),
    # Long runs of one character, escaped or not, cross the write batches.
    st.builds(lambda c, k: c * k, st.characters(), st.integers(0, 30_000)),
).map(lambda value: (value, lambda: value))


def _lists(inner):
    def pair(items, form):
        return [plain for plain, _ in items], lambda: form([build() for _, build in items])

    return st.builds(pair, st.lists(inner, max_size=4), st.sampled_from(_LIST_FORMS))


def _dicts(inner):
    def pair(members):
        plain = {key: value for key, (value, _) in members.items()}
        return plain, lambda: {key: build() for key, (_, build) in members.items()}

    return st.builds(pair, st.dictionaries(st.text(max_size=4), inner, max_size=4))


def _sections(inner):
    def pair(item, depth):
        plain, build = item
        return plain, lambda: _deferred(build, depth)

    return st.builds(pair, inner, st.integers(1, 3))


_DOCUMENTS = st.recursive(
    _JSON_ATOMS,
    lambda inner: _lists(inner) | _dicts(inner) | _sections(inner),
    max_leaves=12,
)


@settings(max_examples=80, deadline=None)
@given(document=_DOCUMENTS)
@example(
    document=(
        {"10": [], "2": {}, "é\n": {"x": [1.5, None, True]}},
        lambda: {"10": lambda: [], "2": {}, "é\n": lambda: {"x": [1.5, None, True]}},
    )
)
@example(
    document=(
        {"b": [[], ["x", 2], {"k": []}], "a": [{"y": None}]},
        lambda: {
            "b": (item for item in [iter([]), map(_same, ["x", 2]), {"k": iter(())}]),
            "a": lambda: lambda: map(_same, [{"y": lambda: lambda: None}]),
        },
    )
)
def test_report_writer_matches_json_dumps_byte_for_byte(document):
    plain, build = document
    payload = build()
    with tempfile.TemporaryDirectory() as tmp:
        path = cli._write_report(Path(tmp) / "doc.json", payload, time.perf_counter())
        assert os.listdir(tmp) == ["doc.json"]
        with open(path, encoding="utf-8", newline="") as handle:
            text = handle.read()
    timings = json.loads(text)["timings"]
    assert list(timings) == ["total_s"]
    document = {"payload": plain, "timings": timings}
    assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"


def test_failed_report_write_removes_its_temp_file_and_keeps_the_old_report(tmp_path):
    old = tmp_path / "doc.json"
    old.write_text("old report\n")

    def unprintable():
        raise ConfigError("unprintable")

    # The first section fills several write batches before the second fails.
    payload = {"a": "x" * 300_000, "b": unprintable}
    with pytest.raises(ConfigError, match="unprintable"):
        cli._write_report(old, payload, time.perf_counter())
    assert os.listdir(tmp_path) == ["doc.json"]
    assert old.read_text() == "old report\n"


@pytest.mark.parametrize("value", [{3, 1, 2}, object()], ids=["set", "non-iterable"])
def test_report_writer_streams_only_iterators(tmp_path, value):
    # A set is iterable but has no order to write; an object is neither.
    # Both are refused as json.dumps refuses them, after the members that
    # sort before them are written, and leave no report or temp file.
    payload = {"a": "x" * 300_000, "b": [1, value]}
    with pytest.raises(TypeError, match="is not JSON serializable"):
        cli._write_report(tmp_path / "doc.json", payload, time.perf_counter())
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["gen", "factorize", "transform", "polys", "verify"])
def test_reports_are_canonical_json_and_leave_no_temp_file(tmp_path, capsys, command):
    config = write_config(tmp_path)
    assert run_cli(tmp_path, command, config) == EXIT_OK
    text = (tmp_path / "reports" / f"{command}.json").read_text()
    assert text == canonical(text)
    assert os.listdir(tmp_path / "reports") == [f"{command}.json"]
    assert capsys.readouterr().out.endswith(f"report: {tmp_path / 'reports' / command}.json\n")


def test_factorize_stdout_lists_the_reported_chain(tmp_path, capsys):
    config = write_config(tmp_path)
    assert run_cli(tmp_path, "factorize", config) == EXIT_OK
    chain = read_report(tmp_path, "factorize")["payload"]["chain"]
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "J - C*I = L(1)..L(2) * U with C = 0"
    assert lines[1] == "U diagonal: " + ", ".join(chain["U"]["diag"])
    assert lines[2:4] == [
        f"L({f['j']}) subdiagonal: " + ", ".join(f["sub"]) for f in chain["factors"]
    ]
    assert len(lines) == 5


def test_transform_at_p_10_sorts_the_transform_keys_as_strings(tmp_path, capsys):
    config = write_config(tmp_path, p=10, N=21, window=9, seed=1)
    assert run_cli(tmp_path, "transform", config) == EXIT_OK
    text = (tmp_path / "reports" / "transform.json").read_text()
    assert text == canonical(text)
    transforms = json.loads(text)["payload"]["transforms"]
    assert list(transforms) == ["0", "1", "10", "2", "3", "4", "5", "6", "7", "8", "9"]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(":")[0] for line in lines[:11]] == [f"J({j})" for j in range(11)]


@pytest.mark.parametrize("existing", [False, True], ids=["no-report", "old-report"])
@pytest.mark.parametrize("command", ["factorize", "transform"])
def test_unprintable_chain_writes_nothing(tmp_path, capsys, command, existing):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"p": 1, "N": 4, "window": 1, "seed": 1, "bound": 10**2000}))
    reports = tmp_path / "reports"
    old = reports / f"{command}.json"
    if existing:
        reports.mkdir()
        old.write_bytes(b'{"old": true}\n')
    assert run_cli(tmp_path, command, path) == EXIT_CONFIG
    assert "4300-digit" in capsys.readouterr().err
    if existing:
        assert os.listdir(reports) == [old.name]
        assert old.read_bytes() == b'{"old": true}\n'
    else:
        assert not reports.exists() or os.listdir(reports) == []


def _run_unprintable_transforms(tmp_path, capsys, monkeypatch):
    """Under a 640-digit limit, the p = 1, N = 100, bound 1000 chain prints
    but its J(1) does not. Runs factorize, then transform for all rotations
    and for --j 1; checks that the transforms print nothing to stdout, and
    returns their exit codes, their stderr, what they formatted and the
    windowed products they formed.

    `formatted` records each call of the chain's and J(j)'s to_json_dict
    (their layout) and each value their lazy lists format, through
    format_rational as bound in `banded`. The factorize run must record
    values, so an empty list is not for want of a hook."""
    config = write_config(tmp_path, p=1, N=100, window=8, seed=1, bound=1000)
    formatted, products = [], []
    for klass in (BidiagonalChain, BandedHessenberg):
        original = klass.to_json_dict
        monkeypatch.setattr(
            klass, "to_json_dict",
            lambda self, original=original: formatted.append(type(self)) or original(self),
        )
    format_value = banded.format_rational
    monkeypatch.setattr(
        banded, "format_rational", lambda v: formatted.append(v) or format_value(v)
    )
    multiply = factorization.multiply_window
    monkeypatch.setattr(
        factorization, "multiply_window",
        lambda a, b: products.append((a.n, b.n)) or multiply(a, b),
    )
    old = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(640)
        assert run_cli(tmp_path, "factorize", config) == EXIT_OK
        assert formatted.count(BidiagonalChain) == 1
        assert len(formatted) > 2 * 100  # the shift, 99 subdiagonal and 100 diagonal values
        formatted.clear()
        products.clear()
        capsys.readouterr()
        codes, errs = [], []
        for extra in ((), ("--j", "1")):
            codes.append(run_cli(tmp_path, "transform", config, *extra))
            captured = capsys.readouterr()
            assert captured.out == ""
            errs.append(captured.err)
    finally:
        sys.set_int_max_str_digits(old)
    return codes, errs, formatted, products


def _one_digit_limit_error(err):
    """Whether err is one `error: ` line naming the 640-digit limit."""
    return err.startswith("error: ") and err.count("\n") == 1 and "640-digit" in err


def test_transform_checks_every_rotation_before_formatting(tmp_path, capsys, monkeypatch):
    # J(1)'s last-row lowest-band entry already fails: transform must stop
    # before it forms J(1) or formats the chain or J(0).
    codes, errs, formatted, products = _run_unprintable_transforms(tmp_path, capsys, monkeypatch)
    assert codes == [EXIT_CONFIG, EXIT_CONFIG]
    assert formatted == []
    assert products == []
    assert all(_one_digit_limit_error(err) for err in errs)
    assert os.listdir(tmp_path / "reports") == ["factorize.json"]


def test_transform_full_check_still_rejects_a_rotation_the_last_row_passes(
    tmp_path, capsys, monkeypatch
):
    # With the last-row check blinded, the writer must still refuse the
    # formed J(1) while it writes J(1)'s section, after the chain's and
    # J(0)'s sections (only the chain's with --j 1): format_rational raises
    # on its first value too long to print, and the report is never renamed
    # into place.
    monkeypatch.setattr(cli, "last_row_lowest_entry", lambda chain, j: Fraction(0))
    old = tmp_path / "reports" / "transform.json"
    old.parent.mkdir()
    old.write_bytes(b'{"old": true}\n')
    codes, errs, formatted, products = _run_unprintable_transforms(tmp_path, capsys, monkeypatch)
    assert codes == [EXIT_CONFIG, EXIT_CONFIG]
    layouts = [x for x in formatted if isinstance(x, type)]
    assert layouts == [
        BidiagonalChain, BandedHessenberg, BandedHessenberg, BidiagonalChain, BandedHessenberg
    ]
    assert len(products) == 2  # J(1) was formed once per run, then refused
    assert all(_one_digit_limit_error(err) for err in errs)
    assert sorted(os.listdir(old.parent)) == ["factorize.json", "transform.json"]
    assert old.read_bytes() == b'{"old": true}\n'


# (p, N, window) of the configs whose transform reports are checked byte for
# byte: p = 1..4, and p = 10 and 11, where the writer asks for "10" (and
# "11") before "2".
_TRANSFORM_SHAPES = [(1, 20, 8), (2, 14, 8), (3, 14, 8), (4, 14, 8), (10, 21, 9), (11, 23, 9)]


@pytest.mark.parametrize("p, n, window", _TRANSFORM_SHAPES)
def test_transform_sections_match_the_chained_oracle_byte_for_byte(
    tmp_path, capsys, p, n, window
):
    # For all j and for each --j, every section is J(j) formed as one
    # left-to-right product of the reported chain; stdout lists each J(j)'s
    # valid rows in j order, then the report path.
    config = write_config(tmp_path, p=p, N=n, window=window, seed=1)
    path = tmp_path / "reports" / "transform.json"
    for js in [range(p + 1), *([j] for j in range(p + 1))]:
        extra = () if len(js) > 1 else ("--j", str(js[0]))
        capsys.readouterr()
        assert run_cli(tmp_path, "transform", config, *extra) == EXIT_OK
        text = path.read_text()
        document = json.loads(text)
        chain = read_chain(document["payload"]["chain"])
        rotations = {j: darboux_transform_chained(chain, j) for j in js}
        document["payload"]["transforms"] = {
            str(j): {"matrix": plain_json(hess.to_json_dict()), "valid_rows": hess.valid_rows}
            for j, hess in rotations.items()
        }
        assert text == json.dumps(document, indent=2, sort_keys=True) + "\n"
        assert capsys.readouterr().out.splitlines() == [
            f"J({j}): valid rows {hess.valid_rows} of {n}" for j, hess in rotations.items()
        ] + [f"report: {path}"]


@pytest.mark.parametrize("existing", [False, True], ids=["no-report", "old-report"])
def test_transform_rotation_unprintable_mid_stream_writes_nothing(
    tmp_path, capsys, monkeypatch, existing
):
    # J(2) holds a value too long to print, found only when the writer
    # formats it, after the chain, J(0) and J(1) are written to the
    # temporary file: the run must end as an early check would, with one
    # error: line, no stdout and no report.
    config = write_config(tmp_path, p=3, N=14, window=8, seed=1)
    reports = tmp_path / "reports"
    old = reports / "transform.json"
    if existing:
        reports.mkdir()
        old.write_bytes(b'{"old": true}\n')
    j2, written = [], []
    build = cli.darboux_transform
    too_long = Fraction(10) ** sys.get_int_max_str_digits()

    def rotations(chain, js):
        for j, hess in build(chain, js):
            if j == 2:
                # The last diagonal entry, which the writer reaches last.
                bands = {-d: hess.band(-d) for d in range(hess.p + 1)}
                bands[0] = (*bands[0][:-1], too_long)
                hess = BandedHessenberg(hess.p, hess.n, bands, hess.valid_rows)
                j2.append(hess)
            yield j, hess

    layout = BandedHessenberg.to_json_dict
    monkeypatch.setattr(cli, "darboux_transform", rotations)
    monkeypatch.setattr(
        BandedHessenberg, "to_json_dict", lambda self: written.append(self) or layout(self)
    )
    assert run_cli(tmp_path, "transform", config) == EXIT_CONFIG
    # J(0) and J(1) were written, and J(2) was being written.
    assert len(j2) == 1 and len(written) == 3 and written[2] is j2[0]
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert captured.err.startswith("error: ") and "int-to-str limit" in captured.err
    if existing:
        assert os.listdir(reports) == [old.name]
        assert old.read_bytes() == b'{"old": true}\n'
    else:
        assert not reports.exists() or os.listdir(reports) == []


def test_transform_holds_one_rotation_at_a_time(tmp_path):
    # The rotations stream: with all j, transform holds the heads S(j+1) a
    # later j needs, and one J(j) at a time, so its peak heap stays close to
    # that of --j 1. Holding every J(j) at once reads above 2.
    config = write_config(tmp_path, p=4, N=200, window=8, seed=1)

    def peak(*extra):
        tracemalloc.start()
        try:
            with redirect_stdout(_Discard()):
                assert run_cli(tmp_path, "transform", config, *extra) == EXIT_OK
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # Untraced, so that what a first run allocates once is counted in neither.
    with redirect_stdout(_Discard()):
        assert run_cli(tmp_path, "transform", config, "--j", "0") == EXIT_OK
    assert peak() / peak("--j", "1") < 1.55


def test_transform_peak_memory_is_under_twice_its_report(tmp_path, capsys):
    # The report is streamed one section at a time, so the peak is the
    # numbers plus one section, not the formatted document several times.
    config = write_config(tmp_path, p=3, N=200, window=8, seed=1)
    tracemalloc.start()
    try:
        code = run_cli(tmp_path, "transform", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < 2 * (tmp_path / "reports" / "transform.json").stat().st_size
    capsys.readouterr()


class _Discard(io.TextIOBase):
    """Stdout that keeps nothing, so a test sees the command's own memory."""

    def write(self, text):
        return len(text)


def test_factorize_peak_memory_is_under_its_report(tmp_path):
    # Each chain value is formatted once, as the writer reaches it, and its
    # stdout copy goes to a spool file: the peak is the numbers and the
    # value in hand, not the formatted chain.
    config = write_config(tmp_path, p=1, N=700, window=8, seed=1, bound=1000)
    tracemalloc.start()
    try:
        with redirect_stdout(_Discard()):
            code = run_cli(tmp_path, "factorize", config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == EXIT_OK
    assert peak < (tmp_path / "reports" / "factorize.json").stat().st_size


def _rebind(monkeypatch, original, replacement):
    """Point every package module global bound to `original` at
    `replacement`, for the rest of the test."""
    for name, module in list(sys.modules.items()):
        if name == "banded_darboux" or name.startswith("banded_darboux."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


def test_verify_builds_no_source_sequence(tmp_path, monkeypatch, capsys):
    # verify reads P_0 .. P_{p-1} of the source, for lambda_of, and the
    # rotated sequences; P_0 .. P_W of the source is for polys (and gen).
    config = write_config(tmp_path)
    sources, calls = [], []
    monkeypatch.setattr(cli, "generate", lambda cfg: sources.append(generate(cfg)) or sources[-1])
    original = banded.characteristic_polys
    _rebind(
        monkeypatch, original,
        lambda hess, nmax: calls.append((hess, nmax)) or original(hess, nmax),
    )
    assert run_cli(tmp_path, "verify", config) == EXIT_OK
    assert "verdict: pass" in capsys.readouterr().out
    [built] = sources
    assert [nmax for hess, nmax in calls if hess is built.instance.J] == [2]
    assert [nmax for hess, nmax in calls if hess is not built.instance.J] == [8, 8]


@pytest.mark.parametrize("command", ["gen", "factorize", "transform", "polys", "verify"])
def test_the_runner_generates_each_instance_once(tmp_path, monkeypatch, capsys, command):
    # The runner generates the instance and hands it to the command, which
    # generates none of its own.
    config = write_config(tmp_path)
    configs = []
    monkeypatch.setattr(cli, "generate", lambda cfg: configs.append(cfg) or generate(cfg))
    assert run_cli(tmp_path, command, config) == EXIT_OK
    assert len(configs) == 1
    assert configs[0].to_json_dict() == read_report(tmp_path, command)["payload"]["config"]
    capsys.readouterr()


def test_gen_never_holds_the_dual_table_and_the_source_sequence_together():
    # gen builds the duals to the moment budget B = 111 for nu, and the
    # sequence to the window W = 100. nu reads p dual columns, so the duals
    # go before P_0 .. P_W are built, and gen's heap peak stays near
    # dual_sequence's own; holding both reads about 1.35 times it. The
    # sequence's integer rows are small beside the dual table, so the
    # config takes a large p, where B is close to W.
    cfg = InstanceConfig(p=10, n=112, window=100, seed=1)
    J = generate(cfg).instance.J

    def heap_peak(fn, *args):
        tracemalloc.start()
        try:
            fn(*args)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # The run as the runner makes it: the instance is generated and passed.
    gen = heap_peak(lambda: cli.cmd_gen(cfg, generate(cfg), _Discard()))
    assert gen < 1.25 * heap_peak(functionals.dual_sequence, J, cfg.moment_budget)


@pytest.mark.parametrize("p, window", [(1, 8), (2, 5), (3, 12), (4, 1)])
def test_polys_builds_the_source_sequence_to_the_window(tmp_path, capsys, p, window):
    # Stage 0 of polys is P_0 .. P_W of the source; at W = 1, p = 4 it is
    # shorter than the P_0 .. P_{p-1} the ladder reads.
    n = max(moment_budget(window, p), window + p + 1)
    config = write_config(tmp_path, p=p, N=n, window=window, seed=p)
    assert run_cli(tmp_path, "polys", config, "--j", "0") == EXIT_OK
    capsys.readouterr()
    J = generate(InstanceConfig(p=p, n=n, window=window, seed=p)).instance.J
    expected = [
        [format_rational(c) for c in poly.coefficients]
        for poly in characteristic_polys_by_polynomials(J, window)
    ]
    assert read_report(tmp_path, "polys")["payload"]["sequences"] == {"0": expected}


def _run_bytes(tmp_path, capsys, command, config):
    """Exit code, stdout, stderr and report bytes up to `timings`."""
    code = run_cli(tmp_path, command, config)
    captured = capsys.readouterr()
    report = tmp_path / "reports" / f"{command}.json"
    data = report.read_bytes() if report.exists() else b""
    return code, captured.out, captured.err, data[: data.find(b',\n  "timings": ')]


@pytest.mark.parametrize("command", ["factorize", "transform", "polys"])
@pytest.mark.parametrize(
    "overrides",
    [{"p": 1, "N": 12, "window": 5}, {"p": 3, "N": 20, "window": 6, "seed": 2}, {"C": "1/3"}],
    ids=["p1", "p3", "p2-C13"],
)
def test_chain_commands_build_no_vector(tmp_path, monkeypatch, capsys, command, overrides):
    # The chain commands read J, C and the staged ladder: with the dual
    # functionals and nu stubbed to raise, each prints and reports the same.
    config = write_config(tmp_path, **overrides)
    expected = _run_bytes(tmp_path, capsys, command, config)
    assert expected[0] == EXIT_OK

    def unreachable(*args):
        raise AssertionError("a chain command built a table it does not read")

    _rebind(monkeypatch, functionals.dual_sequence, unreachable)
    _rebind(monkeypatch, functionals.build_nu, unreachable)
    assert _run_bytes(tmp_path, capsys, command, config) == expected


def _cli_subprocess(*args):
    """The CLI in its own process, stdout and stderr through pipes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    return subprocess.run(
        [sys.executable, "-m", "banded_darboux.cli", *args],
        capture_output=True, text=True, env=env, check=False,
    )


def test_factorize_and_transform_through_a_pipe(tmp_path):
    # stdout is a pipe here, not pytest's capture: factorize's stdout replays
    # its spool, and must list the chain its report holds.
    config = write_config(tmp_path, p=3, N=40, window=8, seed=2, bound=1000)
    reports = tmp_path / "reports"
    run = _cli_subprocess("factorize", "--config", str(config), "--report-dir", str(reports))
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    chain = json.loads((reports / "factorize.json").read_text())["payload"]["chain"]
    lines = run.stdout.splitlines()
    assert lines[1] == "U diagonal: " + ", ".join(chain["U"]["diag"])
    assert lines[2:5] == [
        f"L({f['j']}) subdiagonal: " + ", ".join(f["sub"]) for f in chain["factors"]
    ]
    assert lines[5:] == [f"report: {reports / 'factorize.json'}"]
    config = write_config(tmp_path, p=10, N=21, window=9, seed=1)
    run = _cli_subprocess("transform", "--config", str(config), "--report-dir", str(reports))
    assert (run.returncode, run.stderr) == (EXIT_OK, "")
    text = (reports / "transform.json").read_text()
    assert text == canonical(text)
    assert list(json.loads(text)["payload"]["transforms"]) == sorted(str(j) for j in range(11))
    assert sorted(os.listdir(reports)) == ["factorize.json", "transform.json"]
