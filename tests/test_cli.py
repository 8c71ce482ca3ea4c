"""Command-line interface: flags, files, exit codes, stderr contract."""

import ast
import contextlib
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import datafuse
from datafuse import FunctionalKind, cli
from datafuse.cli import main
from datafuse.model import _ARGS
from helpers import CSV_ODD_CELLS, csv_bytes, finite_float, fuzz_rng, pick

TAU_MEAN_Y = json.dumps({"functional": "mean", "args": {"column": "Y"}})


def _write_example(tmp_path, beta=1.0):
    """Four-observation dataset with an external estimate of E(X)."""
    internal = tmp_path / "internal.csv"
    internal.write_text("X,Y\n0.0,1.0\n1.0,2.0\n2.0,2.0\n3.0,5.0\n")
    summary = tmp_path / "summary.json"
    summary.write_text(
        json.dumps(
            {
                "beta": [beta],
                "sigma1": [[1.25]],
                "m": 4,
                "binding": [{"functional": "mean", "args": {"column": "X"}}],
                "source_id": "pilot",
            }
        )
    )
    return internal, summary


def _write_larger(tmp_path, beta=1000.0):
    """Twelve observations, enough for three-fold cross validation."""
    rng = np.random.default_rng(31)
    x = rng.standard_normal(12)
    y = 2.0 + x + 0.5 * rng.standard_normal(12)
    internal = tmp_path / "internal.csv"
    rows = ["X,Y"] + [f"{float(a)!r},{float(b)!r}" for a, b in zip(x, y)]
    internal.write_text("\n".join(rows) + "\n")
    summary = tmp_path / "summary.json"
    summary.write_text(
        json.dumps(
            {
                "beta": [beta],
                "sigma1": [[1.0]],
                "m": 50,
                "binding": [{"functional": "mean", "args": {"column": "X"}}],
                "source_id": "far-off",
            }
        )
    )
    return internal, summary


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _stderr_kind(err: str) -> str:
    return json.loads(err)["error"]["kind"]


# ---------------------------------------------------------------------------
# estimate


def test_estimate_eff_json(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    code, out, err = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y],
    )
    assert code == 0 and err == ""
    obj = json.loads(out)
    assert obj["method"] == "EFF"
    assert obj["estimate"] == pytest.approx([2.2], abs=1e-12)
    assert obj["se"] == pytest.approx([0.5809475019311126], abs=1e-12)
    np.testing.assert_allclose(obj["gain"], [[0.6]], atol=1e-12)
    assert obj["working_covariance"] is False
    assert obj["test"]["side"] == "upper" and obj["test"]["null"] == 0.0
    assert obj["test"]["z"] == pytest.approx([3.78691704962503], abs=1e-10)
    assert obj["ci"][0][0] < 2.2 < obj["ci"][0][1]


def test_estimate_int_and_crd(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    base = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y, "--method"]
    code, out, _ = _run(capsys, base + ["int"])
    assert code == 0
    assert json.loads(out)["estimate"] == pytest.approx([2.5], abs=1e-12)
    code, out, _ = _run(capsys, base + ["crd"])
    assert code == 0
    obj = json.loads(out)
    assert obj["estimate"] == pytest.approx([1.9], abs=1e-12)
    assert obj["se"] == pytest.approx([0.75], abs=1e-12)


def test_estimate_matching_summary_collapses_to_internal(tmp_path, capsys):
    # external estimate equal to the internal fit leaves the point estimate
    # at the internal value while the reported variance still shrinks
    internal, summary = _write_example(tmp_path, beta=1.5)
    code, out, _ = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["estimate"] == pytest.approx([2.5], abs=1e-12)
    assert obj["se"][0] < 0.75


@pytest.mark.parametrize(
    "spelling", ["tau-list-args", "summary-list-args", "tau-glm_marginal", "beta-option"]
)
def test_estimate_takes_one_spelling_of_each_input(tmp_path, capsys, spelling):
    # each was a second spelling of an input whose keyed form exits 0 on
    # these files: args as a list in the table's order, glm_marginal for
    # marginal_ols, and --beta for the summary's binding
    internal, summary = _write_example(tmp_path)
    tau = {"functional": "mean", "args": {"column": "Y"}}
    extra = []
    if spelling == "tau-list-args":
        tau["args"] = ["Y"]
    elif spelling == "summary-list-args":
        obj = json.loads(summary.read_text())
        obj["binding"] = [{"functional": "mean", "args": ["X"]}]
        summary.write_text(json.dumps(obj))
    elif spelling == "tau-glm_marginal":
        tau = {"functional": "glm_marginal", "args": {"outcome": "Y", "regressor": "X"}}
    else:
        extra = ["--beta", json.dumps([{"functional": "mean", "args": {"column": "X"}}])]
    code, out, err = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", json.dumps(tau), *extra],
    )
    assert code == 2 and out == "" and _assert_one_json_error(err) == "MalformedInput"


def test_estimate_table_format(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    code, out, _ = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y, "--format", "table"],
    )
    assert code == 0
    lines = out.splitlines()
    assert "method" in lines[0] and "estimate" in lines[0]
    assert lines[1].startswith("EFF") and "2.200000" in lines[1]


def test_estimate_out_file(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    target = tmp_path / "result.json"
    code, out, _ = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y, "--out", str(target)],
    )
    assert code == 0 and out == ""
    obj = json.loads(target.read_text())
    assert obj["estimate"] == pytest.approx([2.2], abs=1e-12)


def test_estimate_dbs_lambda_fixed(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    base = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y, "--method", "dbs", "--debias-config"]

    heavy = tmp_path / "heavy.json"
    heavy.write_text(json.dumps({"lambda_fixed": 1e6}))
    code, out, _ = _run(capsys, base + [str(heavy)])
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "DBS"
    assert obj["selection"]["selected"] == [0]
    assert obj["estimate"] == pytest.approx([2.2], abs=1e-12)

    none = tmp_path / "none.json"
    none.write_text(json.dumps({"lambda_fixed": 0.0}))
    code, out, _ = _run(capsys, base + [str(none)])
    assert code == 0
    obj = json.loads(out)
    assert obj["selection"]["selected"] == []
    assert obj["estimate"] == pytest.approx([2.5], abs=1e-12)
    assert any("empty selection" in w for w in obj["warnings"])


def test_estimate_dbs_discards_far_off_summary(tmp_path, capsys):
    internal, summary = _write_larger(tmp_path)
    code, out, _ = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y, "--method", "dbs", "--seed", "11"],
    )
    assert code == 0
    obj = json.loads(out)
    int_code, int_out, _ = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y, "--method", "int"],
    )
    assert int_code == 0
    assert obj["selection"]["selected"] == []
    assert obj["estimate"] == json.loads(int_out)["estimate"]
    assert any("empty selection" in w for w in obj["warnings"])
    assert len(obj["selection"]["cv_trace"]) == 10


def test_estimate_env_seed(tmp_path, capsys, monkeypatch):
    internal, summary = _write_larger(tmp_path)
    argv = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y, "--method", "dbs"]
    code, flagged, _ = _run(capsys, argv + ["--seed", "11"])
    assert code == 0
    monkeypatch.setenv("DATAFUSE_SEED", "11")
    code, from_env, _ = _run(capsys, argv)
    assert code == 0 and from_env == flagged

    monkeypatch.setenv("DATAFUSE_SEED", "eleven")
    code, _, err = _run(capsys, argv)
    assert code == 2 and _stderr_kind(err) == "MalformedInput"
    # explicit --seed wins, the broken variable is never parsed
    code, explicit, _ = _run(capsys, argv + ["--seed", "11"])
    assert code == 0 and explicit == flagged


def test_the_shared_parser_carries_no_state_between_calls(tmp_path, capsys):
    # main parses with one parser per process; each call, after calls with
    # other flags or an argv error, prints what a freshly built parser gives
    internal, summary = _write_example(tmp_path)
    other = tmp_path / "other.json"
    other.write_text(summary.read_text().replace('"beta": [1.0]', '"beta": [1.5]'))
    base = ["estimate", "--internal", str(internal), "--tau", TAU_MEAN_Y]
    two = base + ["--summary", str(summary), "--summary", str(other)]
    one = base + ["--summary", str(other)]
    calls = (two, one, base + ["--method", "nope"], one, two)
    shared = [_run(capsys, argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(_run(capsys, argv))
    assert shared == fresh
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert shared[0][1] != shared[1][1]


def test_estimate_ate_with_control_mean_summary(tmp_path, capsys):
    # treatment-effect target fused with an external control-arm outcome mean
    rng = np.random.default_rng(47)
    n = 60
    x = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(float)
    y = x + t + 0.5 * rng.standard_normal(n)
    internal = tmp_path / "trial.csv"
    rows = ["X,T,Y"] + [
        f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, t, y)
    ]
    internal.write_text("\n".join(rows) + "\n")
    summary = tmp_path / "registry.json"
    summary.write_text(
        json.dumps(
            {
                "beta": [0.1],
                "sigma1": [[1.2]],
                "m": 300,
                "binding": [
                    {
                        "functional": "mean",
                        "args": {"column": "Y", "where": {"column": "T", "equals": 0}},
                    }
                ],
                "source_id": "registry",
            }
        )
    )
    tau = json.dumps(
        {
            "functional": "aipw_ate",
            "args": {"outcome": "Y", "treatment": "T", "covariates": ["X"]},
        }
    )
    code, out, _ = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", tau],
    )
    assert code == 0
    obj = json.loads(out)
    assert obj["method"] == "EFF"
    assert len(obj["estimate"]) == 1 and obj["se"][0] > 0.0
    assert 0.0 <= obj["test"]["p"][0] <= 1.0
    assert abs(obj["estimate"][0] - 1.0) < 0.5


# ---------------------------------------------------------------------------
# simulate


def test_simulate_writes_tables(tmp_path, capsys):
    out_dir = tmp_path / "run"
    code, out, err = _run(
        capsys,
        ["simulate", "--scenario", "I", "--n", "150", "--m", "100",
         "--reps", "5", "--seed", "3", "--methods", "INT,EFF",
         "--out-dir", str(out_dir)],
    )
    assert code == 0
    assert "method" in out.splitlines()[0]
    assert "INT" in out and "EFF" in out
    assert "wrote" in err
    assert (out_dir / "metrics.csv").exists()
    assert (out_dir / "metrics_per_rep.csv").exists()
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert {r["method"] for r in rows} == {"INT", "EFF"}
    assert all(r["reps"] == "5" for r in rows)


def test_simulate_threads_do_not_change_files(tmp_path, capsys):
    texts = {}
    for threads in ("1", "3"):
        out_dir = tmp_path / f"t{threads}"
        code, _, _ = _run(
            capsys,
            ["simulate", "--scenario", "I", "--n", "120", "--m", "80",
             "--reps", "8", "--seed", "6", "--methods", "INT,EFF",
             "--out-dir", str(out_dir), "--threads", threads],
        )
        assert code == 0
        texts[threads] = (
            (out_dir / "metrics.csv").read_bytes(),
            (out_dir / "metrics_per_rep.csv").read_bytes(),
        )
    assert texts["1"] == texts["3"]


def test_simulate_config_files(tmp_path, capsys):
    cfg = {"scenario": "I", "n": 150, "m": 100, "reps": 4, "seed": 9,
           "methods": ["INT"]}
    json_path = tmp_path / "cfg.json"
    json_path.write_text(json.dumps(cfg))
    toml_path = tmp_path / "cfg.toml"
    toml_path.write_text(
        'scenario = "I"\nn = 150\nm = 100\nreps = 4\nseed = 9\nmethods = ["INT"]\n'
    )
    code, from_json, _ = _run(capsys, ["simulate", "--config", str(json_path)])
    assert code == 0
    code, from_toml, _ = _run(capsys, ["simulate", "--config", str(toml_path)])
    assert code == 0
    assert from_json == from_toml

    # command-line flags override the config file
    out_dir = tmp_path / "override"
    code, _, _ = _run(
        capsys,
        ["simulate", "--config", str(json_path), "--reps", "6",
         "--out-dir", str(out_dir)],
    )
    assert code == 0
    with open(out_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert all(r["reps"] == "6" for r in rows)


# ---------------------------------------------------------------------------
# failure contract


@pytest.mark.parametrize("flag", ["--n", "--m"])
def test_simulate_rejects_rows_no_array_can_hold(capsys, flag):
    # numpy ended this in a raw "array is too big" (exit 1); it is stopped
    # before anything is drawn
    argv = ["simulate", "--scenario", "I", flag, "9223372036854775807", "--reps", "2"]
    code, out, err = _run(capsys, argv)
    assert code == 2 and _stderr_kind(err) == "MalformedInput" and out == ""


def test_cli_exit_codes(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)

    code, _, err = _run(capsys, ["simulate", "--scenario", "I", "--reps", "0"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(capsys, ["simulate", "--reps", "5"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(capsys, ["simulate", "--scenario", "I", "--threads", "0"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(capsys, ["simulate", "--scenario", "II_biased", "--tau", "1,x"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(
        capsys,
        ["estimate", "--internal", str(internal),
         "--summary", str(tmp_path / "missing.json"), "--tau", TAU_MEAN_Y],
    )
    assert code == 2 and _stderr_kind(err) == "IoError"

    code, out, err = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", TAU_MEAN_Y, "--out", str(tmp_path)],
    )
    assert code == 2 and out == "" and _stderr_kind(err) == "IoError"

    bad_csv = tmp_path / "bad.csv"
    bad_csv.write_text("X,Y\n1.0,2.0\nout,4.0\n")
    code, _, err = _run(
        capsys,
        ["estimate", "--internal", str(bad_csv), "--summary", str(summary),
         "--tau", TAU_MEAN_Y],
    )
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", "nofile{"],
    )
    assert code == 2 and json.loads(err)["error"] == {
        "kind": "MalformedInput",
        "detail": "--tau value is neither JSON nor an existing file: 'nofile{'",
    }

    code, _, err = _run(capsys, ["estimate", "--frobnicate"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    # collinear design surfaces as a numerical failure
    dup_tau = json.dumps({"functional": "joint_ols",
                          "args": {"outcome": "Y", "regressors": ["X", "X"],
                                   "intercept": True}})
    code, _, err = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--tau", dup_tau],
    )
    assert code == 3 and _stderr_kind(err) == "RankDeficientDesign"


@pytest.mark.parametrize("option", ["--tau"])
def test_descriptor_path_that_cannot_be_read_is_an_io_error(tmp_path, capsys, option):
    # a directory, like any unreadable --summary or --config path; it used
    # to be MalformedInput ("cannot parse descriptor file")
    internal, summary = _write_example(tmp_path)
    argv = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y, option, str(tmp_path)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == "" and _assert_one_json_error(err) == "IoError"


def test_estimate_level_outside_unit_interval(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    for method, level in (("eff", "1.5"), ("int", "0"), ("crd", "-0.5")):
        code, out, err = _run(
            capsys,
            ["estimate", "--internal", str(internal), "--summary", str(summary),
             "--tau", TAU_MEAN_Y, "--method", method, "--level", level],
        )
        assert code == 2 and out == "" and _stderr_kind(err) == "MalformedInput"


def test_malformed_summary_fields_and_encodings(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    good = json.loads(summary.read_text())
    for field, value in (("beta", ["abc"]), ("sigma1", "x")):
        bad = tmp_path / f"bad_{field}.json"
        bad.write_text(json.dumps({**good, field: value}))
        code, out, err = _run(
            capsys,
            ["estimate", "--internal", str(internal), "--summary", str(bad),
             "--tau", TAU_MEAN_Y],
        )
        assert code == 2 and out == "" and _stderr_kind(err) == "MalformedInput"

    latin1_csv = tmp_path / "latin1.csv"
    latin1_csv.write_bytes("X,Y\n0.0,1.0\n1.0,2.0\n".encode("utf-8") + b"\xff,3.0\n")
    latin1_json = tmp_path / "latin1.json"
    latin1_json.write_bytes(summary.read_bytes().replace(b'"pilot"', b'"pil\xf6t"'))
    for data, summ in ((latin1_csv, summary), (internal, latin1_json)):
        code, out, err = _run(
            capsys,
            ["estimate", "--internal", str(data), "--summary", str(summ),
             "--tau", TAU_MEAN_Y],
        )
        assert code == 2 and out == "" and _stderr_kind(err) == "MalformedInput"


def test_simulate_singular_external_design_counts_as_failure(tmp_path, capsys):
    # with m=2 the external joint-OLS design of Scenario I has fewer rows than
    # columns: the replication fails with a typed error and the run aborts
    code, out, err = _run(
        capsys,
        ["simulate", "--scenario", "I", "--m", "2", "--reps", "20",
         "--out-dir", str(tmp_path / "run")],
    )
    assert code == 2 and out == "" and _stderr_kind(err) == "ExcessiveFailures"
    assert "scenario I external design" in json.loads(err)["error"]["detail"]


def test_simulate_size_beyond_the_index_type_exits_2(tmp_path, capsys):
    # numpy would refuse the array length before allocating; the run exited 1
    # with a raw ValueError traceback
    code, out, err = _run(
        capsys,
        ["simulate", "--scenario", "I", "--n", "100000000000000000000000000000",
         "--reps", "2", "--out-dir", str(tmp_path / "run")],
    )
    assert code == 2 and out == "" and _stderr_kind(err) == "MalformedInput"


_BAD_DEBIAS = [
    {"k": "3"}, {"k": 2.5}, {"alpha": "x"}, {"w": None}, {"lambda_fixed": "x"},
    {"grid_c": 5}, {"grid_c": ["a"]}, {"seed": "abc"},
]
_BAD_SCENARIO = [
    {"tau": "ab"}, {"level": "x"}, {"seed": "x"}, {"methods": 5}, {"debias": 5},
    {"out_dir": 5},
]


@pytest.mark.parametrize(
    "case",
    [("estimate-config", bad) for bad in _BAD_DEBIAS]
    + [("simulate-config", bad) for bad in _BAD_SCENARIO]
    + [("estimate-seed", None), ("simulate-seed", None), ("estimate-long-tau", None),
       ("estimate-latin1-tau-file", None)],
    ids=lambda case: f"{case[0]}-{json.dumps(case[1])}" if case[1] is not None else case[0],
)
def test_bad_config_values_and_seeds_exit_2(tmp_path, capsys, case):
    # each of these used to end in a raw TypeError/ValueError/OSError or
    # UnicodeDecodeError traceback (exit 1), or for "k": 2.5 in a silent
    # 2-fold run
    kind, bad = case
    internal, summary = _write_larger(tmp_path)
    estimate = ["estimate", "--internal", str(internal), "--summary", str(summary),
                "--tau", TAU_MEAN_Y, "--method", "dbs"]
    simulate = ["simulate", "--scenario", "I", "--n", "50", "--m", "50", "--reps", "2"]
    config = tmp_path / "config.json"
    if kind == "estimate-config":
        config.write_text(json.dumps(bad))
        argv = estimate + ["--debias-config", str(config)]
    elif kind == "simulate-config":
        config.write_text(json.dumps({"scenario": "I", "n": 50, "m": 50, "reps": 2, **bad}))
        argv = ["simulate", "--config", str(config)]
    elif kind == "estimate-seed":
        argv = estimate + ["--seed", "-1"]
    elif kind == "simulate-seed":
        argv = simulate + ["--seed", "-1"]
    else:
        tau = "x" * 5000
        if kind == "estimate-latin1-tau-file":
            tau = tmp_path / "tau.json"
            tau.write_bytes(TAU_MEAN_Y.replace("Y", "Y\xf6").encode("latin-1"))
        argv = ["estimate", "--internal", str(internal), "--summary", str(summary),
                "--tau", str(tau)]
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _stderr_kind(err) == "MalformedInput"


# Every fuzz strategy below takes all its choices and values from one
# seeded numpy generator (helpers.fuzz_rng), each drawn about as often as its
# stated share.
_FUZZ_NAMES = ("Y", "X", "T", "Y", "X", "T", "missing")


def _fuzz_name(rng):
    return pick(rng, _FUZZ_NAMES)


def _fuzz_value(rng, depth=0):
    """Any JSON value: null, a bool, an integer in [-2, 3], a float in
    [-3, 3] or a column name, or up to two levels of lists of up to 3 and
    objects of up to 2 keys (column, equals, other) of such values."""
    kind = rng.integers(7 if depth < 2 else 5)
    if kind == 0:
        return None
    if kind == 1:
        return bool(rng.integers(2))
    if kind == 2:
        return int(rng.integers(-2, 4))
    if kind == 3:
        return pick(rng, (0.0, -0.0, 3.0, -3.0, float(rng.uniform(-3.0, 3.0))))
    if kind == 4:
        return _fuzz_name(rng)
    if kind == 5:
        return [_fuzz_value(rng, depth + 1) for _ in range(rng.integers(4))]
    keys = rng.permutation(["column", "equals", "other"])[: rng.integers(3)]
    return {str(key): _fuzz_value(rng, depth + 1) for key in keys}


def _fuzz_names(rng):
    return [_fuzz_name(rng) for _ in range(rng.integers(1, 3))]


# a value of the right type for each argument name (a column name otherwise)
_FUZZ_TYPED = {
    "regressors": _fuzz_names,
    "covariates": _fuzz_names,
    "where": lambda rng: {"column": _fuzz_name(rng), "equals": pick(rng, (0, 1, 0.5))},
    "intercept": lambda rng: bool(rng.integers(2)),
}


def _random_tau(rng):
    """A --tau descriptor object: a kind (or an unknown one), args keyed by
    name (a list of the values now and then) of about the right count, each
    mostly of the right type and otherwise any JSON value, maybe a component
    and maybe a stray key."""
    kind = pick(rng, [k.value for k in FunctionalKind] + ["spline"])
    required, spec = _ARGS[FunctionalKind(kind)] if kind != "spline" else (0, ())
    names = [n for n, _ in spec] + ["junk"]
    if rng.random() < 0.8:
        count = rng.integers(required, len(spec) + 1)
    else:
        count = rng.integers(max(required - 1, 0), len(names) + 1)
    values = [
        _FUZZ_TYPED.get(name, _fuzz_name)(rng) if rng.random() < 0.9 else _fuzz_value(rng)
        for name in names[:count]
    ]
    args = values if rng.random() < 0.05 else dict(zip(names, values))
    obj = {"functional": kind, "args": args}
    if rng.random() < 1 / 3:
        obj["component"] = int(rng.integers(-1, 3)) if rng.random() < 0.8 else _fuzz_value(rng)
    if rng.random() < 0.1:
        obj["extra"] = 1
    return obj


@st.composite
def _fuzz_tau(draw):
    """_random_tau as a hypothesis strategy."""
    return _random_tau(fuzz_rng(draw))


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    rng = np.random.default_rng(3)
    x = rng.standard_normal(16)
    t = np.tile([0.0, 1.0], 8)
    y = 1.0 + x + 0.5 * t + rng.standard_normal(16)
    internal = root / "internal.csv"
    rows = ["X,T,Y"] + [f"{float(a)!r},{float(b)!r},{float(c)!r}" for a, b, c in zip(x, t, y)]
    internal.write_text("\n".join(rows) + "\n")
    summary = root / "summary.json"
    summary.write_text(json.dumps({
        "beta": [0.1], "sigma1": [[1.0]], "m": 40,
        "binding": [{"functional": "mean", "args": {"column": "X"}}],
    }))
    return str(internal), str(summary)


@settings(max_examples=150, deadline=None)
@given(tau=_fuzz_tau(), method=st.sampled_from(["int", "eff", "crd", "dbs"]))
def test_estimate_fuzzed_tau_exits_0_2_or_3(fuzz_files, tau, method):
    # every --tau gives a result (one coefficient when a component is set) or
    # a typed error: exit 2 or 3, nothing on stdout, one JSON error on stderr.
    # Args that are a list, not keyed by name, exit 2
    internal, summary = fuzz_files
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--internal", internal, "--summary", summary,
                     "--tau", json.dumps(tau), "--method", method])
    assert code in ((2,) if isinstance(tau["args"], list) else (0, 2, 3))
    if code == 0:
        result = json.loads(out.getvalue())
        if tau.get("component") is not None:
            assert len(result["estimate"]) == 1
    else:
        assert out.getvalue() == ""
        payload = json.loads(err.getvalue())
        assert list(payload) == ["error"] and set(payload["error"]) == {"kind", "detail"}


@st.composite
def _fuzz_internal(draw):
    """Bytes of an --internal CSV with columns X, T, Y: up to 24 rows of
    mostly usable data (T mostly 0/1, values sometimes extreme or odd), or
    one of the malformed files of helpers.csv_bytes."""
    rng = fuzz_rng(draw)
    if rng.random() < 1 / 3:
        return csv_bytes(rng, names=("X", "T", "Y"))

    def value():
        kind = rng.integers(3)
        if kind == 0:
            return repr(float(rng.uniform(-10.0, 10.0)))
        if kind == 1:
            return repr(finite_float(rng))
        return repr(pick(rng, (0.0, 1.0, 1e-300, 1e300)))

    usable_arms = rng.random() < 0.8
    arm = (lambda: pick(rng, ("0", "1", "0.0", "1.0"))) if usable_arms else value
    rows = [[value(), arm(), value()] for _ in range(rng.integers(0, 25))]
    if rows and rng.random() < 0.5:
        rows[rng.integers(len(rows))][rng.integers(3)] = pick(rng, CSV_ODD_CELLS)
    eol = pick(rng, ("\n", "\r\n"))
    return (eol.join(["X,T,Y"] + [",".join(r) for r in rows]) + eol).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(
    raw=_fuzz_internal(),
    tau=st.sampled_from([
        {"functional": "aipw_ate", "args": {"outcome": "Y", "treatment": "T", "covariates": ["X"]}},
        {"functional": "mean", "args": {"column": "Y"}},
        {"functional": "joint_ols", "args": {"outcome": "Y", "regressors": ["X", "T"]}},
    ]),
    method=st.sampled_from(["int", "eff", "dbs"]),
)
def test_estimate_fuzzed_internal_exits_0_2_or_3(fuzz_files, tmp_path_factory, raw, tau, method):
    # every --internal file gives a result or a typed error: exit 2 or 3,
    # nothing on stdout, one JSON error on stderr
    _, summary = fuzz_files
    internal = tmp_path_factory.getbasetemp() / "fuzz_internal.csv"
    internal.write_bytes(raw)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--internal", str(internal), "--summary", summary,
                     "--tau", json.dumps(tau), "--method", method])
    assert code in (0, 2, 3)
    if code == 0:
        json.loads(out.getvalue())
    else:
        assert out.getvalue() == ""
        payload = json.loads(err.getvalue())
        assert list(payload) == ["error"] and set(payload["error"]) == {"kind", "detail"}


def _strict_json(text: str):
    """`text` parsed as standard JSON: NaN and Infinity tokens are refused."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def _assert_one_json_error(err: str):
    lines = err.splitlines()
    assert len(lines) == 1, err
    payload = json.loads(lines[0])
    assert list(payload) == ["error"] and set(payload["error"]) == {"kind", "detail"}
    return payload["error"]["kind"]


def _fuzz_number(rng):
    """A float in [-3, 3], an integer in [-2, 5], a tiny, huge or non-finite
    float, or an integer beyond the float range."""
    kind = rng.integers(3)
    if kind == 0:
        return float(rng.uniform(-3.0, 3.0))
    if kind == 1:
        return int(rng.integers(-2, 6))
    return pick(rng, (0.0, 1e-300, 1e300, -1e300, float("nan"), float("inf"), 10**400))


# characters of a source_id: ASCII, quotes and escapes, controls, non-ASCII
_FUZZ_CHARS = "aZ0 _-\"\\\x00\n\x7f\xe9\u2003\u4e2d\U0001f600"


# (descriptor, width)
_FUZZ_BINDINGS = (
    ({"functional": "mean", "args": {"column": "X"}}, 1),
    ({"functional": "mean", "args": {"column": "Y", "where": {"column": "T", "equals": 1}}}, 1),
    ({"functional": "marginal_ols", "args": {"outcome": "Y", "regressor": "X"}}, 1),
    ({"functional": "joint_ols", "args": {"outcome": "Y", "regressors": ["X"]}}, 2),
    ({"functional": "joint_ols", "args": {"outcome": "Y", "regressors": ["X", "T"]},
      "component": 2}, 1),
    ({"functional": "aipw_ate", "args": {"outcome": "Y", "treatment": "T", "covariates": ["X"]}},
     1),
)


@st.composite
def _fuzz_summary(draw):
    """Text of a --summary file: mostly an object with beta, sigma1, m and a
    binding of matching sizes, each field sometimes of the wrong size, type
    or value (NaN, infinite, huge, not positive definite), a key missing or
    a stray one; sometimes JSON that is not an object, or not JSON."""
    rng = fuzz_rng(draw)
    if rng.random() < 0.1:
        return pick(rng, ["[]", '"summary"', "3", "null", "", "{", '{"m": 4,}'])
    binding, q = [], 0
    for _ in range(rng.integers(1, 3)):
        if rng.random() < 0.2:
            binding.append(_random_tau(rng))
            q += 1
        else:
            desc, width = pick(rng, _FUZZ_BINDINGS)
            binding.append(desc)
            q += width
    if rng.random() < 0.1:
        q = max(q + int(rng.choice([-1, 1, 2])), 0)
    odd_numbers = rng.random() < 0.2

    def numbers(size):
        if odd_numbers:
            return [_fuzz_number(rng) for _ in range(size)]
        return rng.uniform(-3.0, 3.0, size).tolist()

    beta = numbers(q)
    if rng.random() < 0.7:
        # positive definite but for odd numbers: a dominant diagonal
        noise = np.reshape(numbers(q * q), (q, q))
        try:
            sigma1 = (np.eye(q) * rng.uniform(0.1, 5.0) + 0.05 * (noise + noise.T)).tolist()
        except OverflowError:  # an integer beyond the float range: the numbers as drawn
            sigma1 = noise.tolist()
    else:
        sigma1 = [numbers(q) for _ in range(q)]
    bad_m = [0, -3, 2.5, "40", True, None, 10**30, 10**400, [40]]
    obj = {
        "beta": beta,
        "sigma1": sigma1,
        "m": int(rng.integers(1, 200)) if rng.random() < 0.8 else pick(rng, bad_m),
        "binding": binding,
    }
    for key in ("beta", "sigma1", "binding"):
        if rng.random() < 0.05:
            obj[key] = _fuzz_value(rng)
    if rng.random() < 0.5:
        if rng.random() < 0.8:
            obj["source_id"] = "".join(pick(rng, _FUZZ_CHARS) for _ in range(rng.integers(4)))
        else:
            obj["source_id"] = _fuzz_value(rng)
    if rng.random() < 0.05:
        del obj[pick(rng, sorted(obj))]
    if rng.random() < 0.05:
        obj["extra"] = 1
    return json.dumps(obj)


@settings(max_examples=150, deadline=None)
@given(
    text=_fuzz_summary(),
    tau=st.sampled_from([
        {"functional": "mean", "args": {"column": "Y"}},
        {"functional": "joint_ols", "args": {"outcome": "Y", "regressors": ["X", "T"]}},
    ]),
    method=st.sampled_from(["int", "eff", "crd", "dbs"]),
)
def test_estimate_fuzzed_summary_exits_0_2_or_3(fuzz_files, tmp_path_factory, text, tau, method):
    # every --summary file gives a result as standard JSON or a typed error:
    # exit 2 or 3, nothing on stdout, one JSON error line on stderr
    internal, _ = fuzz_files
    summary = tmp_path_factory.getbasetemp() / "fuzz_summary.json"
    summary.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--internal", internal, "--summary", str(summary),
                     "--tau", json.dumps(tau), "--method", method])
    assert code in (0, 2, 3)
    if code == 0:
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == ""
        _assert_one_json_error(err.getvalue())

def _python_process(args):
    """`python args` in a fresh interpreter that imports this datafuse,
    warnings shown as Python shows them by default."""
    src = str(Path(datafuse.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def _cli_process(argv):
    """`python -m datafuse.cli argv` in a fresh interpreter."""
    return _python_process(["-m", "datafuse.cli", *argv])


def test_warnings_reach_stderr_only_when_the_command_succeeds(tmp_path):
    tau = TAU_MEAN_Y
    # the mean of Y overflows (a numpy RuntimeWarning), then the fit is rejected
    internal = tmp_path / "overflow.csv"
    internal.write_text("X,Y\n0.0,1e+300\n1.0,1.797693124862316e+308\n")
    _, summary = _write_example(tmp_path)
    failed = _cli_process(["estimate", "--internal", str(internal), "--summary", str(summary),
                           "--tau", tau, "--method", "int"])
    assert failed.returncode == 2 and failed.stdout == ""
    assert _assert_one_json_error(failed.stderr) == "NonFiniteValue"
    # two copies of one summary column: CRD's gram is singular, gets a ridge
    # and warns; the warning is shown as Python shows it
    internal = tmp_path / "twin.csv"
    internal.write_text("X,X2,Y\n0.0,0.0,1.0\n1.0,1.0,2.0\n2.0,2.0,2.0\n3.0,3.0,5.0\n")
    summary = tmp_path / "twin.json"
    summary.write_text(json.dumps({
        "beta": [1.0, 1.0], "sigma1": [[1.0, 0.0], [0.0, 1.0]], "m": 4,
        "binding": [{"functional": "mean", "args": {"column": col}} for col in ("X", "X2")],
    }))
    done = _cli_process(["estimate", "--internal", str(internal), "--summary", str(summary),
                         "--tau", tau, "--method", "crd"])
    assert done.returncode == 0
    _strict_json(done.stdout)
    linalg = Path(datafuse.__file__).resolve().parent / "_linalg.py"
    assert done.stderr.startswith(f"{linalg}:")
    assert "UserWarning: ill-conditioned system (gram): added ridge" in done.stderr
    assert done.stderr.endswith("  warnings.warn(msg)\n")


# Run in a fresh interpreter: the scipy modules loaded after importing the
# CLI and after each named command.
_SCIPY_LOADED = """
import contextlib, io, json, sys

def loaded():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

from datafuse import cli
stages = {"import": loaded()}
for stage, argv in json.loads(sys.argv[1]).items():
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    stages[stage] = loaded() if code == 0 else f"exit {code}"
print(json.dumps(stages))
"""


def test_commands_load_no_scipy(tmp_path):
    # importing scipy.linalg.lapack and scipy.special once cost every command
    # about two thirds of its start-up CPU; scipy is now a test dependency
    rng = np.random.default_rng(5)
    x = rng.standard_normal(1000)
    y = 1.0 + x + rng.standard_normal(1000)
    internal = tmp_path / "internal.csv"
    internal.write_text("X,Y\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(x, y)))
    _, summary = _write_example(tmp_path, beta=0.0)
    commands = {
        "estimate dbs": ["estimate", "--internal", str(internal), "--summary", str(summary),
                         "--tau", TAU_MEAN_Y, "--method", "dbs"],
        **{f"simulate {scenario}": ["simulate", "--scenario", scenario, "--n", "200",
                                    "--m", "400", "--reps", "2"]
           for scenario in ("I", "II_biased")},
    }
    done = _python_process(["-c", _SCIPY_LOADED, json.dumps(commands)])
    assert done.returncode == 0, done.stderr
    stages = json.loads(done.stdout)
    assert stages == {stage: [] for stage in ("import", *commands)}


def test_no_library_module_imports_scipy():
    package = Path(datafuse.__file__).resolve().parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert not [n for n in names if n.split(".")[0] == "scipy"], (path.name, node.lineno)


def test_simulate_one_replication_says_its_mc_errors_are_undefined(tmp_path):
    # one replication has no sample deviation: the NaN columns are named in
    # one warning, with none of numpy's degrees-of-freedom warnings
    done = _cli_process(["simulate", "--scenario", "I", "--n", "50", "--m", "50",
                         "--reps", "1", "--methods", "INT", "--out-dir", str(tmp_path)])
    assert done.returncode == 0
    assert "RuntimeWarning" not in done.stderr
    assert "one replication: mc_se_bias, mc_se_rmse and mc_se_ase" in done.stderr
    with open(tmp_path / "metrics.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    nan = {key for key, value in row.items() if value == "nan"}
    assert nan == {"mc_se_bias", "mc_se_rmse", "mc_se_ase"}

def test_simulate_that_cannot_write_its_tables_prints_no_table(tmp_path, capsys):
    # the table used to reach stdout before the out-dir was made
    blocker = tmp_path / "file"
    blocker.write_text("")
    code, out, err = _run(
        capsys,
        ["simulate", "--scenario", "I", "--n", "150", "--m", "100", "--reps", "3",
         "--methods", "INT", "--out-dir", str(blocker / "run")],
    )
    assert code == 2 and out == ""
    assert _assert_one_json_error(err) == "IoError"
    # the out-dir is made first, and its failure is named as such
    assert json.loads(err)["error"]["detail"].startswith(f"cannot create {blocker / 'run'}: ")


@pytest.mark.parametrize(
    "option",
    [["--null", "nan"], ["--null", "inf"], ["--null=-inf"],
     {"lambda_fixed": float("inf")}, {"grid_c": [1.0, float("inf")]},
     {"alpha": float("inf")}, {"w": float("nan")}],
    ids=lambda option: json.dumps(option),
)
def test_non_finite_numeric_options_exit_2(tmp_path, capsys, option):
    # each of these used to exit 0 and print NaN or Infinity into the JSON
    internal, summary = _write_larger(tmp_path)
    argv = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y, "--method", "dbs"]
    if isinstance(option, dict):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(option))
        option = ["--debias-config", str(config)]
    code, out, err = _run(capsys, argv + option)
    assert code == 2 and out == ""
    assert _assert_one_json_error(err) == "MalformedInput"


_CONFIG_ANY = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e308, 5e-324]),
    st.booleans(),
    st.none(),
    st.text(max_size=3),
)
# a value of about the admissible range for each key
_CONFIG_TYPED = {
    "alpha": st.floats(0.5, 4.0) | st.integers(1, 4),
    "w": st.floats(0.5, 1.5) | st.just(1),
    "grid_c": st.lists(st.floats(0.01, 100.0) | st.integers(1, 50), min_size=1, max_size=4),
    "k": st.integers(2, 20),
    "seed": st.integers(0, 2**64),
    "lambda_fixed": st.floats(0.0, 10.0) | st.none(),
}


@st.composite
def _fuzz_debias_config(draw):
    """A --debias-config object: some of the known keys, each mostly of about
    the admissible range and otherwise any JSON scalar or a list of them
    (NaN and Infinity included), maybe with an unknown key."""
    keys = draw(st.lists(st.sampled_from(sorted(_CONFIG_TYPED)), max_size=4, unique=True))
    anything = _CONFIG_ANY | st.lists(_CONFIG_ANY, max_size=3)
    config = {k: draw(_CONFIG_TYPED[k] if draw(st.integers(0, 3)) else anything) for k in keys}
    if draw(st.integers(0, 9)) == 0:
        config["gamma"] = draw(anything)
    return config


@settings(max_examples=150, deadline=None)
@given(config=_fuzz_debias_config())
def test_estimate_fuzzed_debias_config_exits_0_2_or_3(fuzz_files, tmp_path_factory, config):
    # every --debias-config gives a result in standard JSON or a typed error:
    # exit 2 or 3, nothing on stdout, one JSON error on stderr
    internal, summary = fuzz_files
    path = tmp_path_factory.getbasetemp() / "fuzz_debias.json"
    path.write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--internal", internal, "--summary", summary,
                     "--tau", TAU_MEAN_Y, "--method", "dbs", "--debias-config", str(path)])
    assert code in (0, 2, 3)
    if code == 0:
        _strict_json(out.getvalue())
    else:
        assert out.getvalue() == ""
        _assert_one_json_error(err.getvalue())


# a value of about the admissible range for each simulate config key, kept
# small so a run takes milliseconds; scenario, n, m and reps are always set
# (the defaults are 1000 replications of n = m = 1000)
_SIM_TYPED = {
    "scenario": lambda rng: pick(rng, ("I", "II_biased", "II_unbiased")),
    "n": lambda rng: int(rng.integers(1, 61)),
    "m": lambda rng: int(rng.integers(1, 61)),
    "reps": lambda rng: int(rng.integers(1, 4)),
    "seed": lambda rng: pick(rng, (0, 2**64 - 1, int(rng.integers(0, 2**63)))),
    "methods": lambda rng: [
        pick(rng, ("INT", "CRD", "EFF", "KNW", "ORC", "DBS", "INT", "EFF", "DBS", "IVW", "XYZ"))
        for _ in range(rng.integers(0, 3))
    ],
    "level": lambda rng: float(rng.uniform(0.5, 1.0)) if rng.random() < 0.9 else pick(rng, (0, 1)),
    "tau": lambda rng: rng.uniform(-2.0, 2.0, pick(rng, (2, 2, 2, 2, 1, 3))).tolist(),
    "debias": lambda rng: {
        key: value(rng) for key, value in (
            ("k", lambda r: int(r.integers(2, 6))),
            ("alpha", lambda r: float(r.uniform(0.5, 2.0))),
            ("lambda_fixed", lambda r: float(r.uniform(0.0, 2.0))),
            ("grid_c", lambda r: r.uniform(0.1, 10.0, r.integers(1, 4)).tolist()),
        )
        if rng.random() < 0.3
    },
}
_SIM_ALWAYS = ("scenario", "n", "m", "reps")


def _toml(value) -> str:
    """`value` as TOML: a table's keys as lines, nested tables inline. None,
    which TOML cannot hold, is written as the bare word null, which makes
    the file invalid."""
    if isinstance(value, dict):
        items = [f"{key} = {_toml(item)}" for key, item in value.items()]
        return "{" + ", ".join(items) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_toml(item) for item in value) + "]"
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)  # nan, inf and -inf are TOML floats too
    return json.dumps(value)


@st.composite
def _fuzz_simulate_config(draw):
    """(suffix, text, threads) of a simulate --config file, JSON or TOML,
    and a --threads value of 1 or 2. The file holds an object with a
    scenario, n, m, reps and some of the other keys, each mostly admissible
    and small and otherwise any JSON value, maybe an out_dir (a usable one
    or one under a file) or a stray key; sometimes it is not an object, or
    does not parse."""
    rng = fuzz_rng(draw)
    suffix, threads = pick(rng, (".json", ".toml")), pick(rng, ("1", "2"))
    if rng.random() < 0.05:
        return suffix, pick(rng, ["[]", '"I"', "3", "", "{", "scenario = "]), threads
    config = {}
    for key, typed in _SIM_TYPED.items():
        if key in _SIM_ALWAYS or rng.random() < 0.4:
            config[key] = typed(rng) if rng.random() < 0.95 else _fuzz_value(rng)
    if rng.random() < 0.2:
        config["out_dir"] = pick(rng, ("run", "blocker/run", 5))
    if rng.random() < 0.05:
        config["extra"] = 1
    if suffix == ".json":
        return suffix, json.dumps(config), threads
    return suffix, "".join(f"{key} = {_toml(value)}\n" for key, value in config.items()), threads


_TABLE_HEADER = ["method", "m", "param", "bias", "rmse", "ase", "cp"]


@settings(max_examples=100, deadline=None)
@given(case=_fuzz_simulate_config())
def test_simulate_fuzzed_config_exits_0_2_or_3(tmp_path_factory, case):
    # every --config file gives the metrics table on stdout and no error, or
    # a typed error: exit 2 or 3, nothing on stdout, one JSON error line on
    # stderr
    suffix, text, threads = case
    root = tmp_path_factory.getbasetemp() / "fuzz_simulate"
    root.mkdir(exist_ok=True)
    (root / "blocker").write_text("")
    text = text.replace('"run"', json.dumps(str(root / "run")))
    text = text.replace('"blocker/run"', json.dumps(str(root / "blocker" / "run")))
    path = root / f"config{suffix}"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["simulate", "--config", str(path), "--threads", threads])
    assert code in (0, 2, 3)
    if code == 0:
        header, rule, *rows = out.getvalue().splitlines()
        assert header.split() == _TABLE_HEADER and set(rule) == {"-"}
        assert rows and all(len(row.split()) == len(_TABLE_HEADER) for row in rows)
        assert not any(line.startswith('{"error"') for line in err.getvalue().splitlines())
    else:
        assert out.getvalue() == ""
        _assert_one_json_error(err.getvalue())


_HUGE_INT = "1" * 5000  # beyond the interpreter's 4300-digit limit on int()
_DEEP_LIST = "[" * 100_000 + "]" * 100_000  # beyond the recursion limit


@pytest.mark.parametrize("text", [_HUGE_INT, _DEEP_LIST], ids=["huge_int", "deep_list"])
@pytest.mark.parametrize("reader", ["debias_config", "summary", "simulate_config", "tau"])
def test_json_beyond_the_parser_limits_exits_2(tmp_path, capsys, reader, text):
    # each of these used to end in a raw ValueError or RecursionError traceback
    internal, summary = _write_larger(tmp_path)
    bad = tmp_path / "bad.json"
    argv = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y, "--method", "dbs"]
    if reader == "debias_config":
        bad.write_text('{"alpha": %s}' % text)
        argv += ["--debias-config", str(bad)]
    elif reader == "summary":
        bad.write_text(summary.read_text().replace('"m": 50', '"m": %s' % text))
        argv[argv.index(str(summary))] = str(bad)
    elif reader == "simulate_config":
        bad.write_text('{"scenario": "I", "n": %s}' % text)
        argv = ["simulate", "--config", str(bad)]
    else:
        argv[argv.index(TAU_MEAN_Y)] = '{"functional": "mean", "args": {"column": %s}}' % text
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert _assert_one_json_error(err) == "MalformedInput"
    assert "invalid JSON" in json.loads(err)["error"]["detail"]


@pytest.mark.parametrize("field", ["where_equals", "beta", "m"])
def test_integers_beyond_the_float_range_exit_2(tmp_path, capsys, field):
    # each of these used to end in a raw OverflowError traceback
    internal, summary = _write_larger(tmp_path)
    obj, tau, huge = json.loads(summary.read_text()), TAU_MEAN_Y, 10**400
    if field == "where_equals":
        where = {"column": "X", "equals": huge}
        tau = json.dumps({"functional": "mean", "args": {"column": "Y", "where": where}})
    else:
        obj[field] = [huge] if field == "beta" else huge
    summary.write_text(json.dumps(obj))
    code, out, err = _run(capsys, ["estimate", "--internal", str(internal),
                                   "--summary", str(summary), "--tau", tau, "--method", "eff"])
    assert code == 2 and out == ""
    assert _assert_one_json_error(err) == "MalformedInput"


@pytest.mark.parametrize("content", ["[1, 2]", '"I"', "3"])
def test_simulate_config_that_is_not_an_object_exits_2(tmp_path, capsys, content):
    # a JSON array used to end in a raw TypeError traceback
    config = tmp_path / "cfg.json"
    config.write_text(content)
    code, out, err = _run(capsys, ["simulate", "--config", str(config), "--scenario", "I"])
    assert code == 2 and out == ""
    assert _assert_one_json_error(err) == "MalformedInput"
