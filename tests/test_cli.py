"""Command-line interface: flags, files, exit codes, stderr contract."""

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
from datafuse import FunctionalKind
from datafuse.cli import main
from datafuse.model import _ARGS
from helpers import CSV_ODD_CELLS, csv_files

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


def test_estimate_beta_override(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)
    argv = ["estimate", "--internal", str(internal), "--summary", str(summary),
            "--tau", TAU_MEAN_Y,
            "--beta", json.dumps([{"functional": "mean", "args": {"column": "X"}}])]
    code, out, _ = _run(capsys, argv)
    assert code == 0
    assert json.loads(out)["estimate"] == pytest.approx([2.2], abs=1e-12)

    # width of the override must match the summary vector
    bad = argv[:-1] + [json.dumps([
        {"functional": "mean", "args": {"column": "X"}},
        {"functional": "mean", "args": {"column": "Y"}},
    ])]
    code, _, err = _run(capsys, bad)
    assert code == 2 and _stderr_kind(err) == "DimensionMismatch"

    # override refuses multiple summaries
    code, _, err = _run(
        capsys,
        ["estimate", "--internal", str(internal), "--summary", str(summary),
         "--summary", str(summary), "--tau", TAU_MEAN_Y,
         "--beta", json.dumps({"functional": "mean", "args": {"column": "X"}})],
    )
    assert code == 2 and _stderr_kind(err) == "MalformedInput"


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


def test_cli_exit_codes(tmp_path, capsys):
    internal, summary = _write_example(tmp_path)

    code, _, err = _run(capsys, ["simulate", "--scenario", "I", "--reps", "0"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(capsys, ["simulate", "--reps", "5"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(capsys, ["simulate", "--scenario", "I", "--threads", "0"])
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

    code, _, err = _run(
        capsys,
        ["estimate", "--internal", str(internal),
         "--summary", str(tmp_path / "missing.json"), "--tau", TAU_MEAN_Y],
    )
    assert code == 2 and _stderr_kind(err) == "IoError"

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
         "--tau", "not json and not a file"],
    )
    assert code == 2 and _stderr_kind(err) == "MalformedInput"

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


_FUZZ_NAMES = st.sampled_from(["Y", "X", "T", "Y", "X", "T", "missing"])
_FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(-3.0, 3.0) | _FUZZ_NAMES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["column", "equals", "other"]), inner, max_size=2),
    max_leaves=4,
)
# a value of the right type for each argument name
_FUZZ_TYPED = {
    "regressors": st.lists(_FUZZ_NAMES, min_size=1, max_size=2),
    "covariates": st.lists(_FUZZ_NAMES, min_size=1, max_size=2),
    "where": st.fixed_dictionaries({"column": _FUZZ_NAMES, "equals": st.sampled_from([0, 1, 0.5])}),
    "intercept": st.booleans(),
    "link": st.sampled_from(["identity", "logit"]),
}


@st.composite
def _fuzz_tau(draw):
    """A --tau descriptor object: a kind (or an unknown one), keyed or
    positional args of about the right count, each mostly of the right type
    and otherwise any JSON value, maybe a component and maybe a stray key."""
    kind = draw(st.sampled_from([k.value for k in FunctionalKind] + ["spline"]))
    required, spec = _ARGS[FunctionalKind(kind)] if kind != "spline" else (0, ())
    names = [n for n, _ in spec] + ["junk"]
    if draw(st.integers(0, 4)):
        count = draw(st.integers(required, len(spec)))
    else:
        count = draw(st.integers(max(required - 1, 0), len(names)))
    values = [
        draw(_FUZZ_TYPED.get(name, _FUZZ_NAMES) if draw(st.integers(0, 9)) else _FUZZ_VALUES)
        for name in names[:count]
    ]
    args = values if draw(st.booleans()) else dict(zip(names, values))
    obj = {"functional": kind, "args": args}
    if draw(st.integers(0, 2)) == 0:
        obj["component"] = draw(st.integers(-1, 2) if draw(st.integers(0, 4)) else _FUZZ_VALUES)
    if draw(st.integers(0, 9)) == 0:
        obj["extra"] = 1
    return obj


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
    # a typed error: exit 2 or 3, nothing on stdout, one JSON error on stderr
    internal, summary = fuzz_files
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["estimate", "--internal", internal, "--summary", summary,
                     "--tau", json.dumps(tau), "--method", method])
    assert code in (0, 2, 3)
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
    one of the malformed files of helpers.csv_files."""
    if draw(st.integers(0, 2)) == 0:
        return draw(csv_files(names=("X", "T", "Y")))
    value = st.one_of(
        st.floats(-10.0, 10.0),
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 1.0, 1e-300, 1e300]),
    ).map(repr)
    arm = st.sampled_from(["0", "1", "0.0", "1.0"]) if draw(st.integers(0, 4)) else value
    rows = [
        [draw(value), draw(arm), draw(value)] for _ in range(draw(st.integers(0, 24)))
    ]
    if rows and draw(st.booleans()):
        row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, 2))
        rows[row][col] = draw(st.sampled_from(CSV_ODD_CELLS))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return (eol.join(["X,T,Y"] + [",".join(r) for r in rows]) + eol).encode("utf-8")


@settings(max_examples=150, deadline=None)
@given(
    raw=_fuzz_internal(),
    tau=st.sampled_from([
        {"functional": "aipw_ate", "args": ["Y", "T", ["X"]]},
        {"functional": "mean", "args": ["Y"]},
        {"functional": "joint_ols", "args": ["Y", ["X", "T"]]},
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


def _cli_process(argv):
    """`python -m datafuse.cli argv` in a fresh interpreter, warnings shown as
    Python shows them by default."""
    src = str(Path(datafuse.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "datafuse.cli", *argv],
                          capture_output=True, text=True, env=env, timeout=120)


def test_warnings_reach_stderr_only_when_the_command_succeeds(tmp_path):
    tau = json.dumps({"functional": "mean", "args": ["Y"]})
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
        "binding": [{"functional": "mean", "args": [col]} for col in ("X", "X2")],
    }))
    done = _cli_process(["estimate", "--internal", str(internal), "--summary", str(summary),
                         "--tau", tau, "--method", "crd"])
    assert done.returncode == 0
    _strict_json(done.stdout)
    linalg = Path(datafuse.__file__).resolve().parent / "_linalg.py"
    assert done.stderr.startswith(f"{linalg}:")
    assert "UserWarning: ill-conditioned system (gram): added ridge" in done.stderr
    assert done.stderr.endswith("  warnings.warn(msg)\n")


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


@pytest.mark.parametrize("content", ["[1, 2]", '"I"', "3"])
def test_simulate_config_that_is_not_an_object_exits_2(tmp_path, capsys, content):
    # a JSON array used to end in a raw TypeError traceback
    config = tmp_path / "cfg.json"
    config.write_text(content)
    code, out, err = _run(capsys, ["simulate", "--config", str(config), "--scenario", "I"])
    assert code == 2 and out == ""
    assert _assert_one_json_error(err) == "MalformedInput"
