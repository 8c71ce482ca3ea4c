"""Command-line interface: flags, files, exit codes, stderr contract."""

import csv
import json

import numpy as np
import pytest

from datafuse.cli import main

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
