"""Scenario generators and the replication harness."""

import csv
import math

import numpy as np
import pytest
from scipy.special import expit

import datafuse.sim as sim_module
from datafuse import (
    DebiasConfig,
    ScenarioConfig,
    export_tables,
    format_table,
    gen_scenario1,
    gen_scenario2,
    run_replications,
    scenario1_beta_true,
)
from datafuse.errors import ExcessiveFailures, IoError, MalformedInput, RankDeficientDesign


# ---------------------------------------------------------------------------
# scenario I generator


def test_scenario1_beta_true_against_monte_carlo():
    t0, t1, t2 = scenario1_beta_true()
    rng = np.random.default_rng(77)
    n = 400_000
    x = rng.standard_normal(n)
    t = (rng.random(n) < expit(1.0 - x)).astype(float)
    y = (
        1.0
        + x
        + t * x * x
        + t * 2.0 * rng.standard_normal(n)
        + (1.0 - t) * rng.standard_normal(n)
    )
    design = np.column_stack([np.ones(n), x, t])
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ coef
    bread = np.linalg.inv(design.T @ design / n)
    meat = (design * resid[:, None]).T @ (design * resid[:, None]) / n
    se = np.sqrt(np.diag(bread @ meat @ bread) / n)
    for target, got, s in zip((t0, t1, t2), coef, se):
        assert abs(got - target) <= 4.0 * s


def test_scenario1_treatment_probability():
    # marginal treatment probability E[expit(1 - X)] with X standard normal,
    # 0.696734670... by Gauss-Hermite quadrature
    rng = np.random.default_rng(101)
    n = 1_000_000
    x = rng.standard_normal(n)
    t = (rng.random(n) < expit(1.0 - x)).astype(float)
    p_hat = t.mean()
    se = math.sqrt(p_hat * (1.0 - p_hat) / n)
    assert abs(p_hat - 0.6967346701436938) <= 3.0 * se


def test_gen_scenario1_structure():
    rng = np.random.default_rng(3)
    internal, summary, truth = gen_scenario1(200, 500, rng)
    assert internal.n == 200
    assert internal.outcome == "Y" and internal.treatment == "T"
    assert set(internal.names) == {"X", "X2", "T", "Y"}
    np.testing.assert_allclose(
        internal.column("X2"), internal.column("X") ** 2, atol=1e-12
    )
    assert summary.m == 500 and summary.q == 3
    assert summary.binding[0].kind.value == "joint_ols"
    np.testing.assert_array_equal(truth["tau"], [1.0])
    assert truth["unbiased"] == (0, 1, 2)
    np.testing.assert_allclose(truth["beta"], scenario1_beta_true(), atol=1e-12)


def test_gen_scenario1_internal_independent_of_m():
    a, _, _ = gen_scenario1(150, 200, np.random.default_rng(9))
    b, _, _ = gen_scenario1(150, 2000, np.random.default_rng(9))
    for name in a.names:
        np.testing.assert_array_equal(a.column(name), b.column(name))


def test_gen_scenario1_rejects_fewer_external_rows_than_columns():
    # a 2-row design makes the 3x3 normal matrix singular, which numpy's
    # solve does not always detect; every seed must fail, not just some
    for seed in range(20):
        with pytest.raises(RankDeficientDesign):
            gen_scenario1(5, 2, np.random.default_rng(seed))


def test_gen_scenario1_outcome_moments():
    rng = np.random.default_rng(13)
    internal, _, _ = gen_scenario1(200_000, 10, rng)
    x = internal.column("X")
    t = internal.column("T")
    y = internal.column("Y")
    eps = y - (1.0 + x + t * x * x)
    assert abs(eps.mean()) < 0.02
    # arm-wise error variances 4 and 1
    assert abs(eps[t == 1.0].var() - 4.0) < 0.1
    assert abs(eps[t == 0.0].var() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# scenario II generator


def test_gen_scenario2_truth_records():
    rng = np.random.default_rng(21)
    _, _, truth_b = gen_scenario2(100, 400, True, rng)
    np.testing.assert_allclose(truth_b["beta"], [1.6, 1.6], atol=1e-12)
    np.testing.assert_allclose(truth_b["b_star"], [0.0, -0.8], atol=1e-12)
    assert truth_b["unbiased"] == (0,)
    _, _, truth_u = gen_scenario2(100, 400, False, rng, tau=(2.0, 0.5))
    np.testing.assert_allclose(truth_u["beta"], [2.3, 1.7], atol=1e-12)
    np.testing.assert_allclose(truth_u["b_star"], [0.0, 0.0], atol=1e-12)
    assert truth_u["unbiased"] == (0, 1)


def test_gen_scenario2_attenuation_and_correlation():
    rng = np.random.default_rng(23)
    internal, summary, truth = gen_scenario2(100_000, 300_000, True, rng)
    x1 = internal.column("X1")
    x2 = internal.column("X2")
    corr = np.corrcoef(x1, x2)[0, 1]
    assert abs(corr - 0.6) < 0.01
    # biased external slope attenuated to half the target value
    assert abs(summary.beta[1] - 0.8) < 0.02
    assert abs(summary.beta[0] - 1.6) < 0.02
    rng2 = np.random.default_rng(25)
    _, clean, _ = gen_scenario2(1000, 300_000, False, rng2)
    assert abs(clean.beta[1] - 1.6) < 0.02


# ---------------------------------------------------------------------------
# configuration


def test_scenario_config_defaults_and_errors():
    cfg = ScenarioConfig(scenario="I")
    assert cfg.methods == ("INT", "CRD", "EFF", "KNW")
    cfg2 = ScenarioConfig(scenario="II_biased")
    assert cfg2.methods == ("INT", "ORC", "DBS", "EFF")
    dedup = ScenarioConfig(scenario="I", methods=("EFF", "INT", "EFF"))
    assert dedup.methods == ("EFF", "INT")
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="III")
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="I", reps=0)
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="I", n=10.5)
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="I", level=1.0)
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="I", tau=(1.0,))
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="I", methods=("GMM",))
    with pytest.raises(MalformedInput):
        ScenarioConfig(scenario="I", methods=("IVW",))


def test_scenario_config_from_dict():
    cfg = ScenarioConfig.from_dict(
        {
            "scenario": "II_unbiased",
            "reps": 7,
            "methods": ["INT", "DBS"],
            "debias": {"k": 2, "grid_c": [1.0, 10.0]},
        }
    )
    assert cfg.reps == 7
    assert cfg.debias.k == 2 and cfg.debias.grid_c == (1.0, 10.0)
    with pytest.raises(MalformedInput):
        ScenarioConfig.from_dict({"scenario": "I", "shape": 3})
    with pytest.raises(MalformedInput):
        ScenarioConfig.from_dict(["I"])


# ---------------------------------------------------------------------------
# replication loop


def test_run_replications_deterministic_across_threads():
    cfg = ScenarioConfig(scenario="I", n=300, m=200, reps=12, seed=42)
    serial = run_replications(cfg, threads=1)
    parallel = run_replications(cfg, threads=4)
    assert serial.rows == parallel.rows
    assert serial.records == parallel.records
    assert serial.failures == 0


def test_run_replications_method_subset_preserves_streams():
    full = ScenarioConfig(scenario="I", n=250, m=200, reps=8, seed=5)
    only_int = ScenarioConfig(scenario="I", n=250, m=200, reps=8, seed=5, methods=("INT",))
    rows_full = [r for r in run_replications(full).rows if r.method == "INT"]
    rows_only = list(run_replications(only_int).rows)
    assert rows_full == rows_only


def test_run_replications_metrics_shape():
    cfg = ScenarioConfig(
        scenario="II_biased",
        n=200,
        m=800,
        reps=10,
        seed=11,
        methods=("INT", "ORC", "DBS"),
        debias=DebiasConfig(grid_c=(1.0, 10.0), k=2),
    )
    result = run_replications(cfg)
    assert len(result.rows) == 3 * 2  # methods x parameters
    for row in result.rows:
        assert row.reps == 10 and row.m == 800
        assert row.rmse >= abs(row.bias) - 1e-12
        assert row.ase > 0.0 and 0.0 <= row.cp <= 100.0
    dbs_records = [r for r in result.records if r["method"] == "DBS"]
    assert len(dbs_records) == 10 * 2
    assert all(r["selected"] in ("", "0", "1", "0;1") for r in dbs_records)
    int_records = [r for r in result.records if r["method"] == "INT"]
    assert all(r["selected"] == "" for r in int_records)


@pytest.mark.filterwarnings("ignore::UserWarning")
def test_run_replications_aborts_on_excessive_failures():
    cfg = ScenarioConfig(scenario="I", n=2, m=50, reps=5, seed=0)
    with pytest.raises(ExcessiveFailures):
        run_replications(cfg)


def test_run_replications_excludes_rare_failures_pairwise(monkeypatch):
    cfg = ScenarioConfig(scenario="I", n=200, m=100, reps=150, seed=7, methods=("INT", "EFF"))
    original = sim_module._replicate
    state = {"count": 0}

    def flaky(config, rep_seed):
        state["count"] += 1
        if state["count"] == 3:
            raise ExcessiveFailures("synthetic replication failure")
        return original(config, rep_seed)

    monkeypatch.setattr(sim_module, "_replicate", flaky)
    with pytest.warns(UserWarning, match="excluded 1 failed replication"):
        result = run_replications(cfg, threads=1)
    assert result.failures == 1
    assert all(row.reps == 149 for row in result.rows)


# ---------------------------------------------------------------------------
# output


def test_export_tables_round_trip(tmp_path):
    cfg = ScenarioConfig(scenario="I", n=120, m=100, reps=6, seed=2, methods=("INT",))
    result = run_replications(cfg)
    path, long_path = export_tables(result, tmp_path / "metrics.csv")
    assert long_path.name == "metrics_per_rep.csv"
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["scenario"] == "I" and rows[0]["method"] == "INT"
    assert float(rows[0]["rmse"]) == result.rows[0].rmse
    with open(long_path, newline="") as fh:
        recs = list(csv.DictReader(fh))
    assert len(recs) == 6
    assert {r["rep"] for r in recs} == {str(j) for j in range(6)}
    assert float(recs[0]["estimate"]) == result.records[0]["estimate"]


def test_export_tables_errors(tmp_path):
    cfg = ScenarioConfig(scenario="I", n=120, m=100, reps=3, seed=2, methods=("INT",))
    result = run_replications(cfg)
    from dataclasses import replace

    with pytest.raises(MalformedInput):
        export_tables(replace(result, rows=()), tmp_path / "x.csv")
    with pytest.raises(IoError):
        export_tables(result, tmp_path / "absent" / "x.csv")


def test_format_table_layout():
    cfg = ScenarioConfig(scenario="I", n=120, m=100, reps=4, seed=3, methods=("INT", "EFF"))
    result = run_replications(cfg)
    text = format_table(result.rows)
    lines = text.splitlines()
    assert len(lines) == 2 + len(result.rows)
    assert "method" in lines[0] and "rmse" in lines[0] and "cp" in lines[0]
    assert lines[2].startswith("INT")
