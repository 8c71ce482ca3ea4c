"""Scenario generators and the replication harness."""

import csv
import math
import threading
import warnings

import numpy as np
import pytest
from helpers import assert_same_bits
from oracles import joint_ols_summary, marginal_slopes_summary
from scipy.special import expit

import datafuse.debias as debias_module
import datafuse.functionals as functionals_module
import datafuse.sim as sim_module
from datafuse import (
    DebiasConfig,
    ScenarioConfig,
    export_tables,
    format_table,
    gen_scenario1,
    gen_scenario2,
    run_replications,
)
from datafuse.errors import ExcessiveFailures, IoError, MalformedInput, RankDeficientDesign


# ---------------------------------------------------------------------------
# scenario I generator


def test_scenario1_beta_true_by_quadrature():
    # the literals solve the normal equations of Y on (1, X, T) with the
    # moments t_k = E[X^k expit(1 - X)] by adaptive quadrature
    from scipy.integrate import quad

    def moment(k):
        density = lambda u: u**k * expit(1.0 - u) * math.exp(-u * u / 2.0) / math.sqrt(2.0 * math.pi)
        return quad(density, -np.inf, np.inf)[0]

    t0, t1, t2, t3 = (moment(k) for k in range(4))
    design_mom = np.array([[1.0, 0.0, t0], [0.0, 1.0, t1], [t0, t1, t0]])
    response_mom = np.array([1.0 + t2, 1.0 + t3, t0 + t1 + t2])
    np.testing.assert_allclose(
        sim_module._SCENARIO1_BETA_TRUE,
        np.linalg.solve(design_mom, response_mom),
        rtol=1e-12,
        atol=0.0,
    )
    assert abs(t0 - 0.6967346701436938) < 1e-12


def test_scenario1_beta_true_against_monte_carlo():
    t0, t1, t2 = sim_module._SCENARIO1_BETA_TRUE
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
    assert set(internal.names) == {"X", "X2", "T", "Y"}
    np.testing.assert_allclose(
        internal.column("X2"), internal.column("X") ** 2, atol=1e-12
    )
    assert summary.m == 500 and summary.q == 3
    assert summary.binding[0].kind.value == "joint_ols"
    np.testing.assert_array_equal(truth["tau"], [1.0])
    assert truth["unbiased"] == (0, 1, 2)
    np.testing.assert_allclose(truth["beta"], sim_module._SCENARIO1_BETA_TRUE, atol=1e-12)


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


_TOO_BIG = sim_module._MAX_SIZE + 1


# each call is checked before it draws, so no size here is ever allocated
@pytest.mark.parametrize(
    "call",
    [
        lambda rng: gen_scenario1("50", 50, rng),
        lambda rng: gen_scenario1(1.5, 50, rng),
        lambda rng: gen_scenario1(50, _TOO_BIG, rng),
        lambda rng: gen_scenario1(50, 50, None),
        lambda rng: gen_scenario2(-1, 50, True, rng),
        lambda rng: gen_scenario2(_TOO_BIG, 50, True, rng),
        lambda rng: gen_scenario2(50, 50, True, None),
        lambda rng: gen_scenario2(50, 50, True, rng, tau=("a", "b")),
        lambda rng: gen_scenario2(50, 50, True, rng, tau=(1.0,)),
    ],
    ids=["n-str", "n-float", "m-too-big", "rng-none", "n-negative", "n-too-big", "rng-none-2",
         "tau-str", "tau-short"],
)
def test_generators_reject_bad_arguments(call):
    with pytest.raises(MalformedInput):
        call(np.random.default_rng(0))


# sizes numpy takes as a length but cannot size a float64 array of (numpy's
# raw "array is too big"); above the row cap, so none is ever allocated. The
# last two are the first row counts past one replication's ten-value feature
# buffer and past a whole chunk's
_UNSIZABLE = (
    2**63 - 1,
    2**60,
    sim_module._MAX_SIZE // (8 * 10) + 1,
    sim_module._MAX_ROWS + 1,
)


@pytest.mark.parametrize("size", _UNSIZABLE)
@pytest.mark.parametrize(
    "call",
    [
        lambda size, rng: gen_scenario1(size, 50, rng),
        lambda size, rng: gen_scenario1(50, size, rng),
        lambda size, rng: gen_scenario2(size, 50, True, rng),
        lambda size, rng: gen_scenario2(50, size, False, rng),
    ],
    ids=["I-n", "I-m", "II-n", "II-m"],
)
def test_generators_reject_rows_no_array_can_hold(call, size):
    with pytest.raises(MalformedInput, match="must be at most"):
        call(size, np.random.default_rng(0))


# ---------------------------------------------------------------------------
# the external summaries


def _redraw_scenario1(n, m, seed):
    """Scenario I's internal columns and external (design, y), drawn as
    gen_scenario1 draws them from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    x, t, y = sim_module._scenario1_draw(n, rng)
    xe, te, ye = sim_module._scenario1_draw(m, rng)
    internal = {"X": x, "X2": x * x, "T": t, "Y": y}
    return internal, np.column_stack([np.ones(m), xe, te]), ye


def _redraw_scenario2(n, m, biased, seed, tau=(1.0, 1.0)):
    """Scenario II's internal columns and external (regressors, y), drawn as
    gen_scenario2 draws them from default_rng(seed)."""
    rng = np.random.default_rng(seed)
    chol = np.array([[1.0, 0.0], [0.6, 0.8]])

    def draw(size):
        xs = rng.standard_normal((size, 2)) @ chol.T
        return xs, xs[:, 0] * tau[0] + xs[:, 1] * tau[1] + 2.0 * rng.standard_normal(size)

    x_int, y_int = draw(n)
    x_ext, y_ext = draw(m)
    x2_obs = x_ext[:, 1] + rng.standard_normal(m) if biased else x_ext[:, 1]
    internal = {"X1": x_int[:, 0], "X2": x_int[:, 1], "Y": y_int}
    return internal, np.column_stack([x_ext[:, 0], x2_obs]), y_ext


_SUMMARY_CASES = [(50, 10, 1), (200, 37, 2), (1000, 1000, 3), (300, 4000, 4), (20, 2500, 5)]


@pytest.mark.parametrize("n, m, seed", _SUMMARY_CASES)
def test_gen_scenario1_summary_matches_the_sandwich(n, m, seed):
    internal, summary, _ = gen_scenario1(n, m, np.random.default_rng(seed))
    columns, design, y = _redraw_scenario1(n, m, seed)
    for name, values in columns.items():
        np.testing.assert_array_equal(internal.column(name), values)
    coef, sigma1 = joint_ols_summary(design, y)
    np.testing.assert_allclose(summary.beta, coef, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(summary.sigma1, sigma1, rtol=1e-10, atol=0.0)
    assert summary.m == m


@pytest.mark.parametrize("biased", [True, False], ids=["biased", "unbiased"])
@pytest.mark.parametrize("n, m, seed", _SUMMARY_CASES)
def test_gen_scenario2_summary_matches_the_marginal_slopes(n, m, seed, biased):
    tau = (1.0, 1.0) if biased else (2.0, 0.5)
    internal, summary, _ = gen_scenario2(n, m, biased, np.random.default_rng(seed), tau)
    columns, regressors, y = _redraw_scenario2(n, m, biased, seed, tau)
    for name, values in columns.items():
        np.testing.assert_array_equal(internal.column(name), values)
    coef, sigma1 = marginal_slopes_summary(regressors, y)
    np.testing.assert_allclose(summary.beta, coef, rtol=1e-10, atol=0.0)
    np.testing.assert_allclose(summary.sigma1, sigma1, rtol=1e-10, atol=0.0)
    assert summary.m == m


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
    # a debias config of another type raised a raw AttributeError only once
    # a replication ran DBS
    with pytest.raises(MalformedInput, match=r"^debias must be a DebiasConfig, got \{\}$"):
        ScenarioConfig(scenario="II_biased", debias={})
    for out_dir in (3, True):
        with pytest.raises(MalformedInput, match=rf"^out_dir must be a path, got {out_dir!r}$"):
            ScenarioConfig(scenario="I", out_dir=out_dir)
    assert ScenarioConfig(scenario="I", out_dir="out").out_dir == "out"


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


@pytest.mark.parametrize("name", ["n", "m", "reps"])
def test_scenario_config_rejects_sizes_beyond_the_index_type(name):
    # numpy raised a raw ValueError (n, m) or OverflowError (reps) before
    # allocating anything; the config now stops them first. The largest n or
    # m accepted is the row cap, below which numpy can size every array of
    # that many rows
    with pytest.raises(MalformedInput, match=f"{name} must be at most"):
        ScenarioConfig.from_dict({"scenario": "I", name: 10**400})
    top = int(np.iinfo(np.intp).max) if name == "reps" else sim_module._MAX_ROWS
    with pytest.raises(MalformedInput):
        ScenarioConfig.from_dict({"scenario": "I", name: top + 1})
    assert getattr(ScenarioConfig.from_dict({"scenario": "I", name: top}), name) == top


def test_the_row_cap_sizes_a_chunks_moment_feature_buffer():
    # ten float64 values per row and replication of a chunk, at the largest
    # n accepted, is a byte count numpy can size
    assert 8 * 10 * sim_module._CHUNK * sim_module._MAX_ROWS <= np.iinfo(np.intp).max


# ---------------------------------------------------------------------------
# replication loop


def test_run_replications_deterministic_across_threads():
    cfg = ScenarioConfig(scenario="I", n=300, m=200, reps=12, seed=42)
    serial = run_replications(cfg, threads=1)
    parallel = run_replications(cfg, threads=4)
    assert serial.rows == parallel.rows
    assert serial.records == parallel.records
    assert serial.failures == 0


def test_run_replications_runs_every_rep_in_the_callers_thread(monkeypatch):
    cfg = ScenarioConfig(scenario="I", n=200, m=100, reps=6, seed=3, methods=("INT",))
    original = sim_module._replicate
    calls = []

    def recording(config, rep_seeds):
        calls.append((threading.get_ident(), len(rep_seeds)))
        return original(config, rep_seeds)

    monkeypatch.setattr(sim_module, "_replicate", recording)
    monkeypatch.setattr(sim_module, "_CHUNK", 4)
    run_replications(cfg, threads=4)
    # every rep, in chunks of four, in the calling thread
    assert calls == [(threading.get_ident(), 4), (threading.get_ident(), 2)]


_SMALL_CONFIG = ScenarioConfig(scenario="I", n=200, m=100, reps=2, seed=3, methods=("INT",))


@pytest.mark.parametrize(
    "config, threads",
    [
        ({"scenario": "I", "n": 200, "m": 100, "reps": 2}, 1),
        (_SMALL_CONFIG, "2"),
        (_SMALL_CONFIG, None),
        (_SMALL_CONFIG, 0),
        (_SMALL_CONFIG, -3),
        (_SMALL_CONFIG, 2.5),
        (_SMALL_CONFIG, True),
    ],
    ids=["config-dict", "threads-str", "threads-none", "threads-0", "threads-neg", "threads-float",
         "threads-bool"],
)
def test_run_replications_rejects_bad_arguments(config, threads):
    with pytest.raises(MalformedInput):
        run_replications(config, threads=threads)


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

    def flaky(config, rep_seeds):
        # rep 2 fails, in its chunk and again when the chunk's reps run alone
        if any(data_seed.spawn_key[0] == 2 for data_seed, _ in rep_seeds):
            raise ExcessiveFailures("synthetic replication failure")
        return original(config, rep_seeds)

    monkeypatch.setattr(sim_module, "_replicate", flaky)
    with pytest.warns(UserWarning, match=r"excluded 1 failed replication.*\(rep 2\)"):
        result = run_replications(cfg, threads=1)
    assert result.failures == 1
    assert all(row.reps == 149 for row in result.rows)


def test_an_rmse_of_zero_has_a_zero_monte_carlo_error(monkeypatch):
    # every replication estimates tau exactly, so the rmse is 0 and the delta
    # method's sd(err^2) / (2 rmse) would divide 0 by 0
    cfg = ScenarioConfig(scenario="I", n=200, m=100, reps=3, seed=3, methods=("INT",))

    def exact(config, rep_seeds):
        tau = np.array([1.0])
        return [
            (tau, {"INT": (tau.copy(), np.array([0.1]), np.array([True]), None)})
            for _ in rep_seeds
        ]

    monkeypatch.setattr(sim_module, "_replicate", exact)
    (row,) = run_replications(cfg).rows
    assert (row.bias, row.rmse, row.mc_se_rmse) == (0.0, 0.0, 0.0)


_CHUNK_CASES = {
    "I": ScenarioConfig(scenario="I", n=200, m=100, reps=40, seed=3),
    "II_biased": ScenarioConfig(scenario="II_biased", n=200, m=400, reps=40, seed=5),
    "II_unbiased": ScenarioConfig(scenario="II_unbiased", n=200, m=400, reps=40, seed=6),
    # rep 82's cross-validation fails on a fold, so its chunk runs again rep by rep
    "failing-rep": ScenarioConfig(
        scenario="I", n=60, m=30, reps=150, seed=0, methods=("INT", "DBS"),
        debias=DebiasConfig(k=2),
    ),
    # with adaptive_lasso warning on some reps (below), chunks warn and run again
    "warning": ScenarioConfig(scenario="II_biased", n=200, m=400, reps=40, seed=5),
    # rep 9's propensity is pinned at 0/1, so the chunk's stacked Newton raises
    "failing-fit": ScenarioConfig(scenario="I", n=24, m=100, reps=150, seed=3),
    # with the Newton capped at 7 iterations (below), 4 reps' propensity fits
    # warn inside the chunk's stacked Newton
    "newton-warning": ScenarioConfig(scenario="I", n=200, m=100, reps=40, seed=3),
}


@pytest.mark.parametrize("case", sorted(_CHUNK_CASES))
def test_outputs_and_warnings_do_not_depend_on_the_chunk_size(monkeypatch, tmp_path, case):
    cfg = _CHUNK_CASES[case]
    if case == "warning":
        lasso = debias_module.adaptive_lasso

        def warning_lasso(x, y, weights, lam):
            if y[0] > 0.0:  # a warning of the rep's own data, in or out of a chunk
                warnings.warn(f"synthetic: whitened response {y[0]!r}")
            return lasso(x, y, weights, lam)

        monkeypatch.setattr(debias_module, "adaptive_lasso", warning_lasso)
    if case == "newton-warning":
        monkeypatch.setattr(functionals_module, "LOGISTIC_MAX_ITER", 7)
    runs = []
    for chunk in (1, 7, 32, cfg.reps):
        monkeypatch.setattr(sim_module, "_CHUNK", chunk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = run_replications(cfg)
        paths = export_tables(result, tmp_path / f"chunk{chunk}.csv")
        runs.append(
            (
                result.rows,
                result.records,
                result.failures,
                [(w.category, str(w.message)) for w in caught],
                [path.read_bytes() for path in paths],
            )
        )
    for chunk, run in zip((7, 32, cfg.reps), runs[1:]):
        assert_same_bits(run, runs[0], f"chunk {chunk}")
    failures, caught = runs[0][2], runs[0][3]
    assert failures == (1 if case in ("failing-rep", "failing-fit") else 0)
    if case == "failing-fit":
        assert "rep 9): fitted probabilities pinned" in caught[0][1]
    if case in ("warning", "newton-warning"):
        marker = "synthetic" if case == "warning" else "logistic fit stopped at iteration cap"
        assert 0 < len(caught) < cfg.reps and all(marker in str(m) for _, m in caught)
    else:
        assert len(caught) == failures


def test_a_repeated_warning_is_shown_once_whatever_the_chunk_size(monkeypatch):
    # Python's default filter shows a warning once per place that emits it;
    # a run's warnings are emitted again at its end, as the replications run
    # one at a time emit them, so chunks that run again do not repeat it
    lasso = debias_module.adaptive_lasso

    def warning_lasso(x, y, weights, lam):
        if y[0] > 0.0:
            warnings.warn("synthetic: positive whitened response")
        return lasso(x, y, weights, lam)

    monkeypatch.setattr(debias_module, "adaptive_lasso", warning_lasso)
    cfg = _CHUNK_CASES["warning"]
    for chunk in (1, 7, cfg.reps):
        monkeypatch.setattr(sim_module, "_CHUNK", chunk)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            run_replications(cfg)
        assert [str(w.message) for w in caught] == ["synthetic: positive whitened response"]
        assert caught[0].filename == __file__


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


@pytest.mark.parametrize("path", [None, 5, b"x.csv"], ids=["none", "int", "bytes"])
def test_export_tables_rejects_a_path_that_is_not_one(path):
    with pytest.raises(MalformedInput, match="path must be a path"):
        export_tables(run_replications(_SMALL_CONFIG), path)


def test_export_tables_rejects_a_result_that_is_not_one(tmp_path):
    rows = run_replications(_SMALL_CONFIG).rows
    with pytest.raises(MalformedInput, match="result must be a SimulationResult"):
        export_tables({"rows": rows}, tmp_path / "x.csv")


@pytest.mark.parametrize("rows", [[1], None, "INT", (None,)], ids=["int", "none", "str", "none-1"])
def test_format_table_rejects_rows_that_are_not_metrics_rows(rows):
    with pytest.raises(MalformedInput, match="rows must be a list or tuple of MetricsRow"):
        format_table(rows)


def test_format_table_layout():
    cfg = ScenarioConfig(scenario="I", n=120, m=100, reps=4, seed=3, methods=("INT", "EFF"))
    result = run_replications(cfg)
    text = format_table(result.rows)
    lines = text.splitlines()
    assert len(lines) == 2 + len(result.rows)
    assert "method" in lines[0] and "rmse" in lines[0] and "cp" in lines[0]
    assert lines[2].startswith("INT")
