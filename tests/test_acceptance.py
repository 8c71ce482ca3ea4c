"""Acceptance gate: every release-blocking check, one printed verdict each.

Each test prints one line, "ACCEPTANCE <k> PASS/FAIL: <measured detail>",
on the uncaptured stdout so the verdicts always reach the terminal, then
asserts. Criteria 1-6 are Monte Carlo benchmark checks at 1000 replications;
7-13 are exact-tolerance properties.
"""

from dataclasses import replace

import numpy as np
import pytest

from helpers import centered, random_spd, synth_inputs
from oracles import cd_minimize_check, external_covariance, influence_moments, ivw_reduce

from datafuse import (
    FunctionalDescriptor,
    FunctionalKind,
    ScenarioConfig,
    adaptive_lasso,
    efficiency_bound,
    estimate_eff,
    estimate_int,
    export_tables,
    gen_scenario2,
    prepare_inputs,
    restrict_inputs,
    run_replications,
    validate_dataset,
    validate_summary,
    wald_inference,
)

M_GRID = (200, 500, 1000, 2000)
CP_LO, CP_HI = 92.5, 97.5


@pytest.fixture
def report(capsys):
    def _report(num: int, ok: bool, detail: str) -> bool:
        verdict = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {num:>2} {verdict}: {detail}", flush=True)
        return ok

    return _report


def _gap(value: float) -> str:
    """A gap as printed: below 1e-12 it is round-off, whose digits move
    with any change to the order of floating-point operations."""
    return "<1e-12" if value < 1e-12 else f"{value:.2e}"


def _row(result, method, param=0):
    for row in result.rows:
        if row.method == method and row.param == param:
            return row
    raise AssertionError(f"no row for {method}/{param}")


@pytest.fixture(scope="module")
def scen1():
    out = {}
    for m in M_GRID:
        cfg = ScenarioConfig(scenario="I", n=1000, m=m, reps=1000, seed=0)
        out[m] = run_replications(cfg, threads=4)
    return out


@pytest.fixture(scope="module")
def scen2_biased():
    cfg = ScenarioConfig(scenario="II_biased", n=1000, m=4000, reps=1000, seed=0)
    return run_replications(cfg, threads=4)


@pytest.fixture(scope="module")
def scen2_unbiased():
    cfg = ScenarioConfig(scenario="II_unbiased", n=1000, m=4000, reps=1000, seed=0)
    return run_replications(cfg, threads=4)


def _example_instance():
    """Four (X, Y) pairs fused with an external estimate of E(X)."""
    data = validate_dataset(
        {"X": [0.0, 1.0, 2.0, 3.0], "Y": [1.0, 2.0, 2.0, 5.0]}, outcome="Y"
    )
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    summary = validate_summary(
        [1.0], [[1.25]], 4, [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})]
    )
    return prepare_inputs(data, tau, [summary])


# ---------------------------------------------------------------------------
# Monte Carlo criteria


def test_criterion_1_scenario1_rmse_targets(scen1, report):
    eff_targets = dict(zip(M_GRID, (10.97, 10.25, 9.56, 8.65)))
    eff = {m: _row(scen1[m], "EFF").rmse for m in M_GRID}
    int_ = {m: _row(scen1[m], "INT").rmse for m in M_GRID}
    knw = {m: _row(scen1[m], "KNW").rmse for m in M_GRID}
    crd200 = _row(scen1[200], "CRD").rmse
    ok = (
        all(abs(eff[m] / eff_targets[m] - 1.0) <= 0.10 for m in M_GRID)
        and all(abs(v / 11.62 - 1.0) <= 0.10 for v in int_.values())
        and abs(crd200 / 20.86 - 1.0) <= 0.15
        and all(abs(v / 6.94 - 1.0) <= 0.10 for v in knw.values())
    )
    detail = (
        "EFF rmse " + "/".join(f"{eff[m]:.2f}" for m in M_GRID)
        + " vs 10.97/10.25/9.56/8.65 (±10%); "
        + f"INT {int_[200]:.2f} vs 11.62 (±10%); "
        + f"CRD(m=200) {crd200:.2f} vs 20.86 (±15%); "
        + f"KNW {knw[200]:.2f} vs 6.94 (±10%)"
    )
    assert report(1, ok, detail)


def test_criterion_2_scenario1_coverage(scen1, report):
    cps = {
        (method, m): _row(scen1[m], method).cp
        for m in M_GRID
        for method in ("INT", "CRD", "EFF", "KNW")
    }
    ok = all(CP_LO <= cp <= CP_HI for cp in cps.values())
    lo_key = min(cps, key=cps.get)
    hi_key = max(cps, key=cps.get)
    detail = (
        f"coverage across 16 method/m cells in [{cps[lo_key]:.1f}, {cps[hi_key]:.1f}]"
        f" (need [92.5, 97.5]); extremes {lo_key} and {hi_key}"
    )
    assert report(2, ok, detail)


def test_criterion_3_efficiency_paradox(scen1, report):
    z_scores = {}
    for m in M_GRID:
        crd = _row(scen1[m], "CRD")
        int_ = _row(scen1[m], "INT")
        se = float(np.hypot(crd.mc_se_rmse, int_.mc_se_rmse))
        z_scores[m] = (crd.rmse - int_.rmse) / se
    ok = z_scores[200] > 2.0 and z_scores[500] > 2.0 and z_scores[2000] < -2.0
    detail = (
        "CRD-INT rmse gap in MC SEs: "
        + ", ".join(f"m={m}: {z_scores[m]:+.1f}" for m in M_GRID)
        + " (need >+2 at m=200,500 and <-2 at m=2000)"
    )
    assert report(3, ok, detail)


def test_criterion_4_scenario2_biased(scen2_biased, report):
    eff_cp = [_row(scen2_biased, "EFF", j).cp for j in (0, 1)]
    dbs_cp = [_row(scen2_biased, "DBS", j).cp for j in (0, 1)]
    orc_cp = [_row(scen2_biased, "ORC", j).cp for j in (0, 1)]
    rmse_ratio = [
        _row(scen2_biased, "DBS", j).rmse / _row(scen2_biased, "ORC", j).rmse
        for j in (0, 1)
    ]
    picks = [
        r["selected"] for r in scen2_biased.records
        if r["method"] == "DBS" and r["param"] == 0
    ]
    freq = sum(1 for s in picks if s == "0") / len(picks)
    ok = (
        all(cp < 10.0 for cp in eff_cp)
        and all(CP_LO <= cp <= CP_HI for cp in dbs_cp + orc_cp)
        and all(abs(r - 1.0) <= 0.20 for r in rmse_ratio)
        and freq >= 0.90
    )
    detail = (
        f"EFF cp {eff_cp[0]:.1f}/{eff_cp[1]:.1f} (<10); "
        f"DBS cp {dbs_cp[0]:.1f}/{dbs_cp[1]:.1f}, ORC cp {orc_cp[0]:.1f}/{orc_cp[1]:.1f}"
        f" (in [92.5, 97.5]); DBS/ORC rmse {rmse_ratio[0]:.3f}/{rmse_ratio[1]:.3f}"
        f" (within 20%); correct selection {freq:.3f} (>=0.90)"
    )
    assert report(4, ok, detail)


def test_criterion_5_scenario2_unbiased(scen2_unbiased, report):
    checks = []
    parts = []
    for j in (0, 1):
        eff = _row(scen2_unbiased, "EFF", j)
        orc = _row(scen2_unbiased, "ORC", j)
        dbs = _row(scen2_unbiased, "DBS", j)
        int_ = _row(scen2_unbiased, "INT", j)
        lo_se = float(np.hypot(dbs.mc_se_rmse, orc.mc_se_rmse))
        hi_se = float(np.hypot(dbs.mc_se_rmse, int_.mc_se_rmse))
        checks.append(abs(eff.rmse / orc.rmse - 1.0) <= 0.05)
        checks.append(eff.rmse <= 0.75 * int_.rmse)
        checks.append(orc.rmse <= 0.75 * int_.rmse)
        checks.append(orc.rmse - 2.0 * lo_se <= dbs.rmse <= int_.rmse + 2.0 * hi_se)
        parts.append(
            f"param {j}: ORC {orc.rmse:.2f} ~ EFF {eff.rmse:.2f},"
            f" DBS {dbs.rmse:.2f}, INT {int_.rmse:.2f}"
        )
    ok = all(checks)
    detail = "; ".join(parts) + " (EFF~ORC within 5%, both <=0.75 INT, DBS between)"
    assert report(5, ok, detail)


def test_criterion_6_wald_p_value(report):
    base = estimate_int(_example_instance())
    est = np.array([0.0628])
    se = np.array([0.0394])
    result = replace(
        base, estimate=est, se=se,
        ci=np.column_stack([est - 1.96 * se, est + 1.96 * se]),
    )
    _, p, _ = wald_inference(result, null=0.0, side="upper")
    ok = abs(p[0] - 0.0553) <= 2e-4
    detail = f"estimate 0.0628, se 0.0394 -> upper p {p[0]:.5f} (need 0.0553 +/- 0.0002)"
    assert report(6, ok, detail)


# ---------------------------------------------------------------------------
# exact-tolerance criteria


def test_criterion_7_minimizer_equivalence(report):
    rng = np.random.default_rng(2201)
    worst = 0.0
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        inputs = synth_inputs(rng, n=int(rng.integers(25, 70)), p=p, q=q)
        tau_part, _ = cd_minimize_check(inputs)
        gap = float(np.max(np.abs(tau_part - estimate_eff(inputs).estimate)))
        worst = max(worst, gap)
    ok = worst <= 1e-8
    detail = (
        f"joint minimizer vs fused estimate, worst gap {_gap(worst)} over 100 instances (<=1e-8)"
    )
    assert report(7, ok, detail)


def test_criterion_8_ivw_reduction(report):
    rng = np.random.default_rng(2203)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(20, 100))
        y = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
        data = validate_dataset({"Y": y}, outcome="Y")
        tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
        m = int(rng.integers(10, 200))
        beta_tilde = float(rng.uniform(-1, 1))
        s1 = float(rng.uniform(0.2, 3.0))
        summary = validate_summary([beta_tilde], [[s1]], m, [tau])
        inputs = prepare_inputs(data, tau, [summary])
        pooled = ivw_reduce(float(y.mean()), float(np.var(y)) / n, beta_tilde, s1 / m)
        worst = max(worst, abs(estimate_eff(inputs).estimate[0] - pooled))
    ok = worst <= 1e-10
    detail = (
        f"shared-functional fusion vs inverse-variance pooling, worst gap {_gap(worst)} (<=1e-10)"
    )
    assert report(8, ok, detail)


def test_criterion_9_bound_ordering(report):
    rng = np.random.default_rng(2205)
    min_gap = np.inf
    min_step = np.inf
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(20, 60))
        phi = centered(rng, n, p)
        eta = centered(rng, n, q)
        phi_var = phi.T @ phi / n
        cross = phi.T @ eta / n
        gram = eta.T @ eta / n
        sigma1 = random_spd(rng, q)
        rho = float(rng.uniform(0.2, 5.0))
        bounds = [
            efficiency_bound(phi_var, cross, gram, c * sigma1, rho)
            for c in (0.5, 1.0, 2.0, 8.0)
        ]
        gap = phi_var - bounds[1]
        min_gap = min(min_gap, np.linalg.eigvalsh((gap + gap.T) / 2.0).min())
        for lo, hi in zip(bounds, bounds[1:]):
            step = hi - lo
            min_step = min(min_step, np.linalg.eigvalsh((step + step.T) / 2.0).min())
    ok = min_gap > -1e-8 and min_step > -1e-8
    detail = (
        f"variance minus bound min eigenvalue {min_gap:.2e}, scaling-step min"
        f" eigenvalue {min_step:.2e} over 100 instances (both > -1e-8)"
    )
    assert report(9, ok, detail)


def test_criterion_10_adaptive_lasso_oracle(report):
    # two-coordinate instance small enough for an exhaustive 1e-3 grid
    x = np.array([[0.6, 0.1], [0.2, -0.5], [-0.3, 0.4], [0.4, 0.7]])
    y = np.array([0.8, -0.2, 0.3, 0.9])
    weights = np.array([1.0, 1.5])
    lam = 0.3
    b = adaptive_lasso(x, y, weights, lam)
    resid = y - x @ b
    cd_obj = float(resid @ resid) + lam * float(weights @ np.abs(b))
    grid = np.arange(-2.0, 2.0 + 1e-12, 1e-3)
    gram = x.T @ x
    xty = x.T @ y
    yty = float(y @ y)
    best = np.inf
    for b1 in grid:
        quad = (
            yty
            - 2.0 * (xty[0] * b1 + xty[1] * grid)
            + gram[0, 0] * b1 * b1
            + 2.0 * gram[0, 1] * b1 * grid
            + gram[1, 1] * grid * grid
        )
        pen = lam * (weights[0] * abs(b1) + weights[1] * np.abs(grid))
        best = min(best, float(np.min(quad + pen)))
    oracle_gap = abs(cd_obj - best)

    rng = np.random.default_rng(2207)
    subgrad_worst = 0.0
    for _ in range(25):
        n = int(rng.integers(8, 30))
        q = int(rng.integers(1, 5))
        xs = rng.standard_normal((n, q))
        ys = rng.standard_normal(n)
        w = rng.uniform(0.2, 3.0, size=q)
        lam_s = float(rng.uniform(0.0, 2.0))
        bs = adaptive_lasso(xs, ys, w, lam_s)
        grad = 2.0 * xs.T @ (ys - xs @ bs)
        for j in range(q):
            if bs[j] == 0.0:
                subgrad_worst = max(subgrad_worst, abs(grad[j]) - lam_s * w[j])
            else:
                subgrad_worst = max(
                    subgrad_worst, abs(grad[j] - lam_s * w[j] * np.sign(bs[j]))
                )

    b_free = adaptive_lasso(x, y, weights, 0.0)
    ls_gap = float(np.max(np.abs(b_free - np.linalg.lstsq(x, y, rcond=None)[0])))
    b_full = adaptive_lasso(x, y, weights, 1e9)
    zeros_exact = all(v == 0.0 for v in b_full)

    ok = oracle_gap <= 1e-6 and subgrad_worst <= 1e-8 and ls_gap <= 1e-8 and zeros_exact
    detail = (
        f"grid-oracle objective gap {oracle_gap:.2e} (<=1e-6); subgradient slack"
        f" {_gap(subgrad_worst)} (<=1e-8); lambda=0 vs least squares {_gap(ls_gap)};"
        f" lambda=inf all-zero {zeros_exact}"
    )
    assert report(10, ok, detail)


def test_criterion_11_closed_form_instance(report):
    result = estimate_eff(_example_instance())
    gap = abs(result.estimate[0] - 2.2)
    ok = gap <= 1e-12
    detail = f"four-point fused mean {float(result.estimate[0])!r} vs 2.2, gap {gap:.1e} (<=1e-12)"
    assert report(11, ok, detail)


def test_criterion_12_no_gain_entry(report):
    # homoscedastic two-regressor outcome, only the first marginal summary
    # bound: the second diagonal entry of the variance reduction vanishes
    rng = np.random.default_rng(2209)
    n = 10_000
    data, summary, _ = gen_scenario2(n, 4 * n, False, rng)
    tau = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
    )
    inputs = restrict_inputs(prepare_inputs(data, tau, [summary]), keep=(0,))
    eff = estimate_eff(inputs)
    int_ = estimate_int(inputs)
    correction = int_.avar - eff.avar
    phi2 = inputs.tau_fit.influence[:, 1]
    eta1 = inputs.beta_fit.influence[:, 0]
    se_cross = float(np.std(phi2 * eta1, ddof=1)) / np.sqrt(n)
    _, sigma_ext = external_covariance(inputs.summaries, inputs.n)
    _, _, gram = influence_moments(inputs.tau_fit, inputs.beta_fit)
    khat = float(sigma_ext[0, 0] + gram[0, 0])
    limit = (2.0 * se_cross) ** 2 / khat
    ok = abs(correction[1, 1]) <= limit
    detail = (
        f"unbound-coordinate variance reduction {correction[1, 1]:.2e}"
        f" (|.| <= {limit:.2e}, two MC SEs at n=10^4); bound coordinate gains"
        f" {correction[0, 0]:.3f}"
    )
    assert report(12, ok, detail)


def test_sanity_rmse_ordering(scen1):
    # known-beta <= fused <= internal-only, up to Monte Carlo error
    for m in M_GRID:
        knw = _row(scen1[m], "KNW")
        eff = _row(scen1[m], "EFF")
        int_ = _row(scen1[m], "INT")
        assert knw.rmse <= eff.rmse + 2.0 * float(np.hypot(knw.mc_se_rmse, eff.mc_se_rmse))
        assert eff.rmse <= int_.rmse + 2.0 * float(np.hypot(eff.mc_se_rmse, int_.mc_se_rmse))


def test_sanity_coverage_window(scen1, scen2_biased, scen2_unbiased):
    # correctly specified methods sit in the narrower [93, 97] band
    rows = [
        _row(scen1[m], method) for m in M_GRID for method in ("INT", "EFF")
    ]
    rows += [
        _row(scen2_unbiased, method, j)
        for method in ("INT", "EFF", "DBS", "ORC")
        for j in (0, 1)
    ]
    rows += [
        _row(scen2_biased, method, j)
        for method in ("INT", "DBS", "ORC")
        for j in (0, 1)
    ]
    cps = [row.cp for row in rows]
    assert min(cps) >= 93.0 and max(cps) <= 97.0


def test_criterion_13_thread_determinism(tmp_path, report):
    identical = []
    for cfg in (
        ScenarioConfig(scenario="I", n=300, m=200, reps=200, seed=5),
        ScenarioConfig(scenario="II_biased", n=250, m=1000, reps=100, seed=7),
    ):
        blobs = []
        for threads in (1, 4):
            out = tmp_path / f"{cfg.scenario}-t{threads}"
            out.mkdir()
            paths = export_tables(run_replications(cfg, threads=threads), out / "metrics.csv")
            blobs.append(tuple(p.read_bytes() for p in paths))
        identical.append(blobs[0] == blobs[1])
    ok = all(identical)
    detail = (
        f"1 vs 4 threads byte-identical CSVs: scenario I {identical[0]},"
        f" scenario II {identical[1]}"
    )
    assert report(13, ok, detail)
