"""Exact lasso homotopy: optimality, path/point agreement, and equivalence
with the coordinate-descent solver and cross-validation loop it replaced.

The coordinate-descent solver and the per-grid-point cross-validation loop
are kept below, unchanged, as the reference implementations.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import soft_threshold

from datafuse import (
    DebiasConfig,
    FunctionalDescriptor,
    FunctionalKind,
    adaptive_lasso,
    cv_tune,
    estimate_eff,
    gen_scenario1,
    gen_scenario2,
    kfold_indices,
    prepare_inputs,
    restrict_inputs,
    select_unbiased,
    whiten,
)
from datafuse.debias import _fit_tau, _lasso_path
from datafuse.errors import DataFuseError, FoldTooSmall, NoConvergence

REF_CD_TOL = 1e-10
REF_CD_MAX_SWEEPS = 10_000
KKT_TOL = 1e-10


# ---------------------------------------------------------------------------
# reference implementations


def _cd_lasso(x, y, weights, lam):
    """Cyclic coordinate descent for ||y - x b||^2 + lam * sum_j w_j |b_j|."""
    q = x.shape[1]
    pinned = ~np.isfinite(weights)
    col_sq = np.einsum("ij,ij->j", x, x)
    b = np.zeros(q)
    resid = y.copy()
    for _ in range(REF_CD_MAX_SWEEPS):
        delta = 0.0
        for j in range(q):
            if pinned[j] or col_sq[j] <= 0.0:
                continue
            old = b[j]
            zj = x[:, j] @ resid + col_sq[j] * old
            new = soft_threshold(zj, lam * weights[j] / 2.0) / col_sq[j]
            if new != old:
                resid += x[:, j] * (old - new)
                b[j] = new
                delta = max(delta, abs(new - old))
        if delta < REF_CD_TOL:
            return b
    raise NoConvergence(f"coordinate descent did not converge in {REF_CD_MAX_SWEEPS} sweeps")


def _cd_cv_tune(inputs, grid_c, w=1.0, alpha=2.0, k=3, seed=0):
    """Cross-validation with one coordinate-descent solve and one restricted
    EFF refit per (fold, grid point)."""
    grid = sorted(float(c) for c in grid_c)
    n = inputs.n
    folds = kfold_indices(n, k, seed)
    errors = np.zeros(len(grid))
    all_rows = np.arange(n)
    for fold_idx, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, test_rows)
        try:
            tau_test = _fit_tau(inputs, test_rows)
            train_inputs = prepare_inputs(
                inputs.data.subset(train_rows), inputs.tau, inputs.summaries
            )
            x, y = whiten(train_inputs)
        except DataFuseError as exc:
            raise FoldTooSmall(f"fold {fold_idx}: {exc}") from exc
        discrepancy = (
            np.concatenate([s.beta for s in inputs.summaries])
            - train_inputs.beta_fit.estimate
        )
        with np.errstate(divide="ignore"):
            weights = np.abs(discrepancy) ** (-float(alpha))
        n_train = train_rows.size
        cache = {}
        for g, c in enumerate(grid):
            lam = c * n_train ** (-float(w))
            b_hat = _cd_lasso(x, y, weights, lam)
            key = tuple(int(j) for j in np.flatnonzero(b_hat == 0.0))
            if key not in cache:
                if key:
                    cache[key] = estimate_eff(restrict_inputs(train_inputs, key)).estimate
                else:
                    cache[key] = train_inputs.tau_fit.estimate
            diff = tau_test - cache[key]
            errors[g] += float(diff @ diff) / len(folds)
    best = int(np.argmin(errors))
    trace = tuple((grid[g], float(errors[g])) for g in range(len(grid)))
    return grid[best], trace


def _kkt_slack(x, y, weights, lam, b) -> float:
    """Largest violation of the lasso optimality conditions at b; every
    infinite-weight coordinate must be exactly zero."""
    grad = 2.0 * x.T @ (y - x @ b)
    worst = 0.0
    for j in range(b.shape[0]):
        if not np.isfinite(weights[j]):
            assert b[j] == 0.0
        elif b[j] == 0.0:
            worst = max(worst, abs(grad[j]) - lam * weights[j])
        else:
            worst = max(worst, abs(grad[j] - lam * weights[j] * np.sign(b[j])))
    return worst


# ---------------------------------------------------------------------------
# solver properties


@st.composite
def _lasso_problems(draw):
    q = draw(st.integers(1, 5))
    n = draw(st.integers(q, q + 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((n, q)) * rng.uniform(0.2, 5.0, size=q)
    y = rng.standard_normal(n)
    kind = st.sampled_from(["finite"] * 4 + ["inf", "zero"])
    kinds = draw(st.lists(kind, min_size=q, max_size=q))
    weights = np.array(
        [{"finite": rng.uniform(0.1, 3.0), "inf": np.inf, "zero": 0.0}[kind] for kind in kinds]
    )
    # the largest lam with a nonzero penalized coordinate is at most this
    scale = 2.0 * float(np.max(np.abs(x.T @ y))) / min(weights[weights > 0.0], default=1.0)
    fractions = draw(st.lists(st.floats(0.0, 1.2), min_size=1, max_size=8))
    return x, y, weights, [f * scale for f in fractions]


@settings(max_examples=300, deadline=None)
@given(_lasso_problems())
def test_path_meets_kkt_and_matches_pointwise_solves(problem):
    x, y, weights, lams = problem
    path = _lasso_path(x, y, weights, lams)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for lam, b_path in zip(lams, path):
            b = adaptive_lasso(x, y, weights, lam)
            np.testing.assert_array_equal(b_path, b)
            assert _kkt_slack(x, y, weights, lam, b) <= KKT_TOL


def test_coordinate_rejoins_with_opposite_sign():
    # weights 1: coordinate 2 joins positive, leaves at zero, and rejoins
    # negative further down the path
    x = np.array([[0.3, 0.3, 1.7], [0.8, -1.0, -1.0], [1.4, 0.2, 0.9]])
    y = np.array([-0.1, -0.9, 0.3])
    weights = np.ones(3)
    lams = list(np.linspace(4.0, 0.0, 401))
    path = _lasso_path(x, y, weights, lams)
    signs = [int(np.sign(b[2])) for b in path]
    first_pos = signs.index(1)
    first_zero_after = signs.index(0, first_pos)
    assert -1 in signs[first_zero_after:]
    for lam, b in zip(lams, path):
        assert _kkt_slack(x, y, weights, lam, b) <= KKT_TOL
        np.testing.assert_array_equal(b == 0.0, _cd_lasso(x, y, weights, lam) == 0.0)
    np.testing.assert_allclose(path[-1], np.linalg.solve(x, y), atol=1e-12)


# ---------------------------------------------------------------------------
# equivalence with the coordinate-descent cross-validation


def _scenario_inputs(scenario: str, seed):
    data_seed, cv_seed = seed.spawn(2)
    rng = np.random.default_rng(data_seed)
    if scenario == "I":
        internal, summary, _ = gen_scenario1(1000, 1000, rng)
        tau = FunctionalDescriptor(
            FunctionalKind.AIPW_ATE,
            {"outcome": "Y", "treatment": "T", "covariates": ["X", "X2"]},
        )
    else:
        internal, summary, _ = gen_scenario2(1000, 4000, scenario == "II_biased", rng)
        tau = FunctionalDescriptor(
            FunctionalKind.JOINT_OLS,
            {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
        )
    return prepare_inputs(internal, tau, [summary]), cv_seed


@pytest.mark.parametrize("scenario", ["II_biased", "II_unbiased", "I"])
def test_cv_tune_matches_coordinate_descent_reference(scenario):
    cfg = DebiasConfig()
    for seed in np.random.SeedSequence(303).spawn(20):
        inputs, cv_seed = _scenario_inputs(scenario, seed)
        c_star, trace = cv_tune(inputs, cfg.grid_c, cfg.w, cfg.alpha, cfg.k, cv_seed)
        ref_c, ref_trace = _cd_cv_tune(inputs, cfg.grid_c, cfg.w, cfg.alpha, cfg.k, cv_seed)
        assert c_star == ref_c
        assert [c for c, _ in trace] == [c for c, _ in ref_trace]
        np.testing.assert_allclose(
            [e for _, e in trace], [e for _, e in ref_trace], rtol=0.0, atol=1e-10
        )
        lam = c_star * inputs.n ** (-cfg.w)
        x, y = whiten(inputs)
        discrepancy = (
            np.concatenate([s.beta for s in inputs.summaries]) - inputs.beta_fit.estimate
        )
        ref_b = _cd_lasso(x, y, np.abs(discrepancy) ** (-cfg.alpha), lam)
        selection = select_unbiased(inputs, lam, cfg.alpha)
        assert selection.selected == tuple(int(j) for j in np.flatnonzero(ref_b == 0.0))
        np.testing.assert_allclose(selection.b_hat, ref_b, rtol=0.0, atol=1e-8)
