"""Adaptive-lasso bias selection: solver optimality, tuning, and estimators."""

import numpy as np
import pytest

from helpers import mean_binding, synth_inputs

from datafuse import (
    DebiasConfig,
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionInputs,
    Method,
    adaptive_lasso,
    cv_tune,
    estimate_dbs,
    estimate_eff,
    estimate_int,
    estimate_orc,
    gen_scenario2,
    kfold_indices,
    prepare_inputs,
    restrict_inputs,
    select_unbiased,
    soft_threshold,
    validate_dataset,
    validate_summary,
    whiten,
)
from datafuse.errors import (
    DimensionMismatch,
    FoldTooSmall,
    MalformedInput,
)


def _diag_instance(beta_tilde=(0.5, 0.3), beta_int=(0.2, -0.1)):
    """gram = diag(1, 4), sigma_ext = diag(3, 5), so the whitening matrix is
    exactly diag(1/2, 1/3)."""
    eta = np.array([[1.0, 2.0], [-1.0, 2.0], [1.0, -2.0], [-1.0, -2.0]])
    phi = np.array([[0.5], [-0.5], [0.5], [-0.5]])
    summary = validate_summary(
        list(beta_tilde), np.diag([3.0, 5.0]), 4, mean_binding(2)
    )
    return FusionInputs(
        tau_fit=FunctionalFit([1.0], phi),
        beta_fit=FunctionalFit(list(beta_int), eta),
        summaries=(summary,),
    )


def _objective(x, y, weights, lam, b):
    resid = y - x @ b
    return float(resid @ resid) + lam * float(np.sum(weights * np.abs(b)))


# ---------------------------------------------------------------------------
# whitening and thresholding


def test_whiten_diagonal_instance():
    inputs = _diag_instance()
    x, y = whiten(inputs)
    np.testing.assert_allclose(x, np.diag([0.5, 1.0 / 3.0]), atol=1e-12)
    np.testing.assert_allclose(y, [0.5 * 0.3, 0.4 / 3.0], atol=1e-12)
    # the whitened quadratic reproduces (d - b)' K^{-1} (d - b) at b = 0
    d = np.array([0.3, 0.4])
    np.testing.assert_allclose(y @ y, d @ np.diag([0.25, 1.0 / 9.0]) @ d, atol=1e-12)


def test_soft_threshold_values():
    assert soft_threshold(3.0, 1.0) == 2.0
    assert soft_threshold(-3.0, 1.0) == -2.0
    assert soft_threshold(0.5, 1.0) == 0.0
    assert soft_threshold(-0.5, 1.0) == 0.0
    assert soft_threshold(2.0, 0.0) == 2.0


# ---------------------------------------------------------------------------
# coordinate descent


def test_lasso_zero_lambda_matches_least_squares():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 3))
    y = rng.standard_normal(20)
    b = adaptive_lasso(x, y, np.ones(3), 0.0)
    ls = np.linalg.lstsq(x, y, rcond=None)[0]
    np.testing.assert_allclose(b, ls, atol=1e-8)


def test_lasso_huge_lambda_exact_zeros():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((15, 4))
    y = rng.standard_normal(15)
    b = adaptive_lasso(x, y, np.ones(4), 1e6)
    assert all(v == 0.0 for v in b)


def test_lasso_subgradient_optimality():
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(8, 30))
        q = int(rng.integers(1, 5))
        x = rng.standard_normal((n, q))
        y = rng.standard_normal(n)
        weights = rng.uniform(0.2, 3.0, size=q)
        lam = float(rng.uniform(0.0, 2.0))
        b = adaptive_lasso(x, y, weights, lam)
        grad = 2.0 * x.T @ (y - x @ b)
        for j in range(q):
            if b[j] == 0.0:
                assert abs(grad[j]) <= lam * weights[j] + 1e-8
            else:
                assert abs(grad[j] - lam * weights[j] * np.sign(b[j])) <= 1e-8


def test_lasso_matches_two_dimensional_grid_oracle():
    # columns scaled small enough that the 1e-3 grid resolves the optimum
    # to better than 1e-6 in objective value
    x = np.array(
        [[0.6, 0.1], [0.2, -0.5], [-0.3, 0.4], [0.4, 0.7]]
    )
    y = np.array([0.8, -0.2, 0.3, 0.9])
    weights = np.array([1.0, 1.5])
    lam = 0.3
    b = adaptive_lasso(x, y, weights, lam)
    assert np.abs(b).max() < 1.9  # interior to the grid box
    cd_obj = _objective(x, y, weights, lam, b)
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
    assert cd_obj <= best + 1e-6
    assert best <= cd_obj + 1e-6


def test_lasso_objective_trace_non_increasing():
    rng = np.random.default_rng(9)
    x = rng.standard_normal((25, 4))
    y = rng.standard_normal(25)
    _, trace = adaptive_lasso(x, y, np.ones(4), 0.8, return_trace=True)
    assert len(trace) >= 1
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


def test_lasso_pinned_infinite_weights():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((12, 2))
    y = rng.standard_normal(12)
    with pytest.warns(UserWarning, match="pinned"):
        b = adaptive_lasso(x, y, np.array([np.inf, 1.0]), 0.1)
    assert b[0] == 0.0


def test_lasso_permutation_equivariance():
    rng = np.random.default_rng(13)
    x = rng.standard_normal((18, 3))
    y = rng.standard_normal(18)
    weights = np.array([0.5, 1.0, 2.0])
    perm = [2, 0, 1]
    b = adaptive_lasso(x, y, weights, 0.4)
    b_perm = adaptive_lasso(x[:, perm], y, weights[perm], 0.4)
    np.testing.assert_allclose(b_perm, b[perm], atol=1e-10)


def test_lasso_input_validation():
    x = np.ones((4, 2))
    y = np.ones(4)
    with pytest.raises(MalformedInput):
        adaptive_lasso(x, y, np.ones(2), -0.1)
    with pytest.raises(MalformedInput):
        adaptive_lasso(x, y, np.array([-1.0, 1.0]), 0.1)
    with pytest.raises(DimensionMismatch):
        adaptive_lasso(x, np.ones(3), np.ones(2), 0.1)
    with pytest.raises(DimensionMismatch):
        adaptive_lasso(x, y, np.ones(3), 0.1)


# ---------------------------------------------------------------------------
# selection


def test_select_unbiased_zeroes_small_discrepancy():
    # coordinate 0 discrepancy 0.05 (huge adaptive weight), coordinate 1
    # discrepancy 1.0 (weight 1): only coordinate 0 is selected
    inputs = _diag_instance(beta_tilde=(0.25, 0.9), beta_int=(0.2, -0.1))
    sel = select_unbiased(inputs, lam=0.05, alpha=2.0)
    assert sel.selected == (0,)
    assert sel.b_hat[0] == 0.0 and sel.b_hat[1] != 0.0


def test_select_unbiased_exact_agreement_pins_zero():
    inputs = _diag_instance(beta_tilde=(0.2, 0.9), beta_int=(0.2, -0.1))
    with pytest.warns(UserWarning, match="pinned"):
        sel = select_unbiased(inputs, lam=0.01)
    assert 0 in sel.selected


def test_select_unbiased_needs_summaries():
    data = validate_dataset({"Y": [1.0, 2.0, 3.0]}, outcome="Y")
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    inputs = prepare_inputs(data, tau, [])
    with pytest.raises(DimensionMismatch):
        select_unbiased(inputs, lam=0.1)
    with pytest.raises(DimensionMismatch):
        cv_tune(inputs, [1.0])


def test_estimate_orc_paths():
    rng = np.random.default_rng(15)
    inputs = synth_inputs(rng, n=50, p=1, q=3)
    full = estimate_orc(inputs, (0, 1, 2))
    assert full.method is Method.ORC
    eff = estimate_eff(restrict_inputs(inputs, (0, 1, 2)))
    np.testing.assert_allclose(full.estimate, eff.estimate, atol=1e-14)
    part = estimate_orc(inputs, (2, 0))
    sub = estimate_eff(restrict_inputs(inputs, (0, 2)))
    np.testing.assert_allclose(part.estimate, sub.estimate, atol=1e-14)
    empty = estimate_orc(inputs, ())
    internal = estimate_int(inputs)
    assert empty.method is Method.ORC
    np.testing.assert_allclose(empty.estimate, internal.estimate, atol=1e-14)
    assert any("internal-only" in w for w in empty.warnings)


# ---------------------------------------------------------------------------
# folds and cross-validation


def test_kfold_balanced_partition():
    folds = kfold_indices(10, 3, seed=0)
    sizes = sorted(f.size for f in folds)
    assert sizes == [3, 3, 4]
    merged = np.sort(np.concatenate(folds))
    np.testing.assert_array_equal(merged, np.arange(10))
    again = kfold_indices(10, 3, seed=0)
    for a, b in zip(folds, again):
        np.testing.assert_array_equal(a, b)
    other = kfold_indices(10, 3, seed=1)
    assert any(not np.array_equal(a, b) for a, b in zip(folds, other))
    with pytest.raises(MalformedInput):
        kfold_indices(5, 6, seed=0)
    with pytest.raises(MalformedInput):
        kfold_indices(5, 1, seed=0)


def test_kfold_rejects_fractional_k_and_negative_seed():
    # k=2.5 used to split into 2 folds silently, seed=-1 raised numpy's ValueError
    with pytest.raises(MalformedInput):
        kfold_indices(10, 2.5, seed=0)
    with pytest.raises(MalformedInput):
        kfold_indices(10, 3, seed=-1)


def _mean_cv_inputs(beta_tilde, n=12, seed=21):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    data = validate_dataset({"X": x, "Y": y}, outcome="Y")
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    summary = validate_summary(
        [beta_tilde],
        [[1.0]],
        n,
        [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})],
    )
    return prepare_inputs(data, tau, [summary])


def test_cv_tune_requires_refittable_inputs():
    rng = np.random.default_rng(17)
    bare = synth_inputs(rng, n=30, p=1, q=1)
    with pytest.raises(MalformedInput):
        cv_tune(bare, [1.0])


def test_cv_tune_grid_validation_and_singleton():
    inputs = _mean_cv_inputs(beta_tilde=0.1)
    with pytest.raises(MalformedInput):
        cv_tune(inputs, [])
    with pytest.raises(MalformedInput):
        cv_tune(inputs, [1.0, -2.0])
    c_star, trace = cv_tune(inputs, [7.0], seed=1)
    assert c_star == 7.0
    assert len(trace) == 1 and trace[0][0] == 7.0


def test_cv_tune_deterministic_and_ties_break_small():
    inputs = _mean_cv_inputs(beta_tilde=0.05)
    a = cv_tune(inputs, [2.0, 5.0, 20.0], seed=3)
    b = cv_tune(inputs, [2.0, 5.0, 20.0], seed=3)
    assert a == b
    # two huge loadings zero everything in every fold: identical errors,
    # and the tie goes to the smaller constant
    c_star, trace = cv_tune(inputs, [50.0, 100.0], seed=3)
    assert trace[0][1] == trace[1][1]
    assert c_star == 50.0


def test_cv_tune_fold_failure_is_typed():
    data = validate_dataset(
        {
            "Y": [1.0, 2.0, 3.0, 4.0],
            "T": [0.0, 0.0, 1.0, 1.0],
            "X": [0.1, 0.4, 0.2, 0.3],
        },
        outcome="Y",
        treatment="T",
        covariates=("X",),
    )
    tau = FunctionalDescriptor(
        FunctionalKind.AIPW_ATE,
        {"outcome": "Y", "treatment": "T", "covariates": ["X"]},
    )
    summary = validate_summary(
        [0.0], [[1.0]], 4, [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})]
    )
    inputs = prepare_inputs(data, tau, [summary])
    with pytest.raises(FoldTooSmall):
        cv_tune(inputs, [1.0], k=2, folds=[np.array([0, 1]), np.array([2, 3])])


def test_cv_tune_rejects_folds_outside_the_rows():
    inputs = _mean_cv_inputs(beta_tilde=0.1)
    for bad in (
        [np.arange(0, 6), np.arange(6, 13)],
        [np.array([-1, 0, 1, 2, 3, 4]), np.arange(5, 12)],
        [np.array([0.0, 1.0, 2.0, 3.0]), np.arange(4, 12)],
        [np.array([], dtype=int), np.arange(12)],
    ):
        with pytest.raises(MalformedInput):
            cv_tune(inputs, [1.0], folds=bad)


# ---------------------------------------------------------------------------
# config


def test_debias_config_defaults_and_validation():
    cfg = DebiasConfig()
    np.testing.assert_allclose(cfg.grid_c, np.logspace(0.0, 2.0, 10), atol=1e-12)
    assert cfg.alpha == 2.0 and cfg.w == 1.0 and cfg.k == 3
    assert DebiasConfig(grid_c=(5.0, 1.0)).grid_c == (1.0, 5.0)
    with pytest.raises(MalformedInput):
        DebiasConfig(w=0.5)
    with pytest.raises(MalformedInput):
        DebiasConfig(w=1.6, alpha=2.0)
    with pytest.raises(MalformedInput):
        DebiasConfig(alpha=0.0)
    with pytest.raises(MalformedInput):
        DebiasConfig(k=1)
    with pytest.raises(MalformedInput):
        DebiasConfig(grid_c=(0.0, 1.0))
    with pytest.raises(MalformedInput):
        DebiasConfig(lambda_fixed=-1.0)
    with pytest.raises(MalformedInput):
        DebiasConfig.from_dict({"alpha": 2.0, "penalty": "l1"})
    assert DebiasConfig.from_dict({"grid_c": [2.0], "k": 2}).grid_c == (2.0,)


# ---------------------------------------------------------------------------
# debiased estimator


def test_estimate_dbs_fixed_lambda_paths():
    inputs = _mean_cv_inputs(beta_tilde=5.0)
    # unpenalized: the bias estimate is nonzero, selection empty, INT fallback
    result, sel = estimate_dbs(inputs, DebiasConfig(lambda_fixed=0.0))
    assert sel.selected == ()
    assert result.method is Method.DBS
    np.testing.assert_allclose(
        result.estimate, estimate_int(inputs).estimate, atol=1e-14
    )
    assert any("empty selection" in w for w in result.warnings)
    # crushing penalty: everything selected, numbers match the fused fit
    result2, sel2 = estimate_dbs(inputs, DebiasConfig(lambda_fixed=1e9))
    assert sel2.selected == (0,)
    eff = estimate_eff(inputs)
    np.testing.assert_allclose(result2.estimate, eff.estimate, atol=1e-14)
    np.testing.assert_allclose(result2.avar, eff.avar, atol=1e-14)
    assert result2.method is Method.DBS


def test_estimate_dbs_detects_biased_coordinate():
    rng = np.random.default_rng(100)
    internal, summary, truth = gen_scenario2(1000, 4000, True, rng)
    tau = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
    )
    inputs = prepare_inputs(internal, tau, [summary])
    result, sel = estimate_dbs(inputs, DebiasConfig(seed=0))
    assert sel.selected == (0,)
    assert sel.b_hat[1] != 0.0
    assert len(sel.cv_trace) == 10
    orc = estimate_orc(inputs, truth["unbiased"])
    np.testing.assert_allclose(result.estimate, orc.estimate, atol=1e-14)


def test_estimate_dbs_keeps_unbiased_summaries():
    # with no bias present the full summary should survive selection on a
    # clear majority of replications
    reps, hits = 50, 0
    root = np.random.SeedSequence(2024)
    tau = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
    )
    for seed in root.spawn(reps):
        data_seed, cv_seed = seed.spawn(2)
        internal, summary, _ = gen_scenario2(
            1000, 4000, False, np.random.default_rng(data_seed)
        )
        inputs = prepare_inputs(internal, tau, [summary])
        _, sel = estimate_dbs(inputs, DebiasConfig(seed=cv_seed))
        hits += sel.selected == (0, 1)
    assert hits >= int(0.85 * reps)
