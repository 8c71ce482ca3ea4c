"""Adaptive-lasso bias selection: solver optimality, tuning, and estimators."""

import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import mean_binding, synth_inputs
from oracles import lasso_trace, soft_threshold

from datafuse import (
    DebiasConfig,
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionInputs,
    Method,
    adaptive_lasso,
    cv_tune,
    efficiency_bound,
    estimate_dbs,
    estimate_eff,
    estimate_int,
    estimate_orc,
    gen_scenario1,
    gen_scenario2,
    kfold_indices,
    prepare_inputs,
    restrict_inputs,
    select_unbiased,
    validate_dataset,
    validate_summary,
    wald_inference,
    whiten,
)
from datafuse import debias, functionals
from datafuse.debias import _FoldFits, _fit_tau
from datafuse.fusion import _prepare
from datafuse.errors import (
    DimensionMismatch,
    FoldTooSmall,
    MalformedInput,
    NoConvergence,
    NonFiniteValue,
    PropensityDegenerate,
    RankDeficientDesign,
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
    _, trace = lasso_trace(x, y, np.ones(4), 0.8)
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


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("arg", ["x", "y"])
def test_lasso_rejects_non_finite_x_or_y(arg, bad):
    # unchecked, a NaN in x or y gave a wrong b with no error
    rng = np.random.default_rng(15)
    args = {"x": rng.standard_normal((6, 2)), "y": rng.standard_normal(6)}
    args[arg].flat[0] = bad
    with pytest.raises(NonFiniteValue):
        adaptive_lasso(args["x"], args["y"], np.ones(2), 0.1)


# ---------------------------------------------------------------------------
# selection


def test_lasso_rejects_collinear_active_columns():
    # two equal columns of zero weight are active from the start, and their
    # block of x'x, [[1, 1], [1, 1]], has no Cholesky factor
    x = np.array([[1.0, 1.0], [0.0, 0.0]])
    with pytest.raises(RankDeficientDesign, match="collinear"):
        adaptive_lasso(x, np.array([1.0, 2.0]), np.zeros(2), 0.5)


def test_lasso_path_stops_at_the_knot_cap(monkeypatch):
    # the path down to lam = 0 has three segments, split at the knots
    # lam = 6 and 2: a cap of two stops it before the last
    monkeypatch.setattr(debias, "_MAX_KNOTS", 2)
    with pytest.raises(NoConvergence, match="within 2 knots"):
        adaptive_lasso(np.eye(2), np.array([3.0, 1.0]), np.ones(2), 0.0)
    monkeypatch.setattr(debias, "_MAX_KNOTS", 3)
    assert adaptive_lasso(np.eye(2), np.array([3.0, 1.0]), np.ones(2), 0.0).tolist() == [3.0, 1.0]


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


def test_a_summary_with_no_coordinates_leaves_dbs_at_the_internal_estimate():
    # cross-validation raised numpy's ValueError (np.concatenate of no arrays)
    data = validate_dataset({"Y": np.arange(12.0) % 5})
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    inputs = prepare_inputs(data, tau, [validate_summary([], np.zeros((0, 0)), 10, [])])
    result, selection = estimate_dbs(inputs)
    assert selection.selected == ()
    np.testing.assert_array_equal(result.estimate, estimate_int(inputs).estimate)


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


# int() used to coerce these: 0.5 fused coordinate 0, True coordinate 1 and a
# float array its entries; a string raised a raw ValueError and None or an
# integer a raw TypeError
_UNCHECKED_COORDINATE_SETS = {
    "float": [0.5],
    "bool": [True],
    "float-array": np.array([0.0]),
    "string": "ab",
    "none": None,
    "integer": 1,
}


@pytest.mark.parametrize(
    "keep", _UNCHECKED_COORDINATE_SETS.values(), ids=_UNCHECKED_COORDINATE_SETS.keys()
)
@pytest.mark.parametrize("call", [estimate_orc, restrict_inputs], ids=lambda f: f.__name__)
def test_coordinate_sets_are_checked_not_coerced(call, keep):
    inputs = synth_inputs(np.random.default_rng(15), n=50, p=1, q=3)
    with pytest.raises(MalformedInput):
        call(inputs, keep)


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


def test_kfold_rejects_a_non_integer_row_count():
    # n=10.0 raised numpy's AxisError
    with pytest.raises(MalformedInput):
        kfold_indices(10.0, 2, seed=0)


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


_NON_FINITE_TUNING = {
    "cv_tune-grid_c-nan": lambda inputs: cv_tune(inputs, [1.0, np.nan]),
    "cv_tune-grid_c-inf-generator": lambda inputs: cv_tune(inputs, (c for c in [np.inf])),
    "cv_tune-w-nan": lambda inputs: cv_tune(inputs, [1.0], w=np.nan),
    "cv_tune-alpha-inf": lambda inputs: cv_tune(inputs, [1.0], alpha=np.inf),
    "cv_tune-alpha-zero": lambda inputs: cv_tune(inputs, [1.0], alpha=0.0),
    "select_unbiased-lam-nan": lambda inputs: select_unbiased(inputs, np.nan),
    "select_unbiased-alpha-negative": lambda inputs: select_unbiased(inputs, 0.1, alpha=-1.0),
    "select_unbiased-alpha-zero": lambda inputs: select_unbiased(inputs, 0.1, alpha=0),
    "select_unbiased-alpha-inf": lambda inputs: select_unbiased(inputs, 0.1, alpha=np.inf),
    "adaptive_lasso-lam-inf": lambda inputs: adaptive_lasso(np.eye(2), [1, 1], [1, 1], np.inf),
    "adaptive_lasso-weight-nan": lambda inputs: adaptive_lasso(
        np.eye(2), [1, 1], [np.nan, 1], 0.1
    ),
    "efficiency_bound-rho-nan": lambda inputs: efficiency_bound(1.0, 0.5, 1.0, 1.0, np.nan),
    "efficiency_bound-rho-inf": lambda inputs: efficiency_bound(1.0, 0.5, 1.0, 1.0, np.inf),
    "wald_inference-null-nan": lambda inputs: wald_inference(estimate_int(inputs), null=np.nan),
    "wald_inference-null-inf-entry": lambda inputs: wald_inference(
        estimate_int(inputs), null=[np.inf]
    ),
}


@pytest.mark.parametrize("call", _NON_FINITE_TUNING.values(), ids=_NON_FINITE_TUNING.keys())
def test_non_finite_tuning_and_test_values_are_malformed(call):
    # unchecked, these give a NaN c_star, b_hat, bound, z or p (alpha = 0, a
    # plain lasso; a NaN weight pins its coordinate) instead of failing
    with pytest.raises(MalformedInput):
        call(_mean_cv_inputs(beta_tilde=0.1))


def test_select_unbiased_names_a_nan_alpha():
    # a NaN alpha made NaN weights, reported as "weights must be non-negative"
    with pytest.raises(MalformedInput, match="alpha"):
        select_unbiased(_mean_cv_inputs(beta_tilde=0.1), 0.1, alpha=np.nan)


def test_cv_tune_takes_any_iterable_grid():
    inputs = _mean_cv_inputs(beta_tilde=0.05)
    expected = cv_tune(inputs, [2.0, 5.0, 20.0], seed=3)
    assert cv_tune(inputs, iter([20.0, 2.0, 5.0]), seed=3) == expected
    assert cv_tune(inputs, np.array([5.0, 20.0, 2.0]), seed=3) == expected


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


def _aipw_inputs(n=600, seed=5):
    internal, summary, _ = gen_scenario1(n, n, np.random.default_rng(seed))
    tau = FunctionalDescriptor(
        FunctionalKind.AIPW_ATE, {"outcome": "Y", "treatment": "T", "covariates": ["X", "X2"]}
    )
    return prepare_inputs(internal, tau, [summary])


def _without_start(inputs):
    """The same inputs with a target fit that carries no propensity start."""
    tau_fit = FunctionalFit(inputs.tau_fit.estimate, inputs.tau_fit.influence)
    return FusionInputs(tau_fit, inputs.beta_fit, inputs.summaries, inputs.data, inputs.tau)


def _record_starts(monkeypatch) -> list:
    starts = []
    newton = functionals._newton_logistic

    def recording(design, y, context, start=None):
        starts.append(start is not None)
        return newton(design, y, context, start)

    monkeypatch.setattr(functionals, "_newton_logistic", recording)
    return starts


def test_cv_tune_warm_starts_aipw_fold_refits(monkeypatch):
    starts = _record_starts(monkeypatch)
    inputs = _aipw_inputs()
    assert starts == [False]  # the full-data fit is cold
    grid = DebiasConfig().grid_c
    warm = cv_tune(inputs, grid, k=3, seed=4)
    # per fold: the held-out target fit and the train-rows target fit
    assert starts[1:] == [True] * 6
    del starts[:]
    cold = cv_tune(_without_start(inputs), grid, k=3, seed=4)
    assert starts == [False] * 6
    assert warm[0] == cold[0]
    assert [c for c, _ in warm[1]] == [c for c, _ in cold[1]]
    np.testing.assert_allclose([e for _, e in warm[1]], [e for _, e in cold[1]], rtol=1e-9, atol=0.0)


def test_cv_tune_reruns_a_failing_warm_fold_cold(monkeypatch):
    real = functionals._fit_aipw

    def failing_warm(*args, start=None, **kwargs):
        if start is not None:
            raise PropensityDegenerate("warm start failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(functionals, "_fit_aipw", failing_warm)
    inputs = _aipw_inputs(n=300)
    assert cv_tune(inputs, [1.0, 10.0], seed=2) == cv_tune(_without_start(inputs), [1.0, 10.0], seed=2)
    # a fold whose cold fit fails too reports the cold fit's error
    monkeypatch.setattr(functionals, "_fit_aipw", real)
    data = validate_dataset(
        {"Y": [1.0, 2.0, 3.0, 4.0], "T": [0.0, 0.0, 1.0, 1.0], "X": [0.1, 0.4, 0.2, 0.3]}
    )
    tau = FunctionalDescriptor(
        FunctionalKind.AIPW_ATE, {"outcome": "Y", "treatment": "T", "covariates": ["X"]}
    )
    summary = validate_summary(
        [0.0], [[1.0]], 4, [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})]
    )
    small = prepare_inputs(data, tau, [summary])
    folds = [np.array([0, 1]), np.array([2, 3])]
    messages = []
    for case in (small, _without_start(small)):
        with pytest.raises(FoldTooSmall) as info:
            cv_tune(case, [1.0], k=2, folds=folds)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("slot", ["binding", "target"])
def test_folds_with_an_ill_conditioned_design_are_refitted(slot):
    # X2 = X1 + 1e-3 noise: the joint design of X1 and X2 has full rank, but
    # its second moment scaled to unit diagonal has condition number about
    # 1e6, more than the sums are trusted with. As the binding, on every
    # row, it has every fold refitted whole. As the target, on fold 0's
    # held-out rows only, where only the estimate would be read, it has fold
    # 0 refitted; the other folds stay on the sums.
    rng = np.random.default_rng(23)
    n = 150
    x1 = rng.standard_normal(n)
    close = np.arange(n) < (n if slot == "binding" else 50)
    x2 = np.where(close, x1 + 1e-3 * rng.standard_normal(n), rng.standard_normal(n))
    data = validate_dataset({"Y": x1 + x2 + rng.standard_normal(n), "X1": x1, "X2": x2})
    joint = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X1", "X2"]}
    )
    mean = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X1"})
    tau, binding = (mean, joint) if slot == "binding" else (joint, mean)
    q = binding.width()
    inputs = prepare_inputs(data, tau, [validate_summary(np.zeros(q), np.eye(q), 500, [binding])])
    folds = [np.arange(0, 50), np.arange(50, 100), np.arange(100, 150)]
    fits = _FoldFits([inputs], [folds])
    assert fits.refit.tolist() == [True, slot == "binding", slot == "binding"]
    for f in np.flatnonzero(fits.refit):
        tau_test, calib = fits.fold(f)
        ref = _prepare([data.subset(fits.train_rows(f))], tau, [inputs.summaries])[0]._calibration
        assert np.array_equal(tau_test, _fit_tau(inputs, folds[f]))
        for field in ("tau", "phi_var", "cross", "gram", "residual", "sigma_ext"):
            assert np.array_equal(getattr(calib, field), getattr(ref, field)), field
    c_star, trace = cv_tune(inputs, DebiasConfig().grid_c, folds=folds)
    assert c_star in DebiasConfig().grid_c and np.all(np.isfinite([e for _, e in trace]))


def test_scenario_ii_folds_are_read_from_sums():
    # the well-posed folds of a Scenario II dataset are all read from moment
    # sums, none refitted
    internal, summary, _ = gen_scenario2(1000, 4000, True, np.random.default_rng(3))
    tau = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
    )
    inputs = prepare_inputs(internal, tau, [summary])
    assert not _FoldFits([inputs], [kfold_indices(1000, 3, 0)]).refit.any()


def test_estimate_dbs_from_threads_sharing_inputs_matches_serial(monkeypatch):
    # estimate_dbs hands each tuning to its cv_tune call within one thread,
    # so threads running other configs on the same inputs never see it, even
    # with a wrapper that yields between the two (as bench/layers.py's do)
    internal, summary, _ = gen_scenario2(300, 1200, True, np.random.default_rng(8))
    tau = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
    )
    inputs = prepare_inputs(internal, tau, [summary])
    configs = [DebiasConfig(grid_c=(c, 4.0 * c), seed=i) for i, c in enumerate((0.5, 2.0, 8.0))]
    want = [estimate_dbs(inputs, config)[1].cv_trace for config in configs]
    cv_tune = debias.cv_tune

    def yielding(*args, **kwargs):
        time.sleep(1e-4)
        return cv_tune(*args, **kwargs)

    monkeypatch.setattr(debias, "cv_tune", yielding)
    got = {}

    def work(i):
        got[i] = [estimate_dbs(inputs, configs[i])[1].cv_trace for _ in range(20)]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(configs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert [got[i] for i in range(len(configs))] == [[trace] * 20 for trace in want]


def test_cv_tune_rejects_folds_outside_the_rows():
    inputs = _mean_cv_inputs(beta_tilde=0.1)
    for bad in (
        [np.arange(0, 6), np.arange(6, 13)],
        [np.array([-1, 0, 1, 2, 3, 4]), np.arange(5, 12)],
        [np.array([0.0, 1.0, 2.0, 3.0]), np.arange(4, 12)],
        [np.array([], dtype=int), np.arange(12)],
        # fewer than 2 folds
        [],
        [np.arange(12)],
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
    # w's range (0.5, (alpha + 1) / 2) is empty at alpha = 0: alpha is named first
    with pytest.raises(MalformedInput, match=r"^alpha must be positive, got 0\.0$"):
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


def test_target_component_selects_one_coefficient():
    # a joint_ols target with component=1 is coefficient 1 of the full fit, in
    # the calibration and in the cross-validation refits alike
    rng = np.random.default_rng(17)
    n = 300
    x = rng.standard_normal(n)
    y = 1.0 + 2.0 * x + rng.standard_normal(n)
    data = validate_dataset({"X": x, "Y": y}, outcome="Y")
    mean_x = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})
    summary = validate_summary([0.01], [[1.0]], 1000, [mean_x])
    tau = FunctionalDescriptor(FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X"]})
    full = prepare_inputs(data, tau, [summary])
    part = prepare_inputs(data, replace(tau, component=1), [summary])
    for run in (estimate_int, lambda inputs: estimate_dbs(inputs)[0]):
        whole, one = run(full), run(part)
        assert one.estimate.shape == (1,) and one.se.shape == (1,)
        np.testing.assert_allclose(one.estimate, whole.estimate[1:], rtol=1e-12, atol=0)
        np.testing.assert_allclose(one.se, whole.se[1:], rtol=1e-12, atol=0)
    assert estimate_dbs(part)[1].selected == estimate_dbs(full)[1].selected == (0,)
