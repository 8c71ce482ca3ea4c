"""Influence-function fitters: frozen values, identities, and sampling checks."""

import inspect
import json
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
from helpers import logistic_coef
from scipy.special import expit

from datafuse import (
    FunctionalDescriptor,
    FunctionalKind,
    evaluate_binding,
    fit_aipw_ate,
    fit_functional,
    fit_joint_ols,
    fit_marginal_ols,
    fit_mean,
    gen_scenario1,
    validate_dataset,
)
from datafuse import functionals
from datafuse.functionals import _FITTERS, _ols_fit
from datafuse.model import _ARGS
from datafuse.errors import (
    DataFuseError,
    DegenerateRegressor,
    EmptyArm,
    MalformedInput,
    MissingColumn,
    NonBinaryTreatment,
    PropensityDegenerate,
    RankDeficientDesign,
    Separation,
)


def _data(**cols):
    roles = {}
    if "T" in cols:
        roles["treatment"] = "T"
    if "Y" in cols:
        roles["outcome"] = "Y"
    return validate_dataset(cols, **roles)


# ---------------------------------------------------------------------------
# means


def test_fit_mean_values():
    fit = fit_mean(_data(X=[1.0, 2.0, 3.0]), "X")
    assert fit.estimate[0] == 2.0
    np.testing.assert_array_equal(fit.influence[:, 0], [-1.0, 0.0, 1.0])
    assert fit_mean(_data(X=[5.0, 5.0, 5.0]), "X").estimate[0] == 5.0
    assert fit_mean(_data(X=[0.0, 1.0, 2.0, 3.0]), "X").estimate[0] == 1.5
    with pytest.raises(MissingColumn):
        fit_mean(_data(X=[1.0, 2.0]), "Z")


def test_fit_mean_where_subgroup():
    data = _data(Y=[1.0, 2.0, 3.0, 10.0], T=[0, 0, 0, 1])
    fit = fit_mean(data, "Y", where={"column": "T", "equals": 0.0})
    assert fit.estimate[0] == 2.0
    # ratio-form influence stays mean-zero over the full sample
    assert abs(fit.influence[:, 0].mean()) < 1e-12
    assert fit.influence[3, 0] == 0.0
    with pytest.raises(EmptyArm):
        fit_mean(data, "Y", where={"column": "T", "equals": 2.0})


# ---------------------------------------------------------------------------
# least squares


def test_joint_ols_frozen_example():
    data = _data(Y=[1.0, 2.0, 2.0, 5.0], X=[0.0, 1.0, 2.0, 3.0])
    fit = fit_joint_ols(data, "Y", ["X"], intercept=True)
    np.testing.assert_allclose(fit.estimate, [0.7, 1.2], atol=1e-12)
    assert np.abs(fit.influence.mean(axis=0)).max() < 1e-12


def test_joint_ols_perfect_fit():
    x = np.array([1.0, 2.0, 3.0, 4.0])
    fit = fit_joint_ols(_data(Y=2.0 * x, X=x), "Y", ["X"], intercept=False)
    np.testing.assert_allclose(fit.estimate, [2.0], atol=1e-12)
    assert np.abs(fit.influence).max() < 1e-10


def test_joint_ols_rank_deficient():
    data = _data(Y=[1.0, 2.0, 3.0], A=[1.0, 2.0, 3.0], B=[1.0, 2.0, 3.0])
    with pytest.raises(RankDeficientDesign):
        fit_joint_ols(data, "Y", ["A", "B"], intercept=False)


def test_joint_ols_sandwich_identity():
    # E(eta eta') must equal the sandwich bread^-1 meat bread^-1 exactly
    rng = np.random.default_rng(11)
    n = 60
    x1 = rng.standard_normal(n)
    x2 = rng.standard_normal(n)
    y = 1.0 + x1 - 2.0 * x2 + rng.standard_normal(n) * (1.0 + 0.5 * np.abs(x1))
    fit = fit_joint_ols(_data(Y=y, X1=x1, X2=x2), "Y", ["X1", "X2"], intercept=True)
    design = np.column_stack([np.ones(n), x1, x2])
    resid = y - design @ np.linalg.solve(design.T @ design, design.T @ y)
    bread = np.linalg.inv(design.T @ design / n)
    meat = (design * resid[:, None]).T @ (design * resid[:, None]) / n
    gram_emp = fit.influence.T @ fit.influence / n
    np.testing.assert_allclose(gram_emp, bread @ meat @ bread, atol=1e-10)


def _ols_fit_normal_equations(design, y):
    """Reference: SVD rank check, normal-equation solve, and a Cholesky solve
    of the Gram for the influence rows (three factorizations)."""
    s = np.linalg.svd(design, compute_uv=False)
    if s[-1] <= 1e-10 * s[0]:
        raise RankDeficientDesign("design matrix is rank deficient")
    n = design.shape[0]
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ coef
    cho = scipy.linalg.cho_factor(design.T @ design / n, lower=True)
    return coef, scipy.linalg.cho_solve(cho, (design * resid[:, None]).T).T


def test_ols_fit_matches_normal_equation_reference():
    rng = np.random.default_rng(47)
    for n, p in ((8, 1), (30, 2), (200, 3), (1000, 5)):
        design = np.column_stack([np.ones(n), 3.0 * rng.standard_normal((n, p - 1))])
        y = design @ rng.standard_normal(p) + rng.standard_normal(n)
        coef, infl = _ols_fit(design, y, "probe")
        ref_coef, ref_infl = _ols_fit_normal_equations(design, y)
        np.testing.assert_allclose(coef, ref_coef, rtol=1e-10, atol=1e-10)
        np.testing.assert_allclose(infl, ref_infl, rtol=1e-10, atol=1e-10)


def test_ols_fit_rank_threshold():
    rng = np.random.default_rng(53)
    n = 100
    x = rng.standard_normal(n)
    y = x + rng.standard_normal(n)
    with pytest.raises(RankDeficientDesign):
        _ols_fit(np.column_stack([np.ones(n), x, 2.0 * x]), y, "collinear")
    with pytest.raises(RankDeficientDesign):
        _ols_fit(rng.standard_normal((2, 3)), y[:2], "fewer rows than columns")
    # singular-value ratio 1e-6 sits well above the 1e-10 rank threshold
    u, _ = np.linalg.qr(rng.standard_normal((n, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    design = (u * [1.0, 1e-3, 1e-6]) @ v.T
    coef, infl = _ols_fit(design, y, "ill-conditioned")
    np.testing.assert_allclose(coef, np.linalg.lstsq(design, y, rcond=None)[0], rtol=1e-7)
    assert np.all(np.isfinite(infl))


def test_rank_check_does_not_depend_on_column_units():
    # a covariate on a scale of 1e11 used to be rejected as rank deficient;
    # rescaled columns leave the check and the fitted numbers as they were
    rng = np.random.default_rng(59)
    x = rng.standard_normal(200)
    y = 1.0 + x + rng.standard_normal(200)
    base = fit_joint_ols(_data(Y=y, X=x), "Y", ["X"])
    scaled = fit_joint_ols(_data(Y=y, X=1e11 * x), "Y", ["X"])
    np.testing.assert_allclose(scaled.estimate * [1.0, 1e11], base.estimate, rtol=1e-12)
    for z in (2e11 * x, np.zeros(200)):  # exactly collinear, then a zero column
        with pytest.raises(RankDeficientDesign):
            fit_joint_ols(_data(Y=y, X=1e11 * x, Z=z), "Y", ["X", "Z"])


def test_marginal_ols_values():
    x = np.array([1.0, 2.0, 3.0])
    fit = fit_marginal_ols(_data(Y=np.array([2.0, 1.0, 4.0]), X=x), "Y", "X")
    np.testing.assert_allclose(fit.estimate, [8.0 / 7.0], atol=1e-14)
    exact = fit_marginal_ols(_data(Y=3.0 * x, X=x), "Y", "X")
    np.testing.assert_allclose(exact.estimate, [3.0], atol=1e-12)
    assert np.abs(exact.influence).max() < 1e-10
    orth = fit_marginal_ols(_data(Y=[1.0, 1.0], X=[1.0, -1.0]), "Y", "X")
    assert orth.estimate[0] == 0.0
    np.testing.assert_allclose(orth.influence[:, 0], [1.0, -1.0], atol=1e-14)


def test_marginal_ols_degenerate():
    with pytest.raises(DegenerateRegressor):
        fit_marginal_ols(_data(Y=[1.0, 2.0], X=[0.0, 0.0]), "Y", "X")


def test_marginal_batch_matches_normal_equations():
    rng = np.random.default_rng(23)
    n = 200
    chol = np.array([[1.0, 0.0], [0.6, 0.8]])
    xs = rng.standard_normal((n, 2)) @ chol.T
    y = xs[:, 0] + xs[:, 1] + 2.0 * rng.standard_normal(n)
    data = _data(Y=y, X1=xs[:, 0], X2=xs[:, 1])
    fits = [fit_marginal_ols(data, "Y", name) for name in ("X1", "X2")]
    brute = np.array([xs[:, j] @ y / (xs[:, j] @ xs[:, j]) for j in range(2)])
    np.testing.assert_allclose([f.estimate[0] for f in fits], brute, atol=1e-10)
    for fit in fits:
        assert fit.influence.shape == (n, 1)
        assert np.abs(fit.influence.mean(axis=0)).max() < 1e-10


# ---------------------------------------------------------------------------
# logistic regression


def test_logistic_balanced_independent():
    data = _data(T=[0.0, 1.0, 0.0, 1.0], X=[1.0, 1.0, -1.0, -1.0])
    coef = logistic_coef(data, "T", ["X"])
    np.testing.assert_allclose(coef, [0.0, 0.0], atol=1e-10)


def test_logistic_score_zero_at_optimum():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(300)
    t = (rng.random(300) < expit(1.0 - x)).astype(float)
    coef = logistic_coef(_data(T=t, X=x), "T", ["X"])
    design = np.column_stack([np.ones(300), x])
    score = design.T @ (t - expit(design @ coef))
    assert np.abs(score).max() < 1e-10


def test_logistic_gradient_matches_finite_differences():
    rng = np.random.default_rng(17)
    n = 80
    x = rng.standard_normal(n)
    t = (rng.random(n) < expit(0.5 + x)).astype(float)
    design = np.column_stack([np.ones(n), x])
    theta = np.array([0.3, -0.4])

    def loglik(c):
        lin = design @ c
        return float(t @ lin - np.logaddexp(0.0, lin).sum())

    analytic = design.T @ (t - expit(design @ theta))
    h = 1e-6
    for j in range(2):
        step = np.zeros(2)
        step[j] = h
        fd = (loglik(theta + step) - loglik(theta - step)) / (2.0 * h)
        assert abs(fd - analytic[j]) <= 1e-4 * (abs(analytic[j]) + 1.0)


def test_logistic_recovery_within_wald_bands():
    rng = np.random.default_rng(29)
    n = 200
    x = rng.standard_normal(n)
    t = (rng.random(n) < expit(1.0 - x)).astype(float)
    coef = logistic_coef(_data(T=t, X=x), "T", ["X"])
    design = np.column_stack([np.ones(n), x])
    prob = expit(design @ coef)
    fisher = design.T @ (design * (prob * (1.0 - prob))[:, None])
    se = np.sqrt(np.diag(np.linalg.inv(fisher)))
    assert abs(coef[0] - 1.0) <= 3.0 * se[0]
    assert abs(coef[1] + 1.0) <= 3.0 * se[1]


@pytest.mark.parametrize("seed", [2, 5])
def test_logistic_line_search_slack_scales_with_loglik(monkeypatch, seed):
    # |loglik| is about 53,000 on these 10^5 rows, so one ulp of it exceeds
    # an absolute slack of 1e-12: near the optimum every full step then
    # rounded below the slack and was halved to nothing until the cap
    data = gen_scenario1(100000, 10, np.random.default_rng([seed, 9]))[0]
    loglik = functionals._bernoulli_loglik
    calls = []

    def counting(y, linpred):
        calls.append(1)
        return loglik(y, linpred)

    monkeypatch.setattr(functionals, "_bernoulli_loglik", counting)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        coef = logistic_coef(data, "T", ["X", "X2"])
    assert [str(w.message) for w in caught] == []
    assert len(calls) <= 10
    t = data.column("T")
    design = np.column_stack([np.ones(data.n), data.column("X"), data.column("X2")])
    assert np.abs(design.T @ (t - expit(design @ coef))).max() < 1e-10


def test_logistic_separation():
    data = _data(T=[0.0, 0.0, 1.0, 1.0], X=[-2.0, -1.0, 1.0, 2.0])
    with pytest.raises(Separation):
        logistic_coef(data, "T", ["X"])


# ---------------------------------------------------------------------------
# AIPW


def test_aipw_exact_four_point_instance():
    # propensity 1/2 in both covariate groups and exact per-arm linear fits:
    # the transform reduces to mu1 - mu0 = 1.5 + 0.5 X, so the estimate is 1.5
    data = _data(
        Y=[0.0, 1.0, 1.0, 3.0], T=[0.0, 1.0, 0.0, 1.0], X=[-1.0, -1.0, 1.0, 1.0]
    )
    fit = fit_aipw_ate(data, "Y", "T", ["X"])
    assert abs(fit.estimate[0] - 1.5) < 1e-12
    np.testing.assert_allclose(fit.influence[:, 0], [-0.5, -0.5, 0.5, 0.5], atol=1e-10)


def test_aipw_constant_outcome():
    rng = np.random.default_rng(3)
    n = 40
    x = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(float)
    t[:2] = [0.0, 1.0]
    fit = fit_aipw_ate(_data(Y=np.full(n, 4.0), T=t, X=x), "Y", "T", ["X"])
    assert abs(fit.estimate[0]) < 1e-10


def test_aipw_outcome_equals_treatment():
    rng = np.random.default_rng(13)
    n = 50
    x = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(float)
    t[:2] = [0.0, 1.0]
    fit = fit_aipw_ate(_data(Y=t.copy(), T=t, X=x), "Y", "T", ["X"])
    assert abs(fit.estimate[0] - 1.0) < 1e-10


def test_aipw_empty_arm():
    with pytest.raises(EmptyArm):
        fit_aipw_ate(
            _data(Y=[1.0, 2.0, 3.0], T=[1.0, 1.0, 1.0], X=[0.1, 0.2, 0.3]),
            "Y",
            "T",
            ["X"],
        )


def test_aipw_non_binary_treatment():
    # validate_dataset checks a treatment it is given the role of; a dataset
    # validated without roles reaches the fitter's own check
    data = validate_dataset({"Y": [1.0, 2.0, 3.0], "T": [0.0, 0.5, 1.0], "X": [0.1, 0.2, 0.3]})
    with pytest.raises(NonBinaryTreatment, match=r"^treatment 'T' is not binary$"):
        fit_aipw_ate(data, "Y", "T", ["X"])


def _trim_data():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(200)
    t = (rng.random(200) < expit(x)).astype(float)
    return _data(Y=x + t + rng.standard_normal(200), T=t, X=x)


@pytest.mark.parametrize("trim", [0.5, 0.7, 1.0, -0.5, -1e-300, math.nan, math.inf, True, "0.1"])
def test_aipw_rejects_trim_outside_half_open_unit_half(trim):
    with pytest.raises(MalformedInput, match="trim"):
        fit_aipw_ate(_trim_data(), "Y", "T", ["X"], trim=trim)


def test_aipw_accepts_trim_in_half_open_unit_half():
    data = _trim_data()
    estimates = [fit_aipw_ate(data, "Y", "T", ["X"], trim=trim).estimate[0] for trim in (0, 0.2, 0.49)]
    assert len(set(estimates)) == 3


def test_aipw_separated_propensity():
    data = _data(
        Y=[1.0, 2.0, 3.0, 4.0, 2.0, 1.0],
        T=[0.0, 0.0, 0.0, 1.0, 1.0, 1.0],
        X=[-3.0, -2.0, -1.0, 1.0, 2.0, 3.0],
    )
    with pytest.raises(PropensityDegenerate):
        fit_aipw_ate(data, "Y", "T", ["X"])


def test_aipw_double_robust_to_outcome_model():
    # correct propensity, outcome model missing the X^2 term: mean estimate
    # over replications must stay within Monte Carlo error of tau = 1
    rng = np.random.default_rng(41)
    reps, n = 150, 400
    estimates = []
    for _ in range(reps):
        x = rng.standard_normal(n)
        t = (rng.random(n) < expit(1.0 - x)).astype(float)
        y = x * x + t + rng.standard_normal(n)
        fit = fit_aipw_ate(_data(Y=y, T=t, X=x), "Y", "T", ["X"])
        estimates.append(fit.estimate[0])
    estimates = np.array(estimates)
    mc_se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - 1.0) <= 3.0 * mc_se


def test_aipw_double_robust_to_propensity_model():
    # propensity fitted linear in X while the truth has an X^3 term; the
    # per-arm outcome models are exactly linear, so the estimate stays honest
    rng = np.random.default_rng(43)
    reps, n = 150, 400
    truth = 2.0
    estimates = []
    for _ in range(reps):
        x = rng.standard_normal(n)
        t = (rng.random(n) < expit(1.0 - x + 0.5 * x**3)).astype(float)
        y = 1.0 + x + t * (truth + x - x) + rng.standard_normal(n)
        fit = fit_aipw_ate(_data(Y=y, T=t, X=x), "Y", "T", ["X"])
        estimates.append(fit.estimate[0])
    estimates = np.array(estimates)
    mc_se = estimates.std(ddof=1) / math.sqrt(reps)
    assert abs(estimates.mean() - truth) <= 3.0 * mc_se


# ---------------------------------------------------------------------------
# dispatch and bindings


def test_fit_functional_dispatch():
    data = _data(Y=[1.0, 2.0, 2.0, 5.0], X=[0.0, 1.0, 2.0, 3.0])
    desc = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X"], "intercept": True}
    )
    np.testing.assert_allclose(fit_functional(data, desc).estimate, [0.7, 1.2], atol=1e-12)
    marginal = FunctionalDescriptor(
        FunctionalKind.MARGINAL_OLS, {"outcome": "Y", "regressor": "X"}
    )
    np.testing.assert_allclose(
        fit_functional(data, marginal).estimate,
        fit_marginal_ols(data, "Y", "X").estimate,
        atol=1e-14,
    )


def test_every_kind_has_a_fitter_taking_its_table_arguments():
    assert set(_FITTERS) == set(FunctionalKind)
    for kind, fitter in _FITTERS.items():
        required, spec = _ARGS[kind]
        params = dict(inspect.signature(fitter).parameters)
        assert next(iter(params)) == "data"
        del params["data"]
        names = [name for name, _ in spec]
        extra = {"trim"} if kind is FunctionalKind.AIPW_ATE else set()
        assert set(params) == set(names) | extra
        # the table's required arguments are the fitter's ones without a default
        no_default = [n for n, p in params.items() if p.default is inspect.Parameter.empty]
        assert no_default == names[:required]


def _fit_data():
    rng = np.random.default_rng(5)
    x1, x2 = rng.standard_normal(40), rng.standard_normal(40)
    t = (rng.random(40) < 0.5).astype(float)
    return _data(Y=x1 + t + rng.standard_normal(40), T=t, X1=x1, X2=x2)


_ODD_ARGS = (
    "Y", "X1", ["X1"], ("X1", "X2"), [], ["X1", 2], True, "no", None, 5, b"X1",
    [[1.0]], {"column": "T"}, {"column": "T", "equals": 1}, {"column": "T", "equals": True},
)
_VALID_ARGS = {
    FunctionalKind.MEAN: {"column": "Y"},
    FunctionalKind.JOINT_OLS: {"outcome": "Y", "regressors": ["X1"]},
    FunctionalKind.MARGINAL_OLS: {"outcome": "Y", "regressor": "X1"},
    FunctionalKind.AIPW_ATE: {"outcome": "Y", "treatment": "T", "covariates": ["X1"]},
}


@pytest.mark.parametrize("kind", list(_VALID_ARGS), ids=lambda kind: kind.value)
def test_fitters_accept_exactly_what_a_descriptor_does(kind):
    # one odd value in one argument: the fitter raises MalformedInput exactly
    # when a descriptor with the same arguments does (another error, such as
    # a missing column, means the arguments passed the checks). At the parent
    # a string of covariates read as columns "X" and "1", regressors=True, a
    # list column and an int or key-less where raised raw errors, and
    # intercept="no" was accepted
    data = _fit_data()
    for name, _ in _ARGS[kind][1]:
        for value in _ODD_ARGS:
            args = {**_VALID_ARGS[kind], name: value}
            try:
                FunctionalDescriptor(kind, args)
                described = True
            except MalformedInput:
                described = False
            try:
                _FITTERS[kind](data, **args)
                fitted = True
            except MalformedInput:
                fitted = False
            except DataFuseError:
                fitted = True
            assert fitted == described, (kind, name, value)


def test_evaluate_binding_mean_column():
    beta, eta = evaluate_binding(
        _data(X=[0.0, 2.0]),
        [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})],
    )
    np.testing.assert_array_equal(beta, [1.0])
    np.testing.assert_array_equal(eta[:, 0], [-1.0, 1.0])


def test_evaluate_binding_matches_componentwise_fit():
    rng = np.random.default_rng(31)
    n = 10
    x = rng.standard_normal(n)
    t = (rng.random(n) < 0.5).astype(float)
    t[:2] = [0.0, 1.0]
    y = 1.0 + x + t + rng.standard_normal(n)
    data = _data(Y=y, X=x, T=t)
    joint = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X", "T"], "intercept": True},
    )
    full = fit_joint_ols(data, "Y", ["X", "T"], intercept=True)
    beta, eta = evaluate_binding(data, [joint])
    np.testing.assert_allclose(beta, full.estimate, atol=1e-12)
    np.testing.assert_allclose(eta, full.influence, atol=1e-12)
    # per-component descriptors reuse the same underlying fit
    parts = [replace(joint, component=j) for j in (2, 0)]
    beta_parts, eta_parts = evaluate_binding(data, parts)
    np.testing.assert_allclose(beta_parts, full.estimate[[2, 0]], atol=1e-12)
    np.testing.assert_allclose(eta_parts, full.influence[:, [2, 0]], atol=1e-12)


_MEAN_Y = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
_OBJECT_ARGUMENTS = {
    "fit_functional-data": (fit_functional, (None, _MEAN_Y), "data"),
    "fit_functional-desc": (fit_functional, ("data", None), "desc"),
    "evaluate_binding-data": (evaluate_binding, (None, [_MEAN_Y]), "data"),
    "evaluate_binding-entry": (evaluate_binding, ("data", [None]), "binding"),
    "evaluate_binding-None": (evaluate_binding, ("data", None), "binding"),
    "evaluate_binding-descriptor": (evaluate_binding, ("data", _MEAN_Y), "binding"),
    "fit_mean": (fit_mean, (None, "Y"), "data"),
    "fit_joint_ols": (fit_joint_ols, (None, "Y", ["X"]), "data"),
    "fit_marginal_ols": (fit_marginal_ols, (None, "Y", "X"), "data"),
    "fit_aipw_ate": (fit_aipw_ate, (None, "Y", "T", ["X"]), "data"),
}


@pytest.mark.parametrize("name", sorted(_OBJECT_ARGUMENTS))
def test_fitters_reject_object_arguments_of_the_wrong_type(name):
    # each raised a raw AttributeError or TypeError on its first read
    fn, args, what = _OBJECT_ARGUMENTS[name]
    data = _data(Y=[1.0, 2.0, 4.0], X=[0.5, 1.0, 3.0], T=[0.0, 1.0, 1.0])
    args = [data if a == "data" else a for a in args]
    with pytest.raises(MalformedInput, match=f"^{what} must be"):
        fn(*args)


def test_evaluate_binding_of_no_descriptor_has_no_column():
    # an empty binding raised a raw ValueError (nothing to concatenate)
    beta, eta = evaluate_binding(_data(Y=[1.0, 2.0, 4.0]), [])
    assert beta.shape == (0,) and eta.shape == (3, 0)


def test_null_where_is_the_mean_without_one(monkeypatch):
    null = FunctionalDescriptor.from_json(
        {"functional": "mean", "args": {"column": "Y", "where": None}}
    )
    none = FunctionalDescriptor.from_json({"functional": "mean", "args": {"column": "Y"}})
    assert null == none
    assert null.group_key() == none.group_key()
    assert json.dumps(null.to_json()) == json.dumps(none.to_json())
    fits = []
    real = functionals.fit_functional
    monkeypatch.setattr(functionals, "fit_functional", lambda *a: fits.append(a) or real(*a))
    beta, _ = evaluate_binding(_data(Y=[1.0, 2.0, 6.0]), [null, none])
    assert len(fits) == 1
    np.testing.assert_array_equal(beta, [3.0, 3.0])


def test_evaluate_binding_stacks_marginals():
    rng = np.random.default_rng(37)
    n = 30
    data = _data(
        Y=rng.standard_normal(n), X1=rng.standard_normal(n), X2=rng.standard_normal(n)
    )
    binding = [
        FunctionalDescriptor(FunctionalKind.MARGINAL_OLS, {"outcome": "Y", "regressor": r})
        for r in ("X1", "X2")
    ]
    beta, eta = evaluate_binding(data, binding)
    assert beta.shape == (2,) and eta.shape == (n, 2)
    assert np.abs(eta.mean(axis=0)).max() < 1e-10
