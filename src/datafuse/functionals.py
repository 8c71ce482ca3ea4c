"""Functional fitters producing estimates with influence columns.

Each fitter returns a FunctionalFit whose influence columns average to zero
exactly (up to round-off) because the estimating equations are solved
exactly. The treatment-effect fitter is augmented inverse propensity
weighting with a logistic propensity and per-arm linear outcome models, so
it stays consistent when either nuisance model is correct.
"""

import warnings

import numpy as np
from scipy.linalg.lapack import dpotrs
from scipy.special import expit

from ._linalg import check_full_rank, spd_solve
from .errors import (
    DegenerateRegressor,
    EmptyArm,
    PropensityDegenerate,
    RankDeficientDesign,
    Separation,
)
from .model import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    InternalDataset,
)

__all__ = [
    "FunctionalDescriptor",
    "FunctionalKind",
    "fit_mean",
    "fit_joint_ols",
    "fit_marginal_ols",
    "fit_logistic",
    "fit_aipw_ate",
    "fit_functional",
    "evaluate_binding",
]

PROPENSITY_TRIM = 0.01
LOGISTIC_SCORE_TOL = 1e-10
LOGISTIC_MAX_ITER = 100


def fit_mean(data: InternalDataset, column: str, where=None) -> FunctionalFit:
    """Mean of a column, optionally restricted to rows where another
    column equals a value (influence uses the ratio form, so the columns
    stay mean-zero over the full sample)."""
    y = data.column(column)
    if where is None:
        est = float(y.mean())
        infl = (y - est)[:, None]
        return FunctionalFit(np.array([est]), infl, label=f"mean({column})")
    mask = data.column(where["column"]) == where["equals"]
    if not np.any(mask):
        raise EmptyArm(
            f"no rows with {where['column']} == {where['equals']} for mean({column})"
        )
    prob = mask.mean()
    est = float(y[mask].mean())
    infl = (mask * (y - est) / prob)[:, None]
    return FunctionalFit(
        np.array([est]), infl, label=f"mean({column}|{where['column']}={where['equals']})"
    )


def _ols_fit(design: np.ndarray, y: np.ndarray, context: str):
    """Coefficients and influence rows inv(E VV') V_i e_i for a linear fit.

    One QR of the design gives R with R'R = V'V. The influence row is
    n R^{-1} R^{-T} V_i e_i; the coefficients solve R'R coef = V'y with one
    refinement step (Bjorck's corrected seminormal equations), which keeps
    them as accurate as a QR solve rather than the normal equations.
    """
    r = check_full_rank(design, RankDeficientDesign, context)
    coef = dpotrs(r, design.T @ y)[0]
    coef = coef + dpotrs(r, design.T @ (y - design @ coef))[0]
    resid = y - design @ coef
    infl = design.shape[0] * dpotrs(r, (design * resid[:, None]).T)[0].T
    return coef, infl


def fit_joint_ols(
    data: InternalDataset, outcome: str, regressors, intercept: bool = True
) -> FunctionalFit:
    """Joint least squares of outcome on the named regressors.

    With intercept=True the intercept coefficient comes first. Influence
    rows are inv(E VV') V_i e_i, whose sample mean vanishes by the normal
    equations.
    """
    y = data.column(outcome)
    cols = [data.column(name) for name in regressors]
    if intercept:
        design = np.column_stack([np.ones(data.n)] + cols)
    else:
        design = np.column_stack(cols)
    label = f"joint_ols({outcome}~{'+'.join(regressors)}{'+1' if intercept else ''})"
    coef, infl = _ols_fit(design, y, label)
    return FunctionalFit(coef, infl, label=label)


def fit_marginal_ols(data: InternalDataset, outcome: str, regressor: str) -> FunctionalFit:
    """Slope of the no-intercept regression of outcome on one regressor."""
    y = data.column(outcome)
    x = data.column(regressor)
    second = float(np.mean(x * x))
    if second <= 1e-30:
        raise DegenerateRegressor(f"regressor {regressor!r} has zero second moment")
    coef = float(np.mean(x * y) / second)
    infl = (x * (y - x * coef) / second)[:, None]
    return FunctionalFit(
        np.array([coef]), infl, label=f"marginal_ols({outcome}~{regressor})"
    )


def _bernoulli_loglik(y: np.ndarray, linpred: np.ndarray) -> float:
    return float(np.sum(y * linpred - np.logaddexp(0.0, linpred)))


def _newton_logistic(design: np.ndarray, y: np.ndarray, context: str, start=None) -> np.ndarray:
    """Damped Newton MLE from `start` (zero if None); stops when
    max |score| < 1e-10 or after 100 iterations."""
    check_full_rank(design, RankDeficientDesign, context)
    coef = np.zeros(design.shape[1]) if start is None else start
    linpred = design @ coef
    loglik = _bernoulli_loglik(y, linpred)
    for _ in range(LOGISTIC_MAX_ITER):
        prob = expit(linpred)
        pinned = np.all(prob[y == 1.0] > 1.0 - 1e-8) and np.all(prob[y == 0.0] < 1e-8)
        if pinned:
            raise Separation(f"fitted probabilities pinned at 0/1 ({context})")
        score = design.T @ (y - prob)
        if np.max(np.abs(score)) < LOGISTIC_SCORE_TOL:
            return coef
        weight = prob * (1.0 - prob)
        hessian = design.T @ (design * weight[:, None])
        step = spd_solve(hessian, score, Separation, context=context)
        scale = 1.0
        for _ in range(60):
            cand = coef + scale * step
            cand_linpred = design @ cand
            cand_loglik = _bernoulli_loglik(y, cand_linpred)
            if np.isfinite(cand_loglik) and cand_loglik >= loglik - 1e-12:
                break
            scale /= 2.0
        else:
            raise Separation(f"no improving Newton step ({context})")
        coef, linpred, loglik = cand, cand_linpred, cand_loglik
        if not np.all(np.isfinite(coef)) or np.max(np.abs(coef)) > 1e4:
            raise Separation(f"coefficients diverged ({context})")
    warnings.warn(f"logistic fit stopped at iteration cap ({context})")
    return coef


def fit_logistic(
    data: InternalDataset, response: str, covariates, intercept: bool = True
) -> np.ndarray:
    """Logistic regression coefficients of a binary response.

    Returns the coefficient vector (intercept first when present); raises
    Separation when the likelihood has no finite maximizer.
    """
    y = data.column(response)
    if not np.all((y == 0.0) | (y == 1.0)):
        raise Separation(f"response {response!r} is not binary")
    cols = [data.column(name) for name in covariates]
    if intercept:
        design = np.column_stack([np.ones(data.n)] + cols)
    else:
        design = np.column_stack(cols)
    return _newton_logistic(design, y, f"logistic({response})")


def fit_aipw_ate(
    data: InternalDataset,
    outcome: str,
    treatment: str,
    covariates,
    trim: float = PROPENSITY_TRIM,
) -> FunctionalFit:
    """Doubly robust average treatment effect.

    Propensity: logistic in the covariates. Outcome: linear in the
    covariates within each arm. Fitted propensities are trimmed to
    [trim, 1 - trim] before weighting.
    """
    return _fit_aipw(data, outcome, treatment, covariates, trim)


def _fit_aipw(data, outcome, treatment, covariates, trim=PROPENSITY_TRIM, start=None):
    """fit_aipw_ate with the propensity Newton started at `start` (zero if
    None or of another length). The fit keeps its propensity coefficient as
    `_propensity`, a start for refits of the same model on other rows."""
    y = data.column(outcome)
    t = data.column(treatment)
    if not np.all((t == 0.0) | (t == 1.0)):
        raise EmptyArm(f"treatment {treatment!r} is not binary")
    treated = t == 1.0
    if not np.any(treated) or not np.any(~treated):
        raise EmptyArm("one treatment arm has no observations")
    cols = [data.column(name) for name in covariates]
    design = np.column_stack([np.ones(data.n)] + cols)

    if start is not None and start.shape != (design.shape[1],):
        start = None
    try:
        prop_coef = _newton_logistic(design, t, f"propensity({treatment})", start)
    except Separation as exc:
        raise PropensityDegenerate(str(exc)) from exc
    prop = np.clip(expit(design @ prop_coef), trim, 1.0 - trim)

    mu = np.empty((data.n, 2))
    for arm, mask in ((0, ~treated), (1, treated)):
        coef, _ = _ols_fit(design[mask], y[mask], f"outcome model arm {arm}")
        mu[:, arm] = design @ coef

    transform = (
        t / prop * (y - mu[:, 1])
        - (1.0 - t) / (1.0 - prop) * (y - mu[:, 0])
        + mu[:, 1]
        - mu[:, 0]
    )
    est = float(transform.mean())
    fit = FunctionalFit(
        np.array([est]),
        (transform - est)[:, None],
        label=f"aipw_ate({outcome}~{treatment}|{'+'.join(covariates)})",
    )
    object.__setattr__(fit, "_propensity", prop_coef)
    return fit


_FITTERS = {
    FunctionalKind.MEAN: fit_mean,
    FunctionalKind.JOINT_OLS: fit_joint_ols,
    FunctionalKind.MARGINAL_OLS: fit_marginal_ols,
    FunctionalKind.AIPW_ATE: fit_aipw_ate,
}


def fit_functional(data: InternalDataset, desc: FunctionalDescriptor) -> FunctionalFit:
    """Dispatch a descriptor to its fitter; returns the full-width fit.

    A descriptor's argument names are its fitter's keyword names.
    """
    return _FITTERS[desc.kind](data, **desc.args)


def _refit(data: InternalDataset, desc: FunctionalDescriptor, start=None) -> FunctionalFit:
    """fit_functional, with the propensity Newton of an aipw_ate fit started
    at `start`, the `_propensity` of a fit of the same model on other rows."""
    if start is None or desc.kind is not FunctionalKind.AIPW_ATE:
        return fit_functional(data, desc)
    return _fit_aipw(data, **desc.args, start=start)


def evaluate_binding(data: InternalDataset, binding):
    """Fit every descriptor of a binding against the internal data.

    Descriptors sharing kind and args are fitted once; component selection
    then slices the shared fit. Returns (estimates, influence matrix) with
    one column per summary coordinate, ordered as the binding lists them.
    """
    keys = [desc.group_key() for desc in binding]
    fits = {}
    for desc, key in zip(binding, keys):
        if key not in fits:
            fits[key] = fit_functional(data, desc)
    parts = [_columns(fits[key], desc) for desc, key in zip(binding, keys)]
    return np.concatenate([f.estimate for f in parts]), np.hstack([f.influence for f in parts])


def _columns(fit: FunctionalFit, desc: FunctionalDescriptor) -> FunctionalFit:
    """The coefficients of `fit` that `desc` names: all of them, or its component."""
    if desc.component is None:
        return fit
    j = [desc.component]
    return FunctionalFit._unchecked(fit.estimate[j], fit.influence[:, j], fit.label)
