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
    NonFiniteValue,
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
SECOND_MOMENT_FLOOR = 1e-30
# moment forms (_Moments) are built while their features total at most this
# many: a design of k columns has k (k + 3) / 2 features, and the fold
# products grow as the square of the total
MOMENT_MAX_FEATURES = 80
# a moment form's influence second moment below this share of the terms it
# is summed from (round-off then costs more than 4 digits) is refitted
CANCELLATION_FLOOR = 1e-4


def fit_mean(data: InternalDataset, column: str, where=None) -> FunctionalFit:
    """Mean of a column, optionally restricted to rows where another
    column equals a value (influence uses the ratio form, so the columns
    stay mean-zero over the full sample)."""
    y = data.column(column)
    if where is None:
        est = float(y.mean())
        infl = (y - est)[:, None]
        return FunctionalFit(np.array([est]), infl, label=_mean_label(column, where))
    mask = data.column(where["column"]) == where["equals"]
    if not np.any(mask):
        raise _empty_arm(column, where)
    prob = mask.mean()
    est = float(y[mask].mean())
    infl = (mask * (y - est) / prob)[:, None]
    return FunctionalFit(np.array([est]), infl, label=_mean_label(column, where))


def _mean_label(column: str, where) -> str:
    if where is None:
        return f"mean({column})"
    return f"mean({column}|{where['column']}={where['equals']})"


def _empty_arm(column: str, where) -> EmptyArm:
    return EmptyArm(f"no rows with {where['column']} == {where['equals']} for mean({column})")


def _ols_fit(design: np.ndarray, y: np.ndarray, context: str):
    """Coefficients and influence rows inv(E VV') V_i e_i for a linear fit.

    One QR of the design gives R with R'R = V'V. The influence row is
    n R^{-1} R^{-T} V_i e_i; the coefficients solve R'R coef = V'y with one
    refinement step (Bjorck's corrected seminormal equations), which keeps
    them as accurate as a QR solve rather than the normal equations.
    """
    r, coef = _ols_coef(design, y, context)
    resid = y - design @ coef
    infl = design.shape[0] * dpotrs(r, (design * resid[:, None]).T)[0].T
    return coef, infl


def _ols_coef(design: np.ndarray, y: np.ndarray, context: str):
    """The triangular factor r of the design (check_full_rank) and the
    least-squares coefficients, refined once as in _ols_fit."""
    r = check_full_rank(design, RankDeficientDesign, context)
    coef = dpotrs(r, design.T @ y)[0]
    return r, coef + dpotrs(r, design.T @ (y - design @ coef))[0]


def fit_joint_ols(
    data: InternalDataset, outcome: str, regressors, intercept: bool = True
) -> FunctionalFit:
    """Joint least squares of outcome on the named regressors.

    With intercept=True the intercept coefficient comes first. Influence
    rows are inv(E VV') V_i e_i, whose sample mean vanishes by the normal
    equations.
    """
    y = data.column(outcome)
    design, label = _joint_design(data, outcome, regressors, intercept)
    coef, infl = _ols_fit(design, y, label)
    return FunctionalFit(coef, infl, label=label)


def _joint_design(data: InternalDataset, outcome: str, regressors, intercept: bool = True):
    """The design of fit_joint_ols (intercept column first) and its label."""
    cols = [data.column(name) for name in regressors]
    if intercept:
        design = np.column_stack([np.ones(data.n)] + cols)
    else:
        design = np.column_stack(cols)
    return design, f"joint_ols({outcome}~{'+'.join(regressors)}{'+1' if intercept else ''})"


def fit_marginal_ols(data: InternalDataset, outcome: str, regressor: str) -> FunctionalFit:
    """Slope of the no-intercept regression of outcome on one regressor."""
    y = data.column(outcome)
    x = data.column(regressor)
    second = float(np.mean(x * x))
    if second <= SECOND_MOMENT_FLOOR:
        raise _zero_second_moment(regressor)
    coef = float(np.mean(x * y) / second)
    infl = (x * (y - x * coef) / second)[:, None]
    return FunctionalFit(np.array([coef]), infl, label=_marginal_label(outcome, regressor))


def _marginal_label(outcome: str, regressor: str) -> str:
    return f"marginal_ols({outcome}~{regressor})"


def _zero_second_moment(regressor: str) -> DegenerateRegressor:
    return DegenerateRegressor(f"regressor {regressor!r} has zero second moment")


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


class _Moments:
    """Moment form of a mean, marginal_ols or joint_ols fit.

    Each of these is the least-squares fit of an outcome y on a design V:
    the indicator of the `where` rows (ones without `where`) for a mean, the
    regressor for marginal_ols, the joint design for joint_ols. Its
    coefficients solve E(VV') c = E(Vy) and its influence rows are
    inv(E VV') V_i e_i. With c0 the full-data coefficients (`center`, fitted
    here if not given) and e0 = y - V c0, the data-only row features
    g_i = (V_ia V_ib for a <= b, V_i e0_i) give the fit on any set of rows
    from their mean there: with A = E(VV') and d = inv(A) E(V e0), the
    estimate is c0 + d and the influence row is L g_i with
    L = inv(A) [-D, I], where D g_i = V_i V_i' d. Built around c0, the
    features stay small where the fit is close, so second moments L S L' of
    the influence do not cancel large terms. A design of k columns has
    k (k + 3) / 2 features (_moment_forms caps their total).
    """

    def __init__(self, data: InternalDataset, desc: FunctionalDescriptor, center=None):
        args = self.args = desc.args
        self.kind = desc.kind
        if desc.kind is FunctionalKind.MEAN:
            y, where = data.column(args["column"]), args.get("where")
            if where is None:
                design = np.ones((data.n, 1))
            else:
                design = (data.column(where["column"]) == where["equals"]).astype(float)[:, None]
            self.label = _mean_label(args["column"], where)
        elif desc.kind is FunctionalKind.MARGINAL_OLS:
            y, design = data.column(args["outcome"]), data.column(args["regressor"])[:, None]
            self.label = _marginal_label(args["outcome"], args["regressor"])
        else:
            y = data.column(args["outcome"])
            design, self.label = _joint_design(data, **args)
        self.design = design
        k = design.shape[1]
        self.center = _ols_coef(design, y, self.label)[1] if center is None else center
        resid = y - design @ self.center
        # feature p < P is V_a V_b for the p-th pair a <= b, then feature
        # P + j is V_j e0; D = (expand d) reshaped to k x P
        pairs = [(i, j) for i in range(k) for j in range(i, k)]
        self.features = [design[:, i] * design[:, j] for i, j in pairs]
        self.features += [design[:, j] * resid for j in range(k)]
        self.expand = np.array(
            [[(j, l) in ((a, b), (b, a)) for l in range(k)] for j in range(k) for a, b in pairs],
            dtype=float,
        )

    def fit(self, row_sets, totals, products):
        """The fit on each set of rows in `row_sets`, from the sums over its
        rows of the features (row i of `totals`) and of their outer products
        (`products[i]`): (estimates, L, errors, cancelled), one entry per set.

        errors[i] is what the fitter raises on set i, else None: EmptyArm for
        a `where` that no row meets, DegenerateRegressor for a second moment
        at most SECOND_MOMENT_FLOOR, RankDeficientDesign from check_full_rank
        on the rows of a joint design, and NonFiniteValue for a non-finite
        estimate or influence whose sum of squares (the trace of L P L')
        overflows. The estimate and L of a set with an error are zero.
        cancelled[i] is True when, with no error, a diagonal entry of L P L'
        is below CANCELLATION_FLOOR times the size of the terms it is summed
        from, (|L| sqrt(diag P))^2: the round-off of those terms is then no
        longer small against it (as when the rows fit exactly), and the set's
        influence moments are to be taken from a refit.
        """
        k = self.design.shape[1]
        counts = np.array([rows.size for rows in row_sets], dtype=float)
        mean = totals / counts[:, None]
        errors = [None] * len(row_sets)
        if self.kind is FunctionalKind.JOINT_OLS:
            # inv(A) = count inv(R'R) with R the triangular factor of the
            # rows' design, as the fitter solves
            a_inv, eye = np.zeros((len(row_sets), k, k)), np.eye(k)
            for i, rows in enumerate(row_sets):
                try:
                    r = check_full_rank(self.design.take(rows, 0), RankDeficientDesign, self.label)
                except RankDeficientDesign as exc:
                    errors[i] = exc
                    continue
                a_inv[i] = counts[i] * dpotrs(r, eye)[0]
        else:
            # A is the share of `where` rows for a mean (1 without `where`)
            # and the regressor's second moment for marginal_ols
            if self.kind is FunctionalKind.MEAN:
                bad = mean[:, 0] == 0.0
            else:
                bad = mean[:, 0] <= SECOND_MOMENT_FLOOR
            for i in np.flatnonzero(bad):
                errors[i] = self._degenerate()
            with np.errstate(divide="ignore"):
                a_inv = 1.0 / mean[:, :1, None]
        with np.errstate(over="ignore", invalid="ignore"):
            shift = (a_inv @ mean[:, -k:, None])[:, :, 0]
            d = (shift @ self.expand.T).reshape(len(row_sets), k, -1)
            lmap = np.concatenate((-(a_inv @ d), a_inv), axis=2)
            estimate = self.center + shift
            diag = ((lmap @ products) * lmap).sum(axis=2)
            size = (np.abs(lmap) @ np.sqrt(np.diagonal(products, 0, 1, 2))[:, :, None])[:, :, 0]
            check = diag.sum(axis=1) + estimate.sum(axis=1)
            cancelled = (diag < CANCELLATION_FLOOR * size**2).any(axis=1)
        for i in np.flatnonzero(~np.isfinite(check)):
            errors[i] = errors[i] or NonFiniteValue(
                f"fit {self.label!r} has non-finite or overflowing values"
            )
        failed = [i for i, error in enumerate(errors) if error is not None]
        estimate[failed], lmap[failed], cancelled[failed] = 0.0, 0.0, False
        return estimate, lmap, errors, cancelled

    def _degenerate(self):
        if self.kind is FunctionalKind.MEAN:
            return _empty_arm(self.args["column"], self.args["where"])
        return _zero_second_moment(self.args["regressor"])


def _moment_forms(data: InternalDataset, descs, centers):
    """The _Moments of each descriptor, built around its full-data
    coefficients in `centers` (None where not known), in order while their
    features total at most MOMENT_MAX_FEATURES; None for any other
    descriptor (aipw_ate, or one beyond that width), whose fits are refitted."""
    forms, room = [], MOMENT_MAX_FEATURES
    for desc, center in zip(descs, centers):
        k = desc._base_width()
        if desc.kind is FunctionalKind.AIPW_ATE or k * (k + 3) // 2 > room:
            forms.append(None)
        else:
            room -= k * (k + 3) // 2
            forms.append(_Moments(data, desc, center))
    return forms
