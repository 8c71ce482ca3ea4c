"""Functional fitters producing estimates with influence columns.

Each fitter returns a FunctionalFit whose influence columns average to zero
exactly (up to round-off) because the estimating equations are solved
exactly. The treatment-effect fitter is augmented inverse propensity
weighting with a logistic propensity and per-arm linear outcome models, so
it stays consistent when either nuisance model is correct. Each fitter checks
its arguments with the rules of the descriptor table (model._ARGS), so it
accepts exactly the arguments a descriptor does.
"""

import functools
import warnings

import numpy as np

from ._linalg import CANCELLATION_FLOOR, DIVERGENCE_BOUND, LOGISTIC_SCORE_TOL, LOGLIK_SLACK
from ._linalg import PINNED_PROB, SECOND_MOMENT_FLOOR, check_full_rank, logistic, spd_solve
from .errors import (
    DegenerateRegressor,
    EmptyArm,
    MalformedInput,
    NonBinaryTreatment,
    PropensityDegenerate,
    RankDeficientDesign,
    Separation,
)
from .model import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    InternalDataset,
    _bool,
    _check_type,
    _col,
    _cols,
    _items,
    _real,
    _where,
)

__all__ = [
    "FunctionalDescriptor",
    "FunctionalKind",
    "fit_mean",
    "fit_joint_ols",
    "fit_marginal_ols",
    "fit_aipw_ate",
    "fit_functional",
    "evaluate_binding",
]

PROPENSITY_TRIM = 0.01
LOGISTIC_MAX_ITER = 100
# cross-validation reads folds from moment forms (_Moments) only when their
# features total at most this many: a design of k columns has k (k + 3) / 2
# features, and the fold products grow as the square of the total
MOMENT_MAX_FEATURES = 80


def fit_mean(data: InternalDataset, column: str, where=None) -> FunctionalFit:
    """Mean of a column, optionally restricted to rows where another
    column equals a value (influence uses the ratio form, so the columns
    stay mean-zero over the full sample)."""
    _check_type("data", data, InternalDataset)
    column, where = _col("mean", "column", column), _where("mean", "where", where)
    y = data.column(column)
    if where is None:
        est = float(y.mean())
        infl = (y - est)[:, None]
        return FunctionalFit(np.array([est]), infl, label=f"mean({column})")
    mask = data.column(where["column"]) == where["equals"]
    if not mask.any():
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

    One QR of the design gives R with R'R = V'V, and inv(V'V) is
    R^{-1} R^{-T}. The influence row is n inv(V'V) V_i e_i; the coefficients
    solve R'R coef = V'y with one refinement step (Bjorck's corrected
    seminormal equations), which keeps them as accurate as a QR solve rather
    than the normal equations.
    """
    gram_inv, coef = _ols_coef(design, y, context)
    resid = y - design @ coef
    gram_inv *= design.shape[0]
    return coef, (design * resid[:, None]) @ gram_inv


def _ols_coef(design: np.ndarray, y: np.ndarray, context: str):
    """inv(V'V) for the design V, from R^{-1} of check_full_rank, and the
    least-squares coefficients, refined once as in _ols_fit."""
    r_inv = check_full_rank(design, RankDeficientDesign, context)
    gram_inv = r_inv @ r_inv.T
    coef = gram_inv @ (design.T @ y)
    return gram_inv, coef + gram_inv @ (design.T @ (y - design @ coef))


def fit_joint_ols(
    data: InternalDataset, outcome: str, regressors, intercept: bool = True
) -> FunctionalFit:
    """Joint least squares of outcome on the named regressors.

    With intercept=True the intercept coefficient comes first. Influence
    rows are inv(E VV') V_i e_i, whose sample mean vanishes by the normal
    equations.
    """
    _check_type("data", data, InternalDataset)
    outcome = _col("joint_ols", "outcome", outcome)
    regressors = _cols("joint_ols", "regressors", regressors)
    intercept = _bool("joint_ols", "intercept", intercept)
    y = data.column(outcome)
    label = f"joint_ols({outcome}~{'+'.join(regressors)}{'+1' if intercept else ''})"
    coef, infl = _ols_fit(_joint_design(data, regressors, intercept), y, label)
    return FunctionalFit(coef, infl, label=label)


def _joint_design(data: InternalDataset, regressors, intercept: bool = True) -> np.ndarray:
    """The named columns as a design, after an intercept column if `intercept`:
    that of fit_joint_ols and of the aipw_ate propensity.

    The design is column-major (Fortran order): every pass over it (the
    Newton Hessian's design * weight[:, None] and design.T products, the OLS
    influence, the _Moments features) reads whole columns, which are then
    contiguous. Row-major, one Newton Hessian of three columns at n = 20,000
    took 159 us against 47 us, its broadcast product 99 against 22 us (a
    2-core Xeon VM, numpy 2.4 on OpenBLAS 0.3.31).
    """
    ones = [np.ones(data.n)] if intercept else []
    return np.array(ones + [data.column(name) for name in regressors]).T


def fit_marginal_ols(data: InternalDataset, outcome: str, regressor: str) -> FunctionalFit:
    """Slope of the no-intercept regression of outcome on one regressor."""
    _check_type("data", data, InternalDataset)
    outcome = _col("marginal_ols", "outcome", outcome)
    regressor = _col("marginal_ols", "regressor", regressor)
    y = data.column(outcome)
    x = data.column(regressor)
    second = float((x * x).mean())
    if second <= SECOND_MOMENT_FLOOR:
        raise DegenerateRegressor(f"regressor {regressor!r} has zero second moment")
    coef = float((x * y).mean() / second)
    infl = (x * (y - x * coef) / second)[:, None]
    return FunctionalFit(
        np.array([coef]), infl, label=f"marginal_ols({outcome}~{regressor})"
    )


def _bernoulli_loglik(y: np.ndarray, linpred: np.ndarray) -> float:
    # log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|), the terms summed per
    # row: np.logaddexp gives the same values at several times the cost
    terms = np.abs(linpred)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    terms += np.maximum(linpred, 0.0)
    return float((y * linpred - terms).sum())


def _pinned(prob: np.ndarray, ones: np.ndarray, zeros: np.ndarray, probes) -> bool:
    """Whether every row of class 1 (mask `ones`) has probability above
    1 - PINNED_PROB and every row of class 0 (`zeros`) below PINNED_PROB; an
    empty class passes. `probes` holds one row of each class, or None for an
    empty one: a probe row that is not pinned (or is NaN) settles the check
    at once."""
    one, zero = probes
    if one is not None and not prob[one] > 1.0 - PINNED_PROB:
        return False
    if zero is not None and not prob[zero] < PINNED_PROB:
        return False
    return bool((prob[ones] > 1.0 - PINNED_PROB).all() and (prob[zeros] < PINNED_PROB).all())


def _newton_logistic(design: np.ndarray, y: np.ndarray, context: str, start=None):
    """Damped Newton MLE from `start` (zero if None): (coef, prob), prob the
    fitted probabilities logistic(design @ coef) of the last iteration.

    Stops when max |score| < LOGISTIC_SCORE_TOL, or warns after
    LOGISTIC_MAX_ITER iterations. A step is halved until the log-likelihood
    is finite and falls short of the current one by at most LOGLIK_SLACK
    (1 + |loglik|): a slack relative to the log-likelihood, which is summed
    over the rows, so that round-off near the optimum does not reject every
    step. Raises Separation when the probabilities are pinned at 0/1
    (checked first on one probe row per class), when no halving improves,
    or when the coefficients diverge (max |coef| > DIVERGENCE_BOUND).
    """
    check_full_rank(design, RankDeficientDesign, context)
    ones, zeros = y == 1.0, y == 0.0
    probes = tuple(
        int(rows[0]) if rows.size else None
        for rows in (np.flatnonzero(ones), np.flatnonzero(zeros))
    )
    coef = np.zeros(design.shape[1]) if start is None else start
    linpred = design @ coef
    loglik = _bernoulli_loglik(y, linpred)
    for _ in range(LOGISTIC_MAX_ITER):
        prob = logistic(linpred)
        if _pinned(prob, ones, zeros, probes):
            raise Separation(f"fitted probabilities pinned at 0/1 ({context})")
        score = design.T @ (y - prob)
        if abs(score).max() < LOGISTIC_SCORE_TOL:
            return coef, prob
        weight = prob * (1.0 - prob)
        hessian = design.T @ (design * weight[:, None])
        step = spd_solve(hessian, score, Separation, context=context)
        floor = loglik - LOGLIK_SLACK * (1.0 + abs(loglik))
        scale = 1.0
        for _ in range(60):
            cand = coef + scale * step
            cand_linpred = design @ cand
            cand_loglik = _bernoulli_loglik(y, cand_linpred)
            if np.isfinite(cand_loglik) and cand_loglik >= floor:
                break
            scale /= 2.0
        else:
            raise Separation(f"no improving Newton step ({context})")
        coef, linpred, loglik = cand, cand_linpred, cand_loglik
        if not np.isfinite(coef).all() or abs(coef).max() > DIVERGENCE_BOUND:
            raise Separation(f"coefficients diverged ({context})")
    warnings.warn(f"logistic fit stopped at iteration cap ({context})")
    return coef, logistic(linpred)


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
    [trim, 1 - trim] before weighting; trim must be a number in [0, 0.5).
    """
    _check_type("data", data, InternalDataset)
    outcome = _col("aipw_ate", "outcome", outcome)
    treatment = _col("aipw_ate", "treatment", treatment)
    covariates = _cols("aipw_ate", "covariates", covariates)
    trim = _real("trim", trim)
    if not 0.0 <= trim < 0.5:
        raise MalformedInput(f"trim must be in [0, 0.5), got {trim!r}")
    return _fit_aipw(data, outcome, treatment, covariates, trim)


def _fit_aipw(data, outcome, treatment, covariates, trim=PROPENSITY_TRIM, start=None):
    """fit_aipw_ate with the propensity Newton started at `start` (zero if
    None or of another length). The fit keeps its propensity coefficient as
    `_propensity`, a start for refits of the same model on other rows."""
    y = data.column(outcome)
    t = data.column(treatment)
    if not ((t == 0.0) | (t == 1.0)).all():
        raise NonBinaryTreatment(f"treatment {treatment!r} is not binary")
    treated = t == 1.0
    if treated.all() or not treated.any():
        raise EmptyArm("one treatment arm has no observations")
    design = _joint_design(data, covariates)

    if start is not None and start.shape != (design.shape[1],):
        start = None
    try:
        prop_coef, prop = _newton_logistic(design, t, f"propensity({treatment})", start)
    except Separation as exc:
        raise PropensityDegenerate(str(exc)) from exc
    prop = np.clip(prop, trim, 1.0 - trim)

    mu = np.empty((2, data.n))
    for arm, mask in ((0, ~treated), (1, treated)):
        # the arm's rows selected along the contiguous axis stay column-major
        rows = design.T.compress(mask, axis=1).T
        coef = _ols_coef(rows, y.compress(mask), f"outcome model arm {arm}")[1]
        mu[arm] = design @ coef

    transform = (
        t / prop * (y - mu[1]) - (1.0 - t) / (1.0 - prop) * (y - mu[0]) + mu[1] - mu[0]
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
    _check_type("desc", desc, FunctionalDescriptor)
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
    one column per summary coordinate, ordered as the binding lists them;
    an empty binding has none.
    """
    _check_type("data", data, InternalDataset)
    binding = _items("binding", binding, FunctionalDescriptor)
    distinct, slots = _distinct_fits(binding)
    fits = [fit_functional(data, desc) for desc in distinct]
    parts = [_columns(fits[i], desc) for desc, i in zip(binding, slots)]
    return (
        np.concatenate([np.zeros(0)] + [f.estimate for f in parts]),
        np.hstack([np.zeros((data.n, 0))] + [f.influence for f in parts]),
    )


def _distinct_fits(binding):
    """(distinct, slots): the first descriptor of each group key in binding
    order, and for each descriptor of `binding` the index in `distinct` of
    the fit it reads."""
    index, distinct, slots = {}, [], []
    for desc in binding:
        slots.append(index.setdefault(desc.group_key(), len(distinct)))
        if slots[-1] == len(distinct):
            distinct.append(desc)
    return distinct, slots


def _columns(fit: FunctionalFit, desc: FunctionalDescriptor) -> FunctionalFit:
    """The coefficients of `fit` that `desc` reports (its _coefficients)."""
    j = desc._coefficients()
    if len(j) == fit.p:
        return fit
    return FunctionalFit(fit.estimate[j], fit.influence[:, j], fit.label)


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
    k (k + 3) / 2 features (_moment_forms caps their total). The form reads
    only sums, and flags a superset of the sets of rows on which the fitter
    would fail; the fitter, run on those rows, decides and raises the error.
    The fit reads a form only through its width k and its center, so forms
    of one width are fitted together, each set with its own center.
    """

    def __init__(self, data: InternalDataset, desc: FunctionalDescriptor, center=None):
        args = desc.args
        if desc.kind is FunctionalKind.MEAN:
            y, where = data.column(args["column"]), args.get("where")
            if where is None:
                design = np.ones((data.n, 1))
            else:
                design = (data.column(where["column"]) == where["equals"]).astype(float)[:, None]
        elif desc.kind is FunctionalKind.MARGINAL_OLS:
            y, design = data.column(args["outcome"]), data.column(args["regressor"])[:, None]
        else:
            y = data.column(args["outcome"])
            design = _joint_design(data, args["regressors"], args.get("intercept", True))
        k = design.shape[1]
        self.center = _ols_coef(design, y, desc.kind.value)[1] if center is None else center
        resid = y - design @ self.center
        # feature p < P is V_a V_b for the p-th pair (a, b) of _pairs(k),
        # then feature P + j is V_j e0
        self.features = [design[:, a] * design[:, b] for a, b in zip(*_pairs(k))]
        self.features += [design[:, j] * resid for j in range(k)]

    @staticmethod
    def fit(centers, counts, totals, products):
        """The fit on each of several sets of rows, from the center of its
        form (row i of `centers`, all of one width k), its row count
        (`counts[i]`) and the sums over its rows of the features (row i of
        `totals`) and of their outer products (`products[i]`): (estimates,
        L, failed, cancelled), one entry per set.

        One rule serves every kind; a mean or marginal_ols fit is its case
        k = 1. failed[i] is True where A = E(VV') on set i has a diagonal
        entry at most SECOND_MOMENT_FLOOR (a `where` that no row meets, a
        zero second moment), where A scaled to unit diagonal has
        lambda_min <= CANCELLATION_FLOOR lambda_max (a design that is rank
        deficient, or near it, in any units of its columns), or where the
        estimate or the influence's sum of squares (the trace of L P L') is
        not finite. That flags every set the fitter rejects, and more: the
        fitter accepts a design of that condition number or less. The
        estimate and L of a failed set are zero. cancelled[i] is True when a
        diagonal entry of L P L' is at most CANCELLATION_FLOOR times the
        size of the terms it is summed from, (|L| sqrt(diag P))^2: the
        round-off of those terms is then no longer small against it, or
        both are zero (as when the rows fit exactly: the fitter's influence
        is then round-off, which the sums do not see). Either way the set's
        fits are to be refitted.
        """
        sets, k = centers.shape
        eye, (a, b) = np.eye(k), _pairs(k)
        pair = np.arange(a.size)
        mean = totals / counts[:, None]
        gram = np.empty((sets, k, k))
        gram[:, a, b] = gram[:, b, a] = mean[:, : a.size]
        second = np.diagonal(gram, 0, 1, 2)  # a view: it follows the sets set to eye
        failed = (second <= SECOND_MOMENT_FLOOR).any(axis=1)
        gram[failed] = eye
        scale = 1.0 / np.sqrt(second)
        unit = np.linalg.eigvalsh(gram * scale[:, :, None] * scale[:, None, :])
        failed |= unit[:, 0] <= CANCELLATION_FLOOR * unit[:, -1]
        gram[failed] = eye
        a_inv = np.linalg.inv(gram)
        with np.errstate(over="ignore", invalid="ignore"):
            shift = (a_inv @ mean[:, -k:, None])[:, :, 0]
            # D, with D g = V V' shift: column p, for the pair (a, b), holds
            # shift_b in row a and shift_a in row b
            d = np.zeros((sets, k, a.size))
            d[:, a, pair], d[:, b, pair] = shift[:, b], shift[:, a]
            lmap = np.concatenate((-(a_inv @ d), a_inv), axis=2)
            estimate = centers + shift
            diag = ((lmap @ products) * lmap).sum(axis=2)
            size = (np.abs(lmap) @ np.sqrt(np.diagonal(products, 0, 1, 2))[:, :, None])[:, :, 0]
            failed |= ~np.isfinite(diag.sum(axis=1) + estimate.sum(axis=1))
            cancelled = (diag <= CANCELLATION_FLOOR * size**2).any(axis=1)
        estimate[failed], lmap[failed] = 0.0, 0.0
        return estimate, lmap, failed, cancelled


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> np.ndarray:
    """The pairs a <= b of range(k) in row-major order, as the columns of a
    read-only 2 x k (k + 1) / 2 array (np.triu_indices(k), computed once)."""
    pairs = np.array([(a, b) for a in range(k) for b in range(a, k)]).T
    pairs.setflags(write=False)
    return pairs


def _moment_forms(data: InternalDataset, descs, widths, centers):
    """The _Moments of each descriptor, of base width `widths[i]`, built
    around its full-data coefficients in `centers` (None where not known);
    None unless every descriptor has one: no aipw_ate fit, and features
    totalling at most MOMENT_MAX_FEATURES."""
    if (
        any(desc.kind is FunctionalKind.AIPW_ATE for desc in descs)
        or sum(k * (k + 3) // 2 for k in widths) > MOMENT_MAX_FEATURES
    ):
        return None
    return [_Moments(data, desc, center) for desc, center in zip(descs, centers)]
