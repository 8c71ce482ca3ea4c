"""Functional fitters producing estimates with influence columns.

Each fitter returns a FunctionalFit whose influence columns average to zero
exactly (up to round-off) because the estimating equations are solved
exactly. The treatment-effect fitter is augmented inverse propensity
weighting with a logistic propensity and per-arm linear outcome models, so
it stays consistent when either nuisance model is correct.

Each functional kind has one fitter, of a list of datasets of one row count
(_FITTERS), which gives each dataset the fit it has alone: the designs of
the least-squares fits and the propensity Newton run as one stack, and
means one dataset at a time. _refit is the one dispatch to them. A fit of
one dataset is the list of one: the public fitters and fit_functional check
their arguments, the public fitters by building the kind's descriptor (the
rules of model._ARGS), so a fitter accepts exactly what a descriptor does.
"""

import functools
import math
import warnings

import numpy as np

from ._linalg import CANCELLATION_FLOOR, DIVERGENCE_BOUND, LOGISTIC_SCORE_TOL, LOGLIK_SLACK
from ._linalg import PINNED_PROB, SECOND_MOMENT_FLOOR, check_full_rank, logistic, matvec
from ._linalg import spd_solve
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
    _check_type,
    _items,
    _real,
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
    return _fit_one(data, FunctionalKind.MEAN, column=column, where=where)


def _fit_one(data, kind: FunctionalKind, **args) -> FunctionalFit:
    """The fit of `kind` on the dataset `data` alone, its arguments checked
    by the descriptor they make (model._ARGS): a public fitter accepts
    exactly what a descriptor does."""
    _check_type("data", data, InternalDataset)
    return _refit([data], FunctionalDescriptor(kind, args))[0]


def _means(datas, column, where=None) -> list:
    """fit_mean on each dataset of the list `datas`, one dataset at a time
    (each sum is np.mean's of its own column), its arguments checked."""
    fits = []
    for data in datas:
        y = data.column(column)
        if where is None:
            est = float(y.mean())
            fits.append(FunctionalFit(np.array([est]), (y - est)[:, None], label=f"mean({column})"))
            continue
        mask = data.column(where["column"]) == where["equals"]
        if not mask.any():
            raise EmptyArm(
                f"no rows with {where['column']} == {where['equals']} for mean({column})"
            )
        prob = mask.mean()
        est = float(y[mask].mean())
        infl = (mask * (y - est) / prob)[:, None]
        label = f"mean({column}|{where['column']}={where['equals']})"
        fits.append(FunctionalFit(np.array([est]), infl, label=label))
    return fits


def _ols_fit(design: np.ndarray, y: np.ndarray, context: str):
    """Coefficients and influence rows inv(E VV') V_i e_i for a linear fit,
    of one design or of each design of a stack (..., n, k), with y (..., n).

    One QR of the design gives R with R'R = V'V, and inv(V'V) is
    R^{-1} R^{-T}. The influence row is n inv(V'V) V_i e_i; the coefficients
    solve R'R coef = V'y with one refinement step (Bjorck's corrected
    seminormal equations), which keeps them as accurate as a QR solve rather
    than the normal equations. numpy's matmul multiplies a stack matrix by
    matrix, so each fit of a stack equals the fit of its design alone.
    """
    gram_inv, coef = _ols_coef(design, y, context)
    resid = y - matvec(design, coef)
    gram_inv *= design.shape[-2]
    return coef, (design * resid[..., None]) @ gram_inv


def _ols_coef(design: np.ndarray, y: np.ndarray, context: str):
    """inv(V'V) for the design V (or each of a stack), from R^{-1} of
    check_full_rank, and the least-squares coefficients, refined once as in
    _ols_fit."""
    r_inv = check_full_rank(design, RankDeficientDesign, context)
    gram_inv = r_inv @ r_inv.swapaxes(-1, -2)
    # y and the coefficients as columns (..., n, 1) and (..., k, 1): numpy's
    # matmul multiplies by a one-column matrix as by a vector, bit for bit
    design_t, y = design.swapaxes(-1, -2), y[..., None]
    coef = gram_inv @ (design_t @ y)
    coef += gram_inv @ (design_t @ (y - design @ coef))
    return gram_inv, coef[..., 0]


def fit_joint_ols(
    data: InternalDataset, outcome: str, regressors, intercept: bool = True
) -> FunctionalFit:
    """Joint least squares of outcome on the named regressors.

    With intercept=True the intercept coefficient comes first. Influence
    rows are inv(E VV') V_i e_i, whose sample mean vanishes by the normal
    equations.
    """
    args = {"outcome": outcome, "regressors": regressors, "intercept": intercept}
    return _fit_one(data, FunctionalKind.JOINT_OLS, **args)


def _joint_ols(datas, outcome, regressors, intercept=True) -> list:
    """fit_joint_ols on each dataset of the list `datas` (of one row count),
    its arguments already checked: the designs as one stack (_ols_fit), one
    FunctionalFit per dataset."""
    label = f"joint_ols({outcome}~{'+'.join(regressors)}{'+1' if intercept else ''})"
    design = _joint_design(datas, regressors, intercept)
    coef, infl = _ols_fit(design, _stacked(datas, outcome), label)
    return [FunctionalFit(c, i, label=label) for c, i in zip(coef, infl)]


def _stacked(datas, name: str) -> np.ndarray:
    """Column `name` of each dataset of a list (of one row count), as the rows
    of one (B, n) array: for a list of one a view of its column, not a copy."""
    if len(datas) == 1:
        return datas[0].column(name)[None]
    return np.array([one.column(name) for one in datas])


def _joint_design(datas, regressors, intercept: bool = True) -> np.ndarray:
    """The named columns of each dataset of the list `datas` (of one row
    count) as a design, after an intercept column if `intercept`: that of
    fit_joint_ols and of the aipw_ate propensity. The designs are one stack
    (B, n, k) in one buffer.

    Each design is column-major (Fortran order): every pass over it (the
    Newton Hessian's design * weight[:, None] and design.T products, the OLS
    influence, the _Moments features) reads whole columns, which are then
    contiguous. Row-major, one Newton Hessian of three columns at n = 20,000
    took 159 us against 47 us, its broadcast product 99 against 22 us (a
    2-core Xeon VM, numpy 2.4 on OpenBLAS 0.3.31).
    """
    ones = [np.ones(datas[0].n)] if intercept else []
    columns = np.array([ones + [one.column(name) for name in regressors] for one in datas])
    return columns.swapaxes(1, 2)


def fit_marginal_ols(data: InternalDataset, outcome: str, regressor: str) -> FunctionalFit:
    """Slope of the no-intercept regression of outcome on one regressor."""
    return _fit_one(data, FunctionalKind.MARGINAL_OLS, outcome=outcome, regressor=regressor)


def _marginal_ols(datas, outcome, regressor) -> list:
    """fit_marginal_ols on each dataset of the list `datas` (of one row
    count), its arguments already checked, as one stack: each row's sums
    are those of its dataset alone, and the stack raises if one regressor
    has a zero second moment. One FunctionalFit per dataset."""
    y, x, n = _stacked(datas, outcome), _stacked(datas, regressor), datas[0].n
    # the row means, as np.mean takes them: a sum, then a division by n
    second = (x * x).sum(axis=-1) / n
    if (second <= SECOND_MOMENT_FLOOR).any():
        raise DegenerateRegressor(f"regressor {regressor!r} has zero second moment")
    coef = (x * y).sum(axis=-1) / n / second
    infl = x * (y - x * coef[:, None]) / second[:, None]
    label = f"marginal_ols({outcome}~{regressor})"
    return [FunctionalFit(c[None], i[:, None], label=label) for c, i in zip(coef, infl)]


def _bernoulli_loglik(y: np.ndarray, linpred: np.ndarray) -> list:
    """The log-likelihood of each fit of a stack (the last axis indexes rows),
    as a list of floats."""
    # log(1 + e^eta) as max(eta, 0) + log1p(e^-|eta|), the terms summed per
    # row: np.logaddexp gives the same values at several times the cost
    terms = np.abs(linpred)
    np.negative(terms, out=terms)
    np.exp(terms, out=terms)
    np.log1p(terms, out=terms)
    terms += np.maximum(linpred, 0.0)
    return (y * linpred - terms).sum(axis=-1).tolist()


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
    """Damped Newton MLE of each design of a stack from `start` (zero if
    None): (coef, prob), prob the fitted probabilities logistic(design @ coef)
    of the last iteration.

    `design` is a stack (B, n, k), `y` the stack (B, n) of 0/1 responses and
    `start` None or a stack (B, k), and coef (B, k) and prob (B, n) are
    stacked the same way; one design is the stack of one. The fits run in
    lockstep, the Hessians solved as one stack (spd_solve), and each fit
    keeps its own rules, so each gives the coef, prob, error and warnings it
    gives alone: it stops, and is frozen, when max |score| <
    LOGISTIC_SCORE_TOL, or warns after LOGISTIC_MAX_ITER iterations. A step
    is halved until the log-likelihood is finite and falls short of the
    fit's current one by at most LOGLIK_SLACK (1 + |loglik|): a slack
    relative to the log-likelihood, which is summed over the rows, so that
    round-off near the optimum does not reject every step. Raises Separation
    when the probabilities are pinned at 0/1 (checked first on one probe row
    per class), when no halving improves, or when the coefficients diverge
    (max |coef| > DIVERGENCE_BOUND): the first error the lockstep meets, by
    iteration, then by stage, then by place in the stack. The arrays are
    narrowed to the running fits only when a fit stops, so a stack of one
    indexes nothing.
    """
    fits, n, k = design.shape
    check_full_rank(design, RankDeficientDesign, context)
    # per fit, the arguments of _pinned: its class masks and the first row
    # of each class (argmax stops at the first True), None for an empty class
    classes = []
    for ones, zeros in zip(y == 1.0, y == 0.0):
        one, zero = int(ones.argmax()), int(zeros.argmax())
        classes.append((ones, zeros, (one if ones[one] else None, zero if zeros[zero] else None)))
    # coefficients, scores and steps are columns (fits, k, 1): the products
    # with the designs are then plain matmuls
    coef = np.zeros((fits, k, 1)) if start is None else start[..., None]
    places = list(range(fits))  # the running fits' places in the stack
    stopped = []  # (places, coef, prob) of the fits that stopped, by iteration
    linpred = (design @ coef)[..., 0]
    loglik = _bernoulli_loglik(y, linpred)
    for _ in range(LOGISTIC_MAX_ITER):
        prob = logistic(linpred)
        for i, b in enumerate(places):
            if _pinned(prob[i], *classes[b]):
                raise Separation(f"fitted probabilities pinned at 0/1 ({context})")
        score = design.swapaxes(-1, -2) @ (y - prob)[..., None]
        # max |score| < LOGISTIC_SCORE_TOL, each entry compared (NaN fails)
        stop = [all([abs(s) < LOGISTIC_SCORE_TOL for s, in fit]) for fit in score.tolist()]
        if any(stop):
            if all(stop):
                stopped.append((places, coef, prob))
                break
            done = [i for i, s in enumerate(stop) if s]
            keep = [i for i, s in enumerate(stop) if not s]
            stopped.append(([places[i] for i in done], coef[done], prob[done]))
            places, loglik = [places[i] for i in keep], [loglik[i] for i in keep]
            design, y, coef, prob, score = (a[keep] for a in (design, y, coef, prob, score))
        weight = prob * (1.0 - prob)
        hessian = design.swapaxes(-1, -2) @ (design * weight[..., None])
        step = spd_solve(hessian, score, Separation, context=context)
        coef, linpred, loglik = _damped_step(design, y, coef, step, loglik, context)
        # NaN or inf in any fit's coefficients makes the maximum fail the test
        if not abs(coef).max() <= DIVERGENCE_BOUND:
            raise Separation(f"coefficients diverged ({context})")
    else:
        for _ in places:
            warnings.warn(f"logistic fit stopped at iteration cap ({context})")
        stopped.append((places, coef, logistic(linpred)))
    if len(stopped) == 1:
        coef, prob = stopped[0][1:]
    else:
        coef, prob = np.empty((fits, k, 1)), np.empty((fits, n))
        for at, part_coef, part_prob in stopped:
            coef[at], prob[at] = part_coef, part_prob
    return coef[..., 0], prob


def _damped_step(design, y, coef, step, loglik, context):
    """(coef, linpred, loglik) after each fit's Newton step `step`, halved
    until its log-likelihood is finite and at least its floor (see
    _newton_logistic); a fit short of its floor is tried again alone, the
    others keep their step. Every fit still short has been halved as often,
    so one scale serves them all. Raises Separation after 60 tries."""
    floor = [value - LOGLIK_SLACK * (1.0 + abs(value)) for value in loglik]
    cand = coef + step
    linpred = (design @ cand)[..., 0]
    cand_loglik = _bernoulli_loglik(y, linpred)
    short, scale = range(len(loglik)), 1.0
    for tries in range(60):
        if tries:
            scale /= 2.0
            part = slice(None) if len(short) == len(loglik) else short
            cand[part] = coef[part] + scale * step[part]
            linpred[part] = (design[part] @ cand[part])[..., 0]
            for i, value in zip(short, _bernoulli_loglik(y[part], linpred[part])):
                cand_loglik[i] = value
        short = [
            i for i in short if not (math.isfinite(cand_loglik[i]) and cand_loglik[i] >= floor[i])
        ]
        if not short:
            return cand, linpred, cand_loglik
    raise Separation(f"no improving Newton step ({context})")


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
    args = {"outcome": outcome, "treatment": treatment, "covariates": covariates}
    desc = FunctionalDescriptor(FunctionalKind.AIPW_ATE, args)
    trim = _real("trim", trim)
    if not 0.0 <= trim < 0.5:
        raise MalformedInput(f"trim must be in [0, 0.5), got {trim!r}")
    return _fit_aipw([data], **desc.args, trim=trim)[0]


def _fit_aipw(datas, outcome, treatment, covariates, trim=PROPENSITY_TRIM, start=None) -> list:
    """fit_aipw_ate on each dataset of the list `datas` (of one row count),
    its arguments checked: the propensities as one stacked Newton
    (_newton_logistic, each fit as it is alone) started at `start`, None or
    a stack (B, k) (zero if None or of another shape), and the outcome
    models per dataset, as their arms' rows differ. Each fit keeps its
    propensity coefficient as `_propensity`, a start for refits of the same
    model on other rows."""
    treatments = _stacked(datas, treatment)
    treated = treatments == 1.0
    for t, ones in zip(treatments, treated):
        if not ((t == 0.0) | ones).all():
            raise NonBinaryTreatment(f"treatment {treatment!r} is not binary")
        if ones.all() or not ones.any():
            raise EmptyArm("one treatment arm has no observations")
    design = _joint_design(datas, covariates)

    if start is not None and start.shape != design.shape[::2]:
        start = None
    try:
        prop_coef, prop = _newton_logistic(design, treatments, f"propensity({treatment})", start)
    except Separation as exc:
        raise PropensityDegenerate(str(exc)) from exc
    prop = np.clip(prop, trim, 1.0 - trim)

    fits = []
    for one, rows, t, p, coef, ones in zip(datas, design, treatments, prop, prop_coef, treated):
        y = one.column(outcome)
        mu = np.empty((2, one.n))
        for arm, mask in ((0, ~ones), (1, ones)):
            # the arm's rows selected along the contiguous axis stay column-major
            arm_rows = rows.T.compress(mask, axis=1).T
            mu[arm] = rows @ _ols_coef(arm_rows, y.compress(mask), f"outcome model arm {arm}")[1]
        transform = t / p * (y - mu[1]) - (1.0 - t) / (1.0 - p) * (y - mu[0]) + mu[1] - mu[0]
        est = float(transform.mean())
        fit = FunctionalFit(
            np.array([est]),
            (transform - est)[:, None],
            label=f"aipw_ate({outcome}~{treatment}|{'+'.join(covariates)})",
        )
        object.__setattr__(fit, "_propensity", coef)
        fits.append(fit)
    return fits


# each kind's fitter of a list of datasets of one row count, its arguments
# checked: one fit per dataset, each as the dataset gives it alone
_FITTERS = {
    FunctionalKind.MEAN: _means,
    FunctionalKind.JOINT_OLS: _joint_ols,
    FunctionalKind.MARGINAL_OLS: _marginal_ols,
    FunctionalKind.AIPW_ATE: _fit_aipw,
}


def fit_functional(data: InternalDataset, desc: FunctionalDescriptor) -> FunctionalFit:
    """Dispatch a descriptor to its fitter; returns the full-width fit.

    A descriptor's argument names are its fitter's keyword names.
    """
    _check_type("desc", desc, FunctionalDescriptor)
    _check_type("data", data, InternalDataset)
    return _refit([data], desc)[0]


def _refit(datas, desc: FunctionalDescriptor, start=None) -> list:
    """The fits of `desc` on each dataset of the list `datas` (of one row
    count), by its kind's fitter (_FITTERS); an aipw_ate fit's propensity
    Newton started at `start`, None or the stack (B, k) of the `_propensity`
    of fits of the same model on other rows."""
    if desc.kind is FunctionalKind.AIPW_ATE and start is not None:
        return _fit_aipw(datas, **desc.args, start=start)
    return _FITTERS[desc.kind](datas, **desc.args)


def evaluate_binding(data: InternalDataset, binding):
    """Fit every descriptor of a binding against the internal data.

    Descriptors sharing kind and args are fitted once; component selection
    then slices the shared fit. Returns (estimates, influence matrix) with
    one column per summary coordinate, ordered as the binding lists them;
    an empty binding has none.
    """
    _check_type("data", data, InternalDataset)
    binding = _items("binding", binding, FunctionalDescriptor)
    estimates, influence = _evaluate_bindings([data], binding)
    return estimates[0], influence[0]


def _evaluate_bindings(datas, binding):
    """evaluate_binding on each dataset of the list `datas` (of one row
    count): (estimates (B, q), influence (B, n, q)), row b that of
    datas[b]. Each distinct fit is fitted on the whole list at once
    (_refit), and each descriptor's columns are written into the result
    in place."""
    distinct, slots = _distinct_fits(binding)
    fits = [_refit(datas, desc) for desc in distinct]
    parts = [(fits[i], desc._coefficients()) for desc, i in zip(binding, slots)]
    q = sum(len(j) for _, j in parts)
    estimates, influence = np.empty((len(datas), q)), np.empty((len(datas), datas[0].n, q))
    at = 0
    for part, j in parts:
        cols = slice(at, at + len(j))
        for b, fit in enumerate(part):
            estimates[b, cols] = fit.estimate[j.start : j.stop]
            influence[b, :, cols] = fit.influence[:, j.start : j.stop]
        at = cols.stop
    return estimates, influence


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
    """Moment forms of a mean, marginal_ols or joint_ols fit, one per dataset
    of a list of datasets of one row count.

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
    k (k + 3) / 2 features (_moment_eligible caps their total). The form reads
    only sums, and flags a superset of the sets of rows on which the fitter
    would fail; the fitter, run on those rows, decides and raises the error.
    The fit reads a form only through its width k and its center, so forms
    of one width are fitted together, each set with its own center.

    The datasets' designs are one stack (B, n, k) and `center` None or the
    stack (B, k) of their centers: each dataset's center, e0 and features
    are those it has alone (the products V c0 are one matrix-vector product
    per design, as numpy's matmul makes it for one).
    """

    def __init__(self, datas, desc: FunctionalDescriptor, center=None):
        args = desc.args
        if desc.kind is FunctionalKind.MEAN:
            y, where = _stacked(datas, args["column"]), args.get("where")
            if where is None:
                design = np.ones((len(datas), datas[0].n, 1))
            else:
                design = (_stacked(datas, where["column"]) == where["equals"]).astype(float)
                design = design[..., None]
        elif desc.kind is FunctionalKind.MARGINAL_OLS:
            y, design = _stacked(datas, args["outcome"]), _stacked(datas, args["regressor"])
            design = design[..., None]
        else:
            y = _stacked(datas, args["outcome"])
            design = _joint_design(datas, args["regressors"], args.get("intercept", True))
        self.center = _ols_coef(design, y, desc.kind.value)[1] if center is None else center
        # the factors of the features, each (B, n): the design's columns, then e0
        self.factors = [design[..., j] for j in range(design.shape[-1])]
        self.factors.append(y - matvec(design, self.center))

    def features(self, out, rows) -> None:
        """Write the features of each dataset into out (B, P, n), its rows
        in the order of `rows`: row b of `rows` holds the flat indices, into
        a stack (B, n), of dataset b's rows. Feature p < P is V_a V_b for the
        p-th pair (a, b) of _pairs(k), then feature P + j is V_j e0. e0 is
        formed in row order and reordered with the design's columns: BLAS
        may round a row's V c0 by its place in the design."""
        factors = [np.take(factor, rows) for factor in self.factors]
        k = len(factors) - 1
        pairs = _pairs(k)
        for p, (a, b) in enumerate(zip(*pairs)):
            np.multiply(factors[a], factors[b], out=out[:, p])
        for j in range(k):
            np.multiply(factors[j], factors[k], out=out[:, pairs.shape[1] + j])

    @staticmethod
    def solve(centers, counts, totals):
        """The estimate on each of several sets of rows, from the center of
        its form (row i of `centers`, all of one width k), its row count
        (`counts[i]`) and the sums over its rows of the features (row i of
        `totals`): (estimates, failed, inv(A), shifts), one entry per set.

        One rule serves every kind; a mean or marginal_ols fit is its case
        k = 1. failed[i] is True where A = E(VV') on set i has a diagonal
        entry at most SECOND_MOMENT_FLOOR (a `where` that no row meets, a
        zero second moment), where A scaled to unit diagonal has
        lambda_min <= CANCELLATION_FLOOR lambda_max (a design that is rank
        deficient, or near it, in any units of its columns; this also keeps
        a singular A from inv, which would raise for the whole stack), or
        where the estimate is not finite. That flags every set the fitter
        rejects, and more: the fitter accepts a design of that condition
        number or less. The estimate of a failed set is zero.
        """
        sets, k = centers.shape
        eye, (a, b) = np.eye(k), _pairs(k)
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
            estimate = centers + shift
            failed |= ~np.isfinite(estimate.sum(axis=1))
        estimate[failed] = 0.0
        return estimate, failed, a_inv, shift

    @staticmethod
    def fit(centers, counts, totals, products):
        """solve's estimates, the influence maps L and one refit flag per set:
        (estimates, L, refit), from solve's arguments and the sums over set
        i's rows of the features' outer products (P = `products[i]`).
        refit[i] is True where set i failed, where the trace of L P L' is
        not finite, or where a diagonal entry of L P L' is at most
        CANCELLATION_FLOOR times the size of the terms it is summed from,
        (|L| sqrt(diag P))^2: their round-off is then no longer small against
        it, or both are zero (as when the rows fit exactly: the fitter's
        influence is then round-off, which the sums do not see). The
        estimate and L of a failed set, or of one whose trace is not finite,
        are zero."""
        estimate, failed, a_inv, shift = _Moments.solve(centers, counts, totals)
        a, b = _pairs(shift.shape[1])
        pair = np.arange(a.size)
        with np.errstate(over="ignore", invalid="ignore"):
            # D, with D g = V V' shift: column p, for the pair (a, b), holds
            # shift_b in row a and shift_a in row b
            d = np.zeros(shift.shape + pair.shape)
            d[:, a, pair], d[:, b, pair] = shift[:, b], shift[:, a]
            lmap = np.concatenate((-(a_inv @ d), a_inv), axis=2)
            diag = ((lmap @ products) * lmap).sum(axis=2)
            size = (np.abs(lmap) @ np.sqrt(np.diagonal(products, 0, 1, 2))[:, :, None])[:, :, 0]
            failed |= ~np.isfinite(diag.sum(axis=1))
            refit = failed | (diag <= CANCELLATION_FLOOR * size**2).any(axis=1)
        estimate[failed], lmap[failed] = 0.0, 0.0
        return estimate, lmap, refit


@functools.lru_cache(maxsize=None)
def _pairs(k: int) -> np.ndarray:
    """The pairs a <= b of range(k) in row-major order, as the columns of a
    read-only 2 x k (k + 1) / 2 array (np.triu_indices(k), computed once)."""
    pairs = np.array([(a, b) for a in range(k) for b in range(a, k)]).T
    pairs.setflags(write=False)
    return pairs


def _moment_eligible(descs, widths) -> bool:
    """Whether descriptors of base widths `widths` all have a moment form
    (_Moments): no aipw_ate fit, and features totalling at most
    MOMENT_MAX_FEATURES."""
    return (
        all(desc.kind is not FunctionalKind.AIPW_ATE for desc in descs)
        and sum(k * (k + 3) // 2 for k in widths) <= MOMENT_MAX_FEATURES
    )
