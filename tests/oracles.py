"""Reference copies of the propensity Newton and the AIPW fit.

These are the fitters as they were before their discarded and recomputed
passes were removed: the log-likelihood through np.logaddexp, the
separation check over every row on every iteration, the probabilities
recomputed from the coefficient, and each outcome arm fitted with its
influence. Only the line search's slack differs from that version: it is
relative to the log-likelihood, as in datafuse.functionals. The fitters in
datafuse.functionals must give bit-equal results and raise the same errors.
"""

import warnings

import numpy as np
from scipy.special import expit

from datafuse._linalg import check_full_rank, spd_solve
from datafuse.errors import EmptyArm, PropensityDegenerate, RankDeficientDesign, Separation
from datafuse.functionals import LOGISTIC_MAX_ITER, LOGISTIC_SCORE_TOL, PROPENSITY_TRIM, _ols_fit
from datafuse.model import FunctionalFit


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
            if np.isfinite(cand_loglik) and cand_loglik >= loglik - 1e-12 * (1.0 + abs(loglik)):
                break
            scale /= 2.0
        else:
            raise Separation(f"no improving Newton step ({context})")
        coef, linpred, loglik = cand, cand_linpred, cand_loglik
        if not np.all(np.isfinite(coef)) or np.max(np.abs(coef)) > 1e4:
            raise Separation(f"coefficients diverged ({context})")
    warnings.warn(f"logistic fit stopped at iteration cap ({context})")
    return coef


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
