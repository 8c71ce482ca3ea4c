"""Reference implementations that tests check the library against.

- The propensity Newton and the AIPW fit, as they were before their
  discarded and recomputed passes were removed: the log-likelihood through
  np.logaddexp, the separation check over every row on every iteration,
  the probabilities recomputed from the coefficient, and each outcome arm
  fitted with its influence. Only the line search's slack differs from
  that version: it is relative to the log-likelihood, as in
  datafuse.functionals. The fitters in datafuse.functionals must give
  bit-equal results and raise the same errors.
- The calibration's pieces, summed without the library: influence_moments,
  the second moments of two fits' influence columns, and
  external_covariance, the stacked summaries with their block-diagonal
  covariance scaled to n internal observations.
- The paper's identities: cd_minimize_check, the minimizer of the stacked
  calibration quadratic, whose tau part is the EFF estimate; and
  ivw_reduce, inverse-variance weighting, which EFF reduces to when the
  summary is of the target functional itself.
- The lasso oracles: soft_threshold, the coordinate update of a
  coordinate-descent lasso, and lasso_trace, the objective along the
  homotopy path that datafuse.debias._lasso_path follows.
- The scenarios' external summaries as the simulation generators once
  computed them by hand: joint_ols_summary, the normal-equation
  coefficients with the sandwich covariance, and marginal_slopes_summary,
  the marginal slopes with meat / outer(second, second). The generators
  now fit with the package's fitters, which must give the same numbers.
- line_ends_by_count, the CSV fast path's line-end counts as three
  bytes.count scans; datafuse.model._line_ends must return the same pair.
"""

import warnings

import numpy as np

from datafuse._linalg import check_full_rank, logistic, spd_solve, sym
from datafuse.debias import _lasso_path
from datafuse.errors import (
    EmptyArm,
    NonBinaryTreatment,
    PropensityDegenerate,
    RankDeficientDesign,
    Separation,
)
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
        prob = logistic(linpred)
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
        raise NonBinaryTreatment(f"treatment {treatment!r} is not binary")
    treated = t == 1.0
    if not np.any(treated) or not np.any(~treated):
        raise EmptyArm("one treatment arm has no observations")
    cols = [data.column(name) for name in covariates]
    # column-major, as datafuse.functionals._joint_design builds it
    design = np.array([np.ones(data.n)] + cols).T

    if start is not None and start.shape != (design.shape[1],):
        start = None
    try:
        prop_coef = _newton_logistic(design, t, f"propensity({treatment})", start)
    except Separation as exc:
        raise PropensityDegenerate(str(exc)) from exc
    prop = np.clip(logistic(design @ prop_coef), trim, 1.0 - trim)

    mu = np.empty((data.n, 2))
    for arm, mask in ((0, ~treated), (1, treated)):
        # the arm's rows stay column-major; design.T[:, mask].T would not
        rows = design.T.compress(mask, axis=1).T
        coef, _ = _ols_fit(rows, y[mask], f"outcome model arm {arm}")
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


# ---------------------------------------------------------------------------
# the calibration's pieces


def influence_moments(tau_fit, beta_fit):
    """(E(phi phi'), E(phi eta'), E(eta eta')): sums over the rows of the
    outer products of the two fits' influence rows, over n."""
    phi, eta = tau_fit.influence, beta_fit.influence
    n = phi.shape[0]
    return tuple(np.einsum("ij,ik->jk", a, b) / n for a, b in ((phi, phi), (phi, eta), (eta, eta)))


def external_covariance(summaries, n):
    """(beta_tilde, sigma_ext): the summaries' estimates stacked, and a
    block-diagonal matrix whose block s is sigma1_s * n / m_s."""
    beta_tilde = np.concatenate([np.zeros(0)] + [s.beta for s in summaries])
    sigma_ext = np.zeros((beta_tilde.size, beta_tilde.size))
    at = 0
    for s in summaries:
        sigma_ext[at : at + s.q, at : at + s.q] = s.sigma1 * (n / s.m)
        at += s.q
    return beta_tilde, sigma_ext


# ---------------------------------------------------------------------------
# the paper's identities


def ivw_reduce(tau_int: float, var_int: float, beta_tilde: float, var_ext: float) -> float:
    """Inverse-variance weighted average of two estimates of the same scalar."""
    if not (var_int > 0.0) or not (var_ext > 0.0):
        raise ValueError(f"variances must be positive, got {var_int!r}, {var_ext!r}")
    w_int, w_ext = 1.0 / var_int, 1.0 / var_ext
    return (tau_int * w_int + beta_tilde * w_ext) / (w_int + w_ext)


def cd_minimize_check(inputs):
    """Minimizer of the stacked calibration quadratic.

    Solves for (tau, beta) minimizing
        (v - theta)' Sigma^{-1} (v - theta)
          + (beta_tilde - beta)' sigma_ext^{-1} (beta_tilde - beta)
    with v = (tau_int, beta_int) and Sigma the joint influence covariance.
    The tau component reproduces the fused estimator.
    """
    p, q = inputs.p, inputs.q
    phi_var, cross, gram = influence_moments(inputs.tau_fit, inputs.beta_fit)
    beta_tilde, sigma_ext = external_covariance(inputs.summaries, inputs.n)
    joint = np.block([[phi_var, cross], [cross.T, gram]])
    w_joint = spd_solve(joint, np.eye(p + q), context="joint covariance")
    w_ext = spd_solve(sigma_ext, np.eye(q), context="external covariance")
    v = np.concatenate([inputs.tau_fit.estimate, inputs.beta_fit.estimate])
    lhs = w_joint.copy()
    lhs[p:, p:] += w_ext
    rhs = w_joint @ v
    rhs[p:] += w_ext @ beta_tilde
    theta = np.linalg.solve(sym(lhs), rhs)
    return theta[:p], theta[p:]


# ---------------------------------------------------------------------------
# the lasso


def soft_threshold(z: float, t: float) -> float:
    return np.sign(z) * max(abs(z) - t, 0.0)


def _penalty(b, weights, lam) -> float:
    finite = np.isfinite(weights)
    return lam * float(np.sum(weights[finite] * np.abs(b[finite])))


def lasso_trace(x, y, weights, lam):
    """(b, trace): the homotopy's minimizer of ||y - x b||^2 +
    lam * sum_j w_j |b_j|, and the objective at lam of the path's solution
    at every knot passed and at lam itself; it never increases along the
    path."""
    x, y, weights = (np.asarray(a, dtype=float) for a in (x, y, weights))
    knots = []
    b = _lasso_path(x, y, weights, [float(lam)], knots)[0]
    trace = []
    for point in knots + [b]:
        resid = y - x @ point
        trace.append(float(resid @ resid) + _penalty(point, weights, lam))
    return b, trace


# ---------------------------------------------------------------------------
# the scenarios' external summaries


def joint_ols_summary(design: np.ndarray, y: np.ndarray):
    """(coef, sigma1): least squares of y on `design` by the normal
    equations, and the sandwich covariance of the sqrt(m)-scaled estimate."""
    m = design.shape[0]
    coef = np.linalg.solve(design.T @ design, design.T @ y)
    resid = y - design @ coef
    inv_bread = np.linalg.inv(design.T @ design / m)
    meat = (design * resid[:, None]).T @ (design * resid[:, None]) / m
    return coef, inv_bread @ meat @ inv_bread


def marginal_slopes_summary(regressors: np.ndarray, y: np.ndarray):
    """(coef, sigma1): the no-intercept slope of y on each column of
    `regressors` alone, and the covariance of the sqrt(m)-scaled slopes."""
    m = regressors.shape[0]
    second = np.mean(regressors * regressors, axis=0)
    coef = np.mean(regressors * y[:, None], axis=0) / second
    scores = regressors * (y[:, None] - regressors * coef)
    return coef, (scores.T @ scores / m) / np.outer(second, second)


# ---------------------------------------------------------------------------
# the CSV fast path's line-end counts


def line_ends_by_count(raw: bytes, start: int) -> tuple:
    """(breaks, lines) of raw[start:]: its \\n and \\r bytes, and the csv
    reader's lines, an unterminated last line included."""
    breaks = raw.count(b"\n", start) + raw.count(b"\r", start)
    lines = breaks - raw.count(b"\r\n", start) + (not raw.endswith((b"\n", b"\r")))
    return breaks, lines
