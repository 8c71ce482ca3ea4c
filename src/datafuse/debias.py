"""Bias-robust fusion: detect biased summary coordinates, then fuse.

The discrepancy beta_tilde - beta_int estimates the summary bias b. An
adaptive lasso on the whitened calibration system shrinks the unbiased
coordinates of b to exactly zero; fusion then uses only the selected
(zero) coordinates. The penalty level lambda = C * n^{-w} is tuned by
K-fold cross-validation against internal-only fold estimates.
"""

import warnings
from dataclasses import dataclass, replace

import numpy as np

from ._linalg import inv_sqrt_spd
from .errors import (
    DataFuseError,
    DimensionMismatch,
    FoldTooSmall,
    MalformedInput,
    NoConvergence,
    NotPositiveDefinite,
)
from .model import Method, SelectionResult
from .fusion import (
    FusionInputs,
    assemble_external,
    empirical_moments,
    estimate_crude,
    estimate_eff,
    estimate_int,
    estimate_knw,
    prepare_inputs,
    restrict_inputs,
)

__all__ = [
    "DebiasConfig",
    "whiten",
    "adaptive_lasso",
    "select_unbiased",
    "estimate_dbs",
    "estimate_orc",
    "cv_tune",
    "kfold_indices",
]

CD_TOL = 1e-10
CD_MAX_SWEEPS = 10_000
EIG_FLOOR = 1e-12


def _default_grid() -> tuple:
    # Ten log-spaced loadings. The lower end matters: with C much below 1
    # the penalty cannot zero the bias estimate of a genuinely unbiased
    # coordinate at n around 1000, so cross-validation noise would discard
    # usable summaries far too often.
    return tuple(np.logspace(0.0, 2.0, 10))


@dataclass(frozen=True)
class DebiasConfig:
    """Tuning knobs for the debiased estimator.

    w must satisfy 1/2 < w < (alpha + 1)/2 so the penalty vanishes for
    unbiased coordinates but still dominates their noise. lambda_fixed
    bypasses cross-validation entirely.
    """

    alpha: float = 2.0
    w: float = 1.0
    grid_c: tuple = ()
    k: int = 3
    seed: int = 0
    lambda_fixed: float = None

    def __post_init__(self):
        if not self.grid_c:
            object.__setattr__(self, "grid_c", _default_grid())
        grid = tuple(sorted(float(c) for c in self.grid_c))
        if any(c <= 0.0 for c in grid):
            raise MalformedInput("grid_c entries must be positive")
        object.__setattr__(self, "grid_c", grid)
        if not self.alpha > 0.0:
            raise MalformedInput(f"alpha must be positive, got {self.alpha}")
        if not 0.5 < self.w < (self.alpha + 1.0) / 2.0:
            raise MalformedInput(
                f"w={self.w} outside admissible range (0.5, {(self.alpha + 1.0) / 2.0})"
            )
        if self.k < 2:
            raise MalformedInput(f"cross-validation needs k >= 2, got {self.k}")
        if self.lambda_fixed is not None and not self.lambda_fixed >= 0.0:
            raise MalformedInput(f"lambda_fixed must be >= 0, got {self.lambda_fixed}")

    @classmethod
    def from_dict(cls, obj) -> "DebiasConfig":
        known = {"alpha", "w", "grid_c", "k", "seed", "lambda_fixed"}
        extra = set(obj) - known
        if extra:
            raise MalformedInput(f"unknown debias config keys {sorted(extra)}")
        kwargs = dict(obj)
        if "grid_c" in kwargs:
            kwargs["grid_c"] = tuple(kwargs["grid_c"])
        return cls(**kwargs)


def whiten(inputs: FusionInputs):
    """Whitened design and response of the calibration quadratic.

    X is the symmetric inverse square root of sigma_ext + gram (eigenvalues
    floored at 1e-12) and Y = X (beta_tilde - beta_int), so that
    ||Y - X b||^2 reproduces the quadratic form exactly.
    """
    _, gram = empirical_moments(inputs.tau_fit, inputs.beta_fit)
    beta_tilde, sigma_ext = assemble_external(inputs)
    x = inv_sqrt_spd(
        sigma_ext + gram, floor=EIG_FLOOR, error=NotPositiveDefinite, context="whiten"
    )
    y = x @ (beta_tilde - inputs.beta_fit.estimate)
    return x, y


def soft_threshold(z: float, t: float) -> float:
    return np.sign(z) * max(abs(z) - t, 0.0)


def _penalty(b, weights, lam) -> float:
    finite = np.isfinite(weights)
    return lam * float(np.sum(weights[finite] * np.abs(b[finite])))


def adaptive_lasso(x, y, weights, lam, *, return_trace: bool = False):
    """Cyclic coordinate descent for ||y - x b||^2 + lam * sum_j w_j |b_j|.

    Zeros are exact: a coordinate whose subgradient condition holds is set
    to 0.0, never to a small float. Coordinates with infinite weight are
    pinned at zero and flagged with a warning rather than aborting.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],) or weights.shape != (x.shape[1],):
        raise DimensionMismatch(
            f"inconsistent shapes x{x.shape} y{y.shape} weights{weights.shape}"
        )
    if lam < 0.0:
        raise MalformedInput(f"lambda must be >= 0, got {lam}")
    if np.any(weights < 0.0):
        raise MalformedInput("weights must be non-negative")
    q = x.shape[1]
    pinned = ~np.isfinite(weights)
    if np.any(pinned):
        warnings.warn(
            f"coordinates {np.flatnonzero(pinned).tolist()} have infinite weight; "
            "pinned at zero"
        )
    col_sq = np.einsum("ij,ij->j", x, x)
    b = np.zeros(q)
    resid = y.copy()
    trace = []
    for _ in range(CD_MAX_SWEEPS):
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
        if return_trace:
            trace.append(float(resid @ resid) + _penalty(b, weights, lam))
        if delta < CD_TOL:
            return (b, trace) if return_trace else b
    raise NoConvergence(f"coordinate descent did not converge in {CD_MAX_SWEEPS} sweeps")


def select_unbiased(inputs: FusionInputs, lam: float, alpha: float = 2.0) -> SelectionResult:
    """Estimate summary biases and return the selected (exactly zero) set."""
    if not inputs.summaries:
        raise DimensionMismatch("select_unbiased needs at least one summary")
    x, y = whiten(inputs)
    discrepancy = (
        np.concatenate([s.beta for s in inputs.summaries]) - inputs.beta_fit.estimate
    )
    with np.errstate(divide="ignore"):
        weights = np.abs(discrepancy) ** (-float(alpha))
    b_hat = adaptive_lasso(x, y, weights, lam)
    selected = tuple(int(j) for j in np.flatnonzero(b_hat == 0.0))
    return SelectionResult(b_hat=b_hat, selected=selected, lam=float(lam), alpha=float(alpha))


def _eff_or_int(inputs: FusionInputs, keep, method: Method, level: float, empty_note: str):
    """EFF restricted to the coordinates in `keep`, tagged `method`; with
    `keep` empty, the internal-only estimate flagged by `empty_note`."""
    if keep:
        return replace(estimate_eff(restrict_inputs(inputs, keep), level=level), method=method)
    result = estimate_int(inputs, level=level)
    return replace(result, method=method, warnings=result.warnings + (empty_note,))


def estimate_orc(inputs: FusionInputs, unbiased_set, level: float = 0.95):
    """Fused estimate restricted to coordinates known to be unbiased."""
    unbiased = tuple(sorted(int(j) for j in unbiased_set))
    return _eff_or_int(
        inputs, unbiased, Method.ORC, level, "empty unbiased set: internal-only estimate"
    )


def kfold_indices(n: int, k: int, seed) -> list:
    """Balanced folds (sizes differ by at most one) from a seeded shuffle."""
    if k < 2 or k > n:
        raise MalformedInput(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(seed)
    return [np.sort(part) for part in np.array_split(rng.permutation(n), k)]


def cv_tune(
    inputs: FusionInputs,
    grid_c,
    w: float = 1.0,
    alpha: float = 2.0,
    k: int = 3,
    seed=0,
    folds=None,
):
    """Pick the penalty constant C by K-fold cross-validation.

    Each fold compares the internal-only estimate on the held-out rows with
    the debiased fused estimate refitted on the remaining rows (summaries
    are fixed; only the internal fits are resampled). The error is the mean
    squared distance across folds; ties break toward the smaller C.
    Returns (c_star, trace) with trace a tuple of (C, error) pairs.
    """
    if inputs.data is None or inputs.tau is None:
        raise MalformedInput(
            "cross-validation needs inputs carrying the dataset and tau descriptor "
            "(build them with prepare_inputs)"
        )
    grid = sorted(float(c) for c in grid_c)
    if not grid or any(c <= 0.0 for c in grid):
        raise MalformedInput("grid_c must be a non-empty list of positive constants")
    n = inputs.n
    if folds is None:
        folds = kfold_indices(n, k, seed)
    else:
        folds = [np.asarray(f) for f in folds]
    errors = np.zeros(len(grid))
    all_rows = np.arange(n)
    for fold_idx, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(all_rows, test_rows)
        try:
            tau_test = _fit_tau(inputs, test_rows)
            train_inputs = prepare_inputs(
                inputs.data.subset(train_rows),
                inputs.tau,
                inputs.summaries,
                omega_override=inputs.omega_override,
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
            b_hat = adaptive_lasso(x, y, weights, lam)
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


def _fit_tau(inputs: FusionInputs, rows) -> np.ndarray:
    from .functionals import fit_functional

    return fit_functional(inputs.data.subset(rows), inputs.tau).estimate


def estimate_dbs(inputs: FusionInputs, config: DebiasConfig = None, level: float = 0.95):
    """Debiased fused estimator: select unbiased coordinates, then fuse.

    Returns (FusionResult, SelectionResult). With an empty selection the
    estimate falls back to the internal-only fit, flagged in warnings.
    """
    config = DebiasConfig() if config is None else config
    cv_trace = ()
    if config.lambda_fixed is not None:
        lam = float(config.lambda_fixed)
    else:
        c_star, cv_trace = cv_tune(
            inputs, config.grid_c, config.w, config.alpha, config.k, config.seed
        )
        lam = c_star * inputs.n ** (-config.w)
    base = select_unbiased(inputs, lam, config.alpha)
    selection = SelectionResult(
        b_hat=base.b_hat,
        selected=base.selected,
        lam=lam,
        alpha=config.alpha,
        cv_trace=cv_trace,
    )
    result = _eff_or_int(
        inputs, selection.selected, Method.DBS, level, "empty selection: internal-only estimate"
    )
    return result, selection


def _run_method(method, inputs, level=0.95, *, beta_true=None, unbiased=None, debias=None):
    """Run the estimator of `method`: (FusionResult, SelectionResult or None).

    KNW reads `beta_true`, ORC `unbiased` and DBS `debias` (a DebiasConfig);
    only DBS returns a selection.
    """
    if method is Method.DBS:
        return estimate_dbs(inputs, debias, level)
    if method is Method.KNW:
        return estimate_knw(inputs, beta_true, level), None
    if method is Method.ORC:
        return estimate_orc(inputs, unbiased, level), None
    plain = {Method.INT: estimate_int, Method.CRD: estimate_crude, Method.EFF: estimate_eff}
    return plain[method](inputs, level), None
