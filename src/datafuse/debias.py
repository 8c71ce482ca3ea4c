"""Bias-robust fusion: detect biased summary coordinates, then fuse.

The discrepancy beta_tilde - beta_int estimates the summary bias b. An
adaptive lasso on the whitened calibration system shrinks the unbiased
coordinates of b to exactly zero; fusion then uses only the selected
(zero) coordinates. The penalty level lambda = C * n^{-w} is tuned by
K-fold cross-validation against internal-only fold estimates.

The lasso is solved by the exact homotopy in lambda (the lasso
modification of LARS, Efron et al., Ann. Statist. 32, 2004): the solution
is piecewise linear in lambda, so one path per fold gives the solution at
every grid point. Zeros are exact by construction and there is no
convergence tolerance; NoConvergence is raised only when a path exceeds
_MAX_KNOTS knots.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dposv

from ._linalg import inv_sqrt_spd
from .errors import (
    DataFuseError,
    DimensionMismatch,
    FoldTooSmall,
    MalformedInput,
    NoConvergence,
    NotPositiveDefinite,
    RankDeficientDesign,
)
from .model import Method, SelectionResult, _integer, _real, _reals, _seed
# restrict_inputs stays bound for bench/layers.py, which patches it here
from .fusion import (  # noqa: F401
    FusionInputs,
    _fused,
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

_MAX_KNOTS = 1000
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
    bypasses cross-validation entirely. k is an integer >= 2 and seed an
    integer >= 0 or a numpy SeedSequence.
    """

    alpha: float = 2.0
    w: float = 1.0
    grid_c: tuple = ()
    k: int = 3
    seed: int = 0
    lambda_fixed: float = None

    def __post_init__(self):
        grid = tuple(sorted(_reals("grid_c", self.grid_c or _default_grid())))
        if any(c <= 0.0 for c in grid):
            raise MalformedInput("grid_c entries must be positive")
        object.__setattr__(self, "grid_c", grid)
        if not _real("alpha", self.alpha) > 0.0:
            raise MalformedInput(f"alpha must be positive, got {self.alpha}")
        if not 0.5 < _real("w", self.w) < (self.alpha + 1.0) / 2.0:
            raise MalformedInput(
                f"w={self.w} outside admissible range (0.5, {(self.alpha + 1.0) / 2.0})"
            )
        _integer("k", self.k, 2)
        _seed(self.seed)
        if self.lambda_fixed is not None and not _real("lambda_fixed", self.lambda_fixed) >= 0.0:
            raise MalformedInput(f"lambda_fixed must be >= 0, got {self.lambda_fixed}")

    @classmethod
    def from_dict(cls, obj) -> "DebiasConfig":
        if not isinstance(obj, dict):
            raise MalformedInput("debias config must be a table/object")
        extra = set(obj) - {"alpha", "w", "grid_c", "k", "seed", "lambda_fixed"}
        if extra:
            raise MalformedInput(f"unknown debias config keys {sorted(extra)}")
        return cls(**obj)


def whiten(inputs: FusionInputs):
    """Whitened design and response of the calibration quadratic.

    X is the symmetric inverse square root of sigma_ext + gram (eigenvalues
    floored at 1e-12) and Y = X (beta_tilde - beta_int), so that
    ||Y - X b||^2 reproduces the quadratic form exactly.
    """
    calib = inputs._calibration
    x = inv_sqrt_spd(calib.sigma_ext + calib.gram, EIG_FLOOR, NotPositiveDefinite, "whiten")
    return x, x @ -calib.residual


def _adaptive_weights(discrepancy, alpha) -> np.ndarray:
    """Zou's weights |discrepancy_j|^-alpha, infinite where it is zero."""
    with np.errstate(divide="ignore"):
        return np.abs(discrepancy) ** (-float(alpha))


def soft_threshold(z: float, t: float) -> float:
    return np.sign(z) * max(abs(z) - t, 0.0)


def _penalty(b, weights, lam) -> float:
    finite = np.isfinite(weights)
    return lam * float(np.sum(weights[finite] * np.abs(b[finite])))


def _lasso_path(x, y, weights, lams, knots=None) -> np.ndarray:
    """Minimizers of ||y - x b||^2 + lam * sum_j w_j |b_j|, one row per
    entry of `lams` (any order), by the exact homotopy in lam.

    With G = x'x, r = x'y and h = w/2, the solution on the active set A with
    signs s is b_A(lam) = G_AA^{-1} (r_A - lam h_A s_A), linear in lam
    between knots. The path starts at lam = inf and stops below the smallest
    requested lam. At each knot one coordinate joins A (its correlation
    r_j - G_j b reaches lam h_j in absolute value) or leaves it (b_j reaches
    zero). Coordinates with infinite weight or a zero column stay at zero;
    zero-weight coordinates are active from the start and never leave.
    `knots`, when given, receives b at every knot passed. Raises
    RankDeficientDesign if the active columns are linearly dependent.
    """
    # q is small (one coordinate per summary statistic), so the bookkeeping
    # runs on Python floats; LAPACK factors the active block at each knot
    gram = (x.T @ x).tolist()
    r = (x.T @ y).tolist()
    q = len(r)
    w = weights.tolist()
    movable = [math.isfinite(wj) and gram[j][j] > 0.0 for j, wj in enumerate(w)]
    h = [wj / 2.0 if ok else 0.0 for wj, ok in zip(w, movable)]
    active = [j for j in range(q) if movable[j] and h[j] == 0.0]
    # +-1 for a penalized coordinate on the active set, else 0
    sign = [0.0] * q
    order = sorted(range(len(lams)), key=lambda i: -lams[i])
    out = np.zeros((len(lams), q))
    done, top = 0, math.inf
    # the coordinate that changed state at `top`, and its sign before that
    changed, changed_sign = -1, 0.0
    for _ in range(_MAX_KNOTS):
        # b(lam) = u - lam v, exactly zero off the active set
        u, v = [0.0] * q, [0.0] * q
        if active:
            _, sol, info = dposv(
                [[gram[i][j] for j in active] for i in active],
                [[r[i], h[i] * sign[i]] for i in active],
            )
            if info != 0:
                raise RankDeficientDesign("adaptive lasso: active columns are collinear")
            for i, (ui, vi) in zip(active, sol.tolist()):
                u[i], v[i] = ui, vi
        # The next knot is the largest root below `top` at which a coordinate
        # starts to change state as lam decreases. The coordinate that changed
        # at `top` is barred from its own root there: a coordinate that joined
        # cannot leave at once, one that left cannot rejoin with the same sign
        # (it may with the other).
        lo, who, new_sign = 0.0, -1, 0.0
        for j in range(q):
            if not movable[j] or h[j] == 0.0:
                continue
            if sign[j]:
                # b_j = u_j - lam v_j heads for zero
                if j != changed and sign[j] * v[j] < 0.0 and u[j] / v[j] > lo:
                    lo, who = u[j] / v[j], j
                continue
            # the correlation a + lam g heads out through s lam h_j
            a = r[j] - sum(gram[j][i] * u[i] for i in active)
            g = sum(gram[j][i] * v[i] for i in active)
            for s in (1.0, -1.0):
                slope = h[j] - s * g
                if slope > 0.0 and s * a / slope > lo and (j, s) != (changed, changed_sign):
                    lo, who, new_sign = s * a / slope, j, s
        lo = min(lo, top)
        while done < len(order) and (who < 0 or lams[order[done]] >= lo):
            lam = lams[order[done]]
            out[order[done]] = _segment_point(u, v, lam, who if lam == lo else -1)
            done += 1
        if done == len(order):
            return out
        if knots is not None:
            knots.append(np.array(_segment_point(u, v, lo, who)))
        changed, changed_sign = who, sign[who]
        if sign[who]:
            active.remove(who)
            sign[who] = 0.0
        else:
            active.append(who)
            sign[who] = new_sign
        top = lo
    raise NoConvergence(f"lasso path did not finish within {_MAX_KNOTS} knots")


def _segment_point(u, v, lam, knot_coord: int) -> list:
    """u - lam v, with the coordinate changing state at this lam (if any,
    else -1) set to the exact zero it passes through."""
    b = [uj - lam * vj if vj else uj for uj, vj in zip(u, v)]
    if knot_coord >= 0:
        b[knot_coord] = 0.0
    return b


def adaptive_lasso(x, y, weights, lam, *, return_trace: bool = False):
    """Minimizer of ||y - x b||^2 + lam * sum_j w_j |b_j| by the exact homotopy.

    Zeros are exact: a coordinate off the active set is 0.0, never a small
    float. Coordinates with infinite weight are pinned at zero and flagged
    with a warning rather than aborting. With return_trace, also returns the
    objective at lam of the path's solution at every knot passed and at lam
    itself; it never increases along the path.
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
    if (weights < 0.0).any():
        raise MalformedInput("weights must be non-negative")
    pinned = ~np.isfinite(weights)
    if pinned.any():
        warnings.warn(
            f"coordinates {np.flatnonzero(pinned).tolist()} have infinite weight; "
            "pinned at zero"
        )
    knots = [] if return_trace else None
    b = _lasso_path(x, y, weights, [float(lam)], knots)[0]
    if not return_trace:
        return b
    trace = []
    for point in knots + [b]:
        resid = y - x @ point
        trace.append(float(resid @ resid) + _penalty(point, weights, lam))
    return b, trace


def select_unbiased(inputs: FusionInputs, lam: float, alpha: float = 2.0) -> SelectionResult:
    """Estimate summary biases and return the selected (exactly zero) set."""
    if not inputs.summaries:
        raise DimensionMismatch("select_unbiased needs at least one summary")
    x, y = whiten(inputs)
    b_hat = adaptive_lasso(x, y, _adaptive_weights(inputs._calibration.residual, alpha), lam)
    selected = tuple(int(j) for j in np.flatnonzero(b_hat == 0.0))
    return SelectionResult(b_hat=b_hat, selected=selected, lam=float(lam), alpha=float(alpha))


def estimate_orc(inputs: FusionInputs, unbiased_set, level: float = 0.95):
    """Fused estimate restricted to coordinates known to be unbiased."""
    return _fused(
        inputs, unbiased_set, Method.ORC, level, "empty unbiased set: internal-only estimate"
    )


def kfold_indices(n: int, k: int, seed) -> list:
    """Balanced folds (sizes differ by at most one) from a seeded shuffle;
    k is an integer >= 2 and seed an integer >= 0 or a numpy SeedSequence."""
    if _integer("k", k, 2) > n:
        raise MalformedInput(f"cannot split {n} rows into {k} folds")
    rng = np.random.default_rng(_seed(seed))
    return [np.sort(part) for part in np.array_split(rng.permutation(n), k)]


def _fold_rows(fold, n: int, fold_idx: int) -> np.ndarray:
    rows = np.asarray(fold)
    if (
        rows.ndim != 1
        or rows.size == 0
        or not np.issubdtype(rows.dtype, np.integer)
        or rows.min() < 0
        or rows.max() >= n
    ):
        raise MalformedInput(
            f"fold {fold_idx} must be a non-empty list of row indices in [0, {n})"
        )
    return rows


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

    A fold computes its calibration once, traces one lasso path over the
    whole grid and evaluates the fused estimate once per distinct selected
    set, from sub-blocks of that calibration.
    """
    if inputs.data is None or inputs.tau is None:
        raise MalformedInput(
            "cross-validation needs inputs carrying the dataset and tau descriptor "
            "(build them with prepare_inputs)"
        )
    if not inputs.summaries:
        raise DimensionMismatch("cv_tune needs at least one summary")
    grid = sorted(float(c) for c in grid_c)
    if not grid or any(c <= 0.0 for c in grid):
        raise MalformedInput("grid_c must be a non-empty list of positive constants")
    n = inputs.n
    if folds is None:
        folds = kfold_indices(n, k, seed)
    else:
        folds = [_fold_rows(f, n, i) for i, f in enumerate(folds)]
    errors = np.zeros(len(grid))
    for fold_idx, test_rows in enumerate(folds):
        train = np.ones(n, dtype=bool)
        train[test_rows] = False
        train_rows = np.flatnonzero(train)
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
        lams = [c * train_rows.size ** (-float(w)) for c in grid]
        calib = train_inputs._calibration
        path = _lasso_path(x, y, _adaptive_weights(calib.residual, alpha), lams)
        cache = {}
        for g, zero in enumerate((path == 0.0).tolist()):
            key = tuple(j for j, z in enumerate(zero) if z)
            if key not in cache:
                diff = tau_test - calib.restrict(key).fuse()[1]
                cache[key] = float(diff @ diff) / len(folds)
            errors[g] += cache[key]
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
    result = _fused(
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
