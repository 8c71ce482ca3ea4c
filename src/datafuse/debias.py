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

A cross-validation fold takes one of two paths (_FoldFits). When every fit
is a mean, marginal_ols or joint_ols fit of a narrow design and the folds
partition the rows, the fold's estimates and influence maps come from
per-fold sums of moment features (functionals._Moments). Otherwise the fold
is refitted whole on its rows; so is a fold whose sums flag a fit or whose
moments would cancel. The sums flag a superset of the folds on which a
fitter fails, so the refit decides, and a fold fails only with its error.
The folds' calibrations are then one _Calibration with a leading fold axis:
cv_tune whitens them with one stacked eigendecomposition and fuses all the
folds that select one set with one batched solve. Should that stacked pass
raise, cv_tune replays it one fold at a time, so the first failing fold
raises its own error. The folds of several inputs (a chunk of simulated
replications) stack the same way, along one axis of all their folds
(_tune, _estimate_dbs); one input is the case of one.
"""

import math
import threading
import warnings
from dataclasses import dataclass, fields
from itertools import accumulate, compress

import numpy as np

from ._linalg import inv_sqrt_spd, matvec
from .errors import (
    DataFuseError,
    DimensionMismatch,
    FoldTooSmall,
    MalformedInput,
    NoConvergence,
    NonFiniteValue,
    NotPositiveDefinite,
    RankDeficientDesign,
)
from .model import Method, SelectionResult, _check_type, _config_keys
from .model import _integer, _real, _reals, _seed
# prepare_inputs and restrict_inputs stay bound for bench/layers.py, which
# patches them here
from .fusion import (  # noqa: F401
    FusionInputs,
    _Calibration,
    _estimates,
    _external,
    _fused,
    _prepare,
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
# _estimate_dbs's tuning of one input, handed to the cv_tune call it makes
# next on that input in the same thread (see cv_tune)
_HANDOFF = threading.local()


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
        return cls(**_config_keys("debias config", obj, cls))


def whiten(inputs: FusionInputs):
    """Whitened design and response of the calibration quadratic.

    X is the symmetric inverse square root of sigma_ext + gram (eigenvalues
    floored at _linalg.EIG_FLOOR) and Y = X (beta_tilde - beta_int), so that
    ||Y - X b||^2 reproduces the quadratic form exactly.
    """
    _check_type("inputs", inputs, FusionInputs)
    return _whiten(inputs._calibration)


def _whiten(calib):
    """whiten's (X, Y) of a _Calibration, stacked as its batch axes are."""
    x = inv_sqrt_spd(calib.sigma_ext + calib.gram, NotPositiveDefinite, "whiten")
    return x, matvec(x, -calib.residual)


def _adaptive_weights(discrepancy, alpha) -> np.ndarray:
    """Zou's weights |discrepancy_j|^-alpha, infinite where it is zero."""
    with np.errstate(divide="ignore"):
        return np.abs(discrepancy) ** (-float(alpha))


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
    # and the triangular solves run on Python floats; numpy factors the
    # active block at each knot
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
    out = [None] * len(lams)
    done, top = 0, math.inf
    # the coordinate that changed state at `top`, and its sign before that
    changed, changed_sign = -1, 0.0
    for _ in range(_MAX_KNOTS):
        # b(lam) = u - lam v, exactly zero off the active set
        u, v = [0.0] * q, [0.0] * q
        if active:
            try:
                low = np.linalg.cholesky([[gram[i][j] for j in active] for i in active]).tolist()
            except np.linalg.LinAlgError:  # the block is not positive definite
                raise RankDeficientDesign("adaptive lasso: active columns are collinear") from None
            us = _cholesky_solve(low, [r[i] for i in active])
            vs = _cholesky_solve(low, [h[i] * sign[i] for i in active])
            for i, ui, vi in zip(active, us, vs):
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
            return np.array(out, dtype=float).reshape(len(lams), q)
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


def _cholesky_solve(low, b) -> list:
    """x with L L' x = b, for L lower triangular (a list of rows) and b a list."""
    k = len(b)
    y = []
    for i in range(k):
        y.append((b[i] - sum(low[i][j] * y[j] for j in range(i))) / low[i][i])
    x = [0.0] * k
    for i in reversed(range(k)):
        x[i] = (y[i] - sum(low[j][i] * x[j] for j in range(i + 1, k))) / low[i][i]
    return x


def _segment_point(u, v, lam, knot_coord: int) -> list:
    """u - lam v, with the coordinate changing state at this lam (if any,
    else -1) set to the exact zero it passes through."""
    b = [uj - lam * vj if vj else uj for uj, vj in zip(u, v)]
    if knot_coord >= 0:
        b[knot_coord] = 0.0
    return b


def adaptive_lasso(x, y, weights, lam):
    """Minimizer of ||y - x b||^2 + lam * sum_j w_j |b_j| by the exact homotopy.

    x and y are finite and lam is a finite number >= 0. Zeros are exact: a
    coordinate off the active set is 0.0, never a small float. Coordinates
    with infinite weight are pinned at zero and flagged with a warning
    rather than aborting.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if x.ndim != 2 or y.shape != (x.shape[0],) or weights.shape != (x.shape[1],):
        raise DimensionMismatch(
            f"inconsistent shapes x{x.shape} y{y.shape} weights{weights.shape}"
        )
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise NonFiniteValue("adaptive lasso: x and y must be finite")
    if _real("lambda", lam) < 0.0:
        raise MalformedInput(f"lambda must be >= 0, got {lam}")
    if not (weights >= 0.0).all():
        raise MalformedInput("weights must be non-negative")
    pinned = ~np.isfinite(weights)
    if pinned.any():
        warnings.warn(
            f"coordinates {np.flatnonzero(pinned).tolist()} have infinite weight; "
            "pinned at zero"
        )
    return _lasso_path(x, y, weights, [float(lam)])[0]


def select_unbiased(inputs: FusionInputs, lam: float, alpha: float = 2.0) -> SelectionResult:
    """Estimate summary biases and return the selected (exactly zero) set;
    alpha is a finite number > 0."""
    return _select([inputs], [lam], alpha)[0]


def _select(inputs, lams, alpha) -> list:
    """select_unbiased of each FusionInputs of the list `inputs` at its
    penalty lams[r]: its checks per input, one stacked whitening of their
    calibrations, then one adaptive_lasso per input."""
    for one in inputs:
        _check_type("inputs", one, FusionInputs)
        if not one.summaries:
            raise DimensionMismatch("select_unbiased needs at least one summary")
    if not _real("alpha", alpha) > 0.0:
        raise MalformedInput(f"alpha must be positive, got {alpha}")
    calib = _Calibration.stack([one._calibration for one in inputs])
    x, y = _whiten(calib)
    weights = _adaptive_weights(calib.residual, alpha)
    out = []
    for r, lam in enumerate(lams):
        b_hat = adaptive_lasso(x[r], y[r], weights[r], lam)
        selected = tuple(int(j) for j in np.flatnonzero(b_hat == 0.0))
        out.append(
            SelectionResult(b_hat=b_hat, selected=selected, lam=float(lam), alpha=float(alpha))
        )
    return out


def estimate_orc(inputs: FusionInputs, unbiased_set, level: float = 0.95):
    """Fused estimate restricted to coordinates known to be unbiased."""
    return _fused([inputs], [unbiased_set], Method.ORC, level, _ORC_NOTE)[0]


_ORC_NOTE = "empty unbiased set: internal-only estimate"
_DBS_NOTE = "empty selection: internal-only estimate"


def kfold_indices(n: int, k: int, seed) -> list:
    """Balanced folds (sizes differ by at most one) from a seeded shuffle;
    n is an integer >= k, k an integer >= 2 and seed an integer >= 0 or a
    numpy SeedSequence."""
    if _integer("k", k, 2) > _integer("n", n, 0):
        raise MalformedInput(f"cannot split {n} rows into {k} folds")
    perm = np.random.default_rng(_seed(seed)).permutation(n)
    # np.array_split's parts: the first n % k hold one row more
    bounds = [f * (n // k) + min(f, n % k) for f in range(k + 1)]
    return [np.sort(perm[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]


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

    `folds`, if given, is a list of at least 2 non-empty arrays of row
    indices. grid_c is any iterable of positive constants; they, w and
    alpha > 0 must be finite. A fold is read whole from sums of moment
    features over its rows when every fit is a mean, marginal_ols or
    joint_ols fit of a narrow design and the folds partition the rows;
    otherwise it is refitted whole, an aipw_ate target with its propensity
    Newton started from the full-data fit (_FoldFits). So is a fold whose
    sums flag a fit (more folds than the fitters reject) or whose moments
    would cancel, which fails only with the refit's error (as FoldTooSmall).

    The folds run as one stacked pass (_cv_errors): their calibrations are
    one _Calibration with a leading fold axis, whitened with one stacked
    eigendecomposition; each fold traces one lasso path over the whole
    grid, and the fused estimates of every fold that selects a set come
    from one batched solve per distinct selected set. If that pass raises
    any DataFuseError, the same pass is run again one fold at a time, in
    order, and the first fold that fails raises its own error, as with the
    folds run one by one; if none fails alone, the stacked error is raised.

    estimate_dbs tunes its inputs through _tune, the folds of several inputs
    at once, and then calls cv_tune on each input, which returns the result
    handed to it for that input (_HANDOFF): each input's tuning stays one
    call of cv_tune, the layer bench/layers.py times.
    """
    handed = _HANDOFF.__dict__.pop("tuned", None)
    if handed is not None and handed[0] is inputs:
        return handed[1]
    grid, w, folds = _cv_setup(inputs, grid_c, w, alpha, k, seed, folds)
    return _tune([inputs], [folds], grid, w, alpha)[0]


def _cv_setup(inputs, grid_c, w, alpha, k, seed, folds):
    """cv_tune's checks of its arguments: (sorted grid, w, folds), the folds
    drawn by kfold_indices unless given."""
    _check_type("inputs", inputs, FusionInputs)
    if inputs.data is None or inputs.tau is None:
        raise MalformedInput(
            "cross-validation needs inputs carrying the dataset and tau descriptor "
            "(build them with prepare_inputs)"
        )
    if not inputs.summaries:
        raise DimensionMismatch("cv_tune needs at least one summary")
    grid = sorted(_real("grid_c", c) for c in grid_c)
    if not grid or any(c <= 0.0 for c in grid):
        raise MalformedInput("grid_c must be a non-empty list of positive constants")
    if not _real("alpha", alpha) > 0.0:
        raise MalformedInput(f"alpha must be positive, got {alpha}")
    w = _real("w", w)
    n = inputs.n
    if folds is None:
        return grid, w, kfold_indices(n, k, seed)
    folds = [_fold_rows(f, n, i) for i, f in enumerate(folds)]
    if len(folds) < 2:
        raise MalformedInput(f"cross-validation needs at least 2 folds, got {len(folds)}")
    return grid, w, folds


def _tune(inputs, folds, grid, w: float, alpha: float) -> list:
    """cv_tune of each FusionInputs of the list `inputs` (one target and one
    binding) on its folds folds[r], checked: (c_star, trace) per input. The
    folds of all of them run as one stacked pass; should it raise any
    DataFuseError, it is run again one fold at a time, in order, and the
    first fold that fails raises its own error; should none fail alone, the
    stacked error is raised."""
    fits = _FoldFits(inputs, folds)
    try:
        errors = _cv_errors(fits, slice(None), grid, w, alpha)
    except DataFuseError:
        for g in range(len(fits.where)):
            _cv_errors(fits, slice(g, g + 1), grid, w, alpha)
        raise
    out = []
    for row in errors:
        best = int(np.argmin(row))
        out.append((grid[best], tuple((grid[g], float(row[g])) for g in range(len(grid)))))
    return out


def _cv_errors(fits, fs: slice, grid, w: float, alpha: float) -> np.ndarray:
    """Per input of `fits`, the summed squared errors at each grid point of
    its folds in slice `fs` of the folds of all inputs, each divided by the
    input's number of folds: their fits stacked, whitened at once, one lasso
    path per fold and one batched fuse per selected set. A failing refit or
    whitening raises FoldTooSmall (the first fold of the slice for the
    whitening); a lasso path or fuse error is raised as it is."""
    folds = range(len(fits.where))[fs]
    tau_test, calib = fits.stacked(fs)
    try:
        x, y = _whiten(calib)
    except DataFuseError as exc:
        raise _fold_error(fits.where[folds[0]][1], exc)
    weights, coords = _adaptive_weights(calib.residual, alpha), range(calib.residual.shape[-1])
    keys = []  # per fold, the selected set at each grid point
    for i, g in enumerate(folds):
        lams = [c * fits.train_size[g] ** -w for c in grid]
        path = _lasso_path(x[i], y[i], weights[i], lams)
        keys.append([tuple(compress(coords, zero)) for zero in (path == 0.0).tolist()])
    selecting = {}  # each distinct selected set: the folds that select it, in order
    for i, row in enumerate(keys):
        for key in dict.fromkeys(row):
            selecting.setdefault(key, []).append(i)
    sq_error = {}
    for key, held in selecting.items():
        estimates = (calib[held] if len(held) < len(keys) else calib).restrict(key).fuse()[1]
        for i, estimate in zip(held, estimates):
            diff = tau_test[i] - estimate
            sq_error[i, key] = float(diff @ diff) / len(fits.folds[fits.where[folds[i]][0]])
    errors = np.zeros((len(fits.inputs), len(grid)))
    for i, row in enumerate(keys):
        errors[fits.where[folds[i]][0]] += [sq_error[i, key] for key in row]
    return errors


def _fold_error(f: int, exc: DataFuseError) -> FoldTooSmall:
    """FoldTooSmall for fold f, which failed with `exc` (its cause)."""
    error = FoldTooSmall(f"fold {f}: {exc}")
    error.__cause__ = exc
    return error


class _FoldFits:
    """The fits of cv_tune's folds, for each FusionInputs of the list
    `inputs` (one target and one binding) on its folds folds[r]: the target
    on each fold's held-out rows, and the calibration of the target and the
    summary bindings on the other rows, its train rows, as prepare_inputs
    would build it there. The folds of all inputs are numbered in order:
    fold g is fold `where[g][1]` of input `where[g][0]`. `stacked` gives
    those of a slice of folds, with the calibrations as one _Calibration
    whose leading axis indexes folds; `fold` gives one.

    A fold takes one of two paths, never a mix. It is read from moment sums
    when every slot has a moment form (functionals._moment_forms) and the
    folds of its input partition the rows. Slot 0 is the target, then one
    slot per distinct binding fit (functionals._distinct_fits); their
    coefficients are stacked, slot i's at `coefs[i]`, and `tau` and `beta`
    index the ones the target and the bindings report. The features of an
    input's forms, after a row of ones, make its feature matrix G (one row
    per feature). One product G_f G_f' per fold f gives the row count and
    the sums of the features and of their outer products over the fold's
    rows; the train rows' sums are added up from the other folds' products,
    so nothing cancels, and G is dropped. Every fold's fits come from those
    sums at once, with no refit and no influence columns: estimates,
    influence maps L, and the calibration moments L S L' with S the train
    rows' second moments of the features. The slots of one design width
    share one _Moments.fit call, over the sets of rows of all of them and
    of every input: the target's held-out and train rows of every fold, and
    the other slots' train rows. The calibrations of all folds are built
    from the sums at once, as one stacked _Calibration. Otherwise the fold
    is refitted whole (`refit[g]`): the target on the held-out rows
    (_fit_tau), then prepare_inputs on the train rows, an aipw_ate target
    started from the full-data propensity and the fold re-run from zero if
    that raises. That is every fold when a slot has no moment form
    (aipw_ate, or designs too wide); every fold of an input whose folds
    overlap or leave rows out, or whose feature sums are not finite; and a
    fold whose sums flag a fit or whose moments would cancel
    (_Moments.fit). The sums flag a superset of the folds on which a fitter
    fails, and the refit decides, so a fold fails only with the refit's
    error. Of the target on the held-out rows only its estimate is read, so
    there only a flagged fit calls for a refit.
    """

    def __init__(self, inputs, folds):
        from .functionals import _distinct_fits, _moment_forms, _Moments

        self.inputs, self.folds = inputs, folds
        self.where = [(r, f) for r, part in enumerate(folds) for f in range(len(part))]
        self.test_rows = [rows for part in folds for rows in part]
        self.train_size = [int(self._train(g).sum()) for g in range(len(self.where))]
        self.refit = np.ones(len(self.where), dtype=bool)

        binding = [desc for s in inputs[0].summaries for desc in s.binding]
        distinct, slot_of = _distinct_fits(binding)
        slots = [inputs[0].tau, *distinct]
        widths = [desc._base_width() for desc in slots]
        starts = list(accumulate(widths, initial=0))
        coefs = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
        self.tau = np.array(inputs[0].tau._coefficients())
        self.beta = np.array(
            [starts[1 + i] + j for desc, i in zip(binding, slot_of) for j in desc._coefficients()],
            dtype=int,
        )
        # per input read from sums: its folds' products, their train sums and
        # the centers of its forms
        summed = {}
        for r, one in enumerate(inputs):
            if not np.all(np.bincount(np.concatenate(folds[r]), minlength=one.n) == 1):
                continue
            # build the moment forms around the full-data fits where the
            # inputs hold all of a slot's coefficients
            known = np.full(starts[-1], np.nan)
            known[self.beta] = one.beta_fit.estimate
            if one.tau_fit.p == self.tau.size:
                known[self.tau] = one.tau_fit.estimate
            centers = [known[c] if np.isfinite(known[c]).all() else None for c in coefs]
            with np.errstate(over="ignore", invalid="ignore"):
                forms = _moment_forms(one.data, slots, widths, centers)
                if forms is None:
                    return
                features = np.array([np.ones(one.n)] + [g for form in forms for g in form.features])
                test = np.array([_products(features, rows) for rows in folds[r]])
                k = len(test)
                train = np.array([sum(test[g] for g in range(k) if g != f) for f in range(k)])
            if np.isfinite(test).all() and np.isfinite(train).all():
                summed[r] = test, train, [np.repeat(form.center[None], k, 0) for form in forms]
            # the features of each slot, the same for every input
            spans = list(accumulate([len(form.features) for form in forms], initial=1))
        if not summed:
            return

        # the folds read from sums, and the sets of rows of each slot: for the
        # target the test rows too, of which only the estimate is read;
        # feature 0 is ones, so sums[:, 0, 0] counts each set's rows
        live = [g for g, (r, _) in enumerate(self.where) if r in summed]
        k = len(live)
        test, train = (np.concatenate([summed[r][i] for r in summed]) for i in (0, 1))
        sets = [np.concatenate((test, train))] + [train] * len(distinct)
        centers = [np.concatenate([summed[r][2][i] for r in summed]) for i in range(len(slots))]
        centers[0] = np.concatenate((centers[0], centers[0]))
        spans = [slice(a, b) for a, b in zip(spans[:-1], spans[1:])]
        # per fold: the stacked estimates and influence maps of the slots; a
        # fold whose sums flag a fit or cancel is refitted
        refit = np.zeros(k, dtype=bool)
        estimates = np.zeros((k, starts[-1]))
        maps = np.zeros((k, starts[-1], test.shape[-1]))
        for width in dict.fromkeys(widths):
            group = [i for i in range(len(slots)) if widths[i] == width]
            fitted = _Moments.fit(
                np.concatenate([centers[i] for i in group]),
                np.concatenate([sets[i][:, 0, 0] for i in group]),
                np.concatenate([sets[i][:, 0, spans[i]] for i in group]),
                np.concatenate([sets[i][:, spans[i], spans[i]] for i in group]),
            )
            at = 0
            for i in group:
                estimate, lmap, failed, cancelled = (a[at : at + len(sets[i])] for a in fitted)
                at += len(sets[i])
                if i == 0:
                    tau_test = estimate[:k, self.tau]
                    refit |= failed[:k]
                    estimate, lmap, failed, cancelled = (
                        a[k:] for a in (estimate, lmap, failed, cancelled)
                    )
                refit |= failed | cancelled
                estimates[:, coefs[i]], maps[:, coefs[i], spans[i]] = estimate, lmap
        moments = _calibration_moments(
            maps[:, self.tau], maps[:, self.beta], train / train[:, :1, :1]
        )
        # each input's summaries, scaled to its folds' train rows
        external = [_external(inputs[r].summaries, summed[r][1][:, 0, 0]) for r in summed]
        beta_tilde = np.concatenate(
            [np.repeat(beta[None], len(folds[r]), 0) for r, (beta, _) in zip(summed, external)]
        )
        calib = _Calibration(
            estimates[:, self.tau],
            *moments,
            estimates[:, self.beta] - beta_tilde,
            np.concatenate([sigma_ext for _, sigma_ext in external]),
        )
        # the folds of the inputs not read from sums hold zeros, never read
        self.refit[live] = refit
        self.tau_test = _scatter(tau_test, live, len(self.where))
        self.calibration = _Calibration(
            *(_scatter(getattr(calib, f.name), live, len(self.where)) for f in fields(calib))
        )

    def stacked(self, fs: slice):
        """(held-out estimates, _Calibration) of the folds of slice `fs`,
        stacked along a leading fold axis. Raises the first failing fold's
        error as FoldTooSmall."""
        if not self.refit[fs].any():
            return self.tau_test[fs], self.calibration[fs]
        parts = []
        for g in range(len(self.where))[fs]:
            try:
                parts.append(self.fold(g))
            except DataFuseError as exc:
                raise _fold_error(self.where[g][1], exc)
        tau_test = np.array([tau for tau, _ in parts])
        return tau_test, _Calibration.stack([calib for _, calib in parts])

    def fold(self, g: int):
        """(target estimate on fold g, _Calibration of its train rows). A
        refitted fold starts an aipw_ate fit from the full-data propensity;
        if it raises from there, it is re-run from zero, so it fails with the
        error of the cold fits."""
        if not self.refit[g]:
            return self.tau_test[g], self.calibration[g]
        start = self.inputs[self.where[g][0]].tau_fit._propensity
        try:
            return self._refitted(g, start)
        except DataFuseError:
            if start is None:
                raise
        return self._refitted(g, None)

    def train_rows(self, g: int) -> np.ndarray:
        """The train rows of fold g: the rows of its input it does not hold."""
        return np.flatnonzero(self._train(g))

    def _train(self, g):
        train = np.ones(self.inputs[self.where[g][0]].n, dtype=bool)
        train[self.test_rows[g]] = False
        return train

    def _refitted(self, g, start):
        inputs = self.inputs[self.where[g][0]]
        tau_test = _fit_tau(inputs, self.test_rows[g], start)
        data = inputs.data.subset(self.train_rows(g))
        stack = None if start is None else start[None]
        train = _prepare([data], inputs.tau, [inputs.summaries], stack)[0]
        return tau_test, train._calibration


def _scatter(values, at, size: int) -> np.ndarray:
    """`values` as the rows `at` of `size` rows, the others zero."""
    if len(at) == size:
        return values
    out = np.zeros((size,) + values.shape[1:])
    out[at] = values
    return out


def _calibration_moments(l_tau, l_beta, second):
    """E(phi phi'), E(phi eta') and E(eta eta') from the influence maps of
    the target (l_tau) and the bindings (l_beta) on features with second
    moments `second`; leading axes, if any, index folds."""
    tau_second = l_tau @ second
    phi_var = tau_second @ l_tau.swapaxes(-1, -2)
    gram = l_beta @ second @ l_beta.swapaxes(-1, -2)
    return (
        (phi_var + phi_var.swapaxes(-1, -2)) / 2.0,
        tau_second @ l_beta.swapaxes(-1, -2),
        (gram + gram.swapaxes(-1, -2)) / 2.0,
    )


def _fit_tau(inputs: FusionInputs, rows, start=None) -> np.ndarray:
    from .functionals import _columns, _refit

    return _columns(_refit(inputs.data.subset(rows), inputs.tau, start), inputs.tau).estimate


def _products(features, rows):
    """Sums over `rows` of the outer products of the feature vectors, the
    columns of `features`."""
    part = features.take(rows, 1)
    return part @ part.T


def estimate_dbs(inputs: FusionInputs, config: DebiasConfig = None, level: float = 0.95):
    """Debiased fused estimator: select unbiased coordinates, then fuse.

    Returns (FusionResult, SelectionResult). With an empty selection the
    estimate falls back to the internal-only fit, flagged in warnings.
    """
    return _estimate_dbs([inputs], config, level)[0]


def _estimate_dbs(inputs, config=None, level=0.95, seeds=None) -> list:
    """estimate_dbs of each FusionInputs of the list `inputs`, its folds
    drawn from seeds[r] (config.seed for every input if None): the checks of
    cv_tune and select_unbiased per input, then the cross-validation of all
    of them as one stacked pass (_tune), one stacked whitening and one
    stacked fuse per selected set. Each input's tuning is handed to the
    cv_tune call made on that input, as on its own, which returns it."""
    for one in inputs:
        _check_type("inputs", one, FusionInputs)
    config = DebiasConfig() if config is None else config
    seeds = [config.seed] * len(inputs) if seeds is None else seeds
    traces = [()] * len(inputs)
    if config.lambda_fixed is not None:
        lams = [float(config.lambda_fixed)] * len(inputs)
    else:
        lams = [None] * len(inputs)
        setups = [
            _cv_setup(one, config.grid_c, config.w, config.alpha, config.k, seed, None)
            for one, seed in zip(inputs, seeds)
        ]
        grid, w = setups[0][:2]
        tuned = _tune(inputs, [folds for _, _, folds in setups], grid, w, config.alpha)
        for r, (one, seed) in enumerate(zip(inputs, seeds)):
            _HANDOFF.tuned = one, tuned[r]
            c_star, traces[r] = cv_tune(one, config.grid_c, config.w, config.alpha, config.k, seed)
            lams[r] = c_star * one.n ** (-config.w)
    selections = [
        SelectionResult(
            b_hat=base.b_hat, selected=base.selected, lam=lam, alpha=config.alpha, cv_trace=trace
        )
        for base, lam, trace in zip(_select(inputs, lams, config.alpha), lams, traces)
    ]
    results = _fused(inputs, [s.selected for s in selections], Method.DBS, level, _DBS_NOTE)
    return list(zip(results, selections))


def _run_methods(
    method, inputs, level=0.95, *, beta_true=None, unbiased=None, debias=None, seeds=None
):
    """(FusionResult, SelectionResult or None) of the estimator of `method`
    on each FusionInputs of the list `inputs` (of one for `estimate`), which
    share one target and binding; only DBS selects. KNW reads beta_true[r],
    ORC unbiased[r], and DBS the DebiasConfig `debias`, drawing input r's
    folds from seeds[r] (debias.seed if None). Each input gets the checks of
    the method's estimator, in order; the fuses are then one stack per method
    and kept set. A warning of a stack is recorded in each of its results, so
    a caller that needs each input's own warnings runs again one input at a
    time when a stack warns (run_replications)."""
    if method is Method.DBS:
        return _estimate_dbs(inputs, debias, level, seeds)
    if method is Method.ORC:
        results = _fused(inputs, unbiased, method, level, _ORC_NOTE)
    else:
        results = _estimates(method, inputs, level, beta_true)
    return [(result, None) for result in results]
