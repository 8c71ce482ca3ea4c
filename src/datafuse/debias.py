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

Cross-validation folds refit no mean, marginal_ols or joint_ols fit of a
narrow design: their estimates and influence maps on a fold's rows come from
per-fold sums of moment features (_FoldFits, functionals._Moments).
aipw_ate fits, wider designs and fits whose moments on a fold would cancel
are refitted on the fold's rows.
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
# prepare_inputs and restrict_inputs stay bound for bench/layers.py, which
# patches them here
from .fusion import (  # noqa: F401
    FusionInputs,
    _Calibration,
    _external,
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
    return _whiten(inputs._calibration)


def _whiten(calib):
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

    Mean, marginal_ols and joint_ols fits of narrow designs are not
    refitted: each fold reads them from sums of their moment features over
    its rows (_FoldFits). Other fits are refitted on the fold's rows, an
    aipw_ate target with its propensity Newton started from the full-data
    fit. A fold builds its
    calibration once, traces one lasso path over the whole grid and
    evaluates the fused estimate once per distinct selected set, from
    sub-blocks of that calibration.
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
    fits = _FoldFits(inputs, folds)
    errors = np.zeros(len(grid))
    for fold_idx in range(len(folds)):
        try:
            tau_test, calib = fits.fold(fold_idx, inputs.tau_fit._propensity)
            x, y = _whiten(calib)
        except DataFuseError as exc:
            raise FoldTooSmall(f"fold {fold_idx}: {exc}") from exc
        lams = [c * fits.train_rows[fold_idx].size ** (-float(w)) for c in grid]
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


class _FoldFits:
    """The fits of cv_tune's folds: the target on each fold's held-out rows,
    and the calibration of the target and the summary bindings on the other
    rows, its train rows, as prepare_inputs would build it there.

    Slot 0 is the target, then one slot per distinct binding fit (by group
    key, in binding order). Their coefficients are stacked, slot i's at
    `coefs[i]`, and `tau` and `beta` index the ones the target and the
    bindings report. A mean, marginal_ols or joint_ols slot of a narrow
    design has a moment form (functionals._Moments), built around the
    full-data fit. Its features, after a row of ones, make the feature
    matrix G (one row per feature). One product G_f G_f' per fold f gives
    the row count and the sums of the features and of their outer products
    over the fold's rows; the train rows' sums are total - fold. The slots'
    fits on every fold's rows come from those sums at once, with no refit
    and no influence columns: estimates, influence maps L, and the
    calibration moments L S L' with S the train rows' second moments of the
    features. A slot is refitted on a fold's train rows (`refit[f, i]`)
    when it has no moment form (aipw_ate, a wide joint_ols), when the fold
    leaves no train rows, or when its moments there would cancel
    (_Moments.fit); the target's refit starts from the full-data propensity,
    and the refitted influence columns join the features. If a sum is not
    finite, every slot is refitted.
    """

    def __init__(self, inputs: FusionInputs, folds):
        from .functionals import _moment_forms

        binding = [desc for s in inputs.summaries for desc in s.binding]
        keys = [desc.group_key() for desc in binding]
        groups = {}
        for desc, key in zip(binding, keys):
            groups.setdefault(key, desc)
        slot_of = {key: 1 + i for i, key in enumerate(groups)}
        self.inputs, self.folds = inputs, folds
        self.slots = [inputs.tau, *groups.values()]
        starts = np.cumsum([0] + [desc._base_width() for desc in self.slots])
        self.coefs = [slice(a, b) for a, b in zip(starts[:-1], starts[1:])]
        self.tau = np.arange(starts[1])[_coefficients(inputs.tau)]
        self.beta = np.concatenate(
            [
                np.arange(starts[slot_of[key]], starts[slot_of[key] + 1])[_coefficients(desc)]
                for desc, key in zip(binding, keys)
            ]
        )
        n = inputs.n
        self.partition = np.all(np.bincount(np.concatenate(folds), minlength=n) == 1)
        self.train_rows = []
        for test_rows in folds:
            train = np.ones(n, dtype=bool)
            train[test_rows] = False
            self.train_rows.append(np.flatnonzero(train))

        # build the moment forms around the full-data fits where inputs holds
        # all of a slot's coefficients
        known = np.full(starts[-1], np.nan)
        known[self.beta] = inputs.beta_fit.estimate
        if inputs.tau_fit.p == self.tau.size:
            known[self.tau] = inputs.tau_fit.estimate
        centers = [known[c] if np.isfinite(known[c]).all() else None for c in self.coefs]
        with np.errstate(over="ignore", invalid="ignore"):
            forms = _moment_forms(inputs.data, self.slots, centers)
            self.features, self.spans, test, train = self._sums(forms)
        if not (np.isfinite(test).all() and np.isfinite(train).all()):
            forms = [None] * len(forms)
            self.features, self.spans, test, train = self._sums(forms)
        # per fold: the stacked estimates and influence maps of the moment
        # slots (zero where a slot is refitted), the second moments of the
        # features, and each slot's errors (None where it is refitted); folds
        # with no train rows are refitted as a whole
        k, width = len(folds), self.features.shape[0]
        counts = np.array([rows.size for rows in self.train_rows])
        fitted = np.flatnonzero(counts)
        self.refit = np.ones((k, len(self.slots)), dtype=bool)
        self.test_fit, self.errors = None, []
        self.estimate = np.zeros((k, starts[-1]))
        self.maps = np.zeros((k, starts[-1], width))
        self.second = train / np.maximum(counts, 1)[:, None, None]
        train_sets = [self.train_rows[f] for f in fitted]
        for i, (form, span, c) in enumerate(zip(forms, self.spans, self.coefs)):
            self.errors.append([None] * k)
            if form is None:
                continue
            sets, sums = train_sets, train[fitted]
            if i == 0:  # the target on the test rows too, in the same call
                sets, sums = folds + sets, np.concatenate((test, sums))
            estimate, maps, errors, cancelled = form.fit(
                sets, sums[:, 0, span], sums[:, span, span]
            )
            if i == 0:
                self.test_fit = estimate[:k], errors[:k]
                estimate, maps, errors, cancelled = (
                    estimate[k:], maps[k:], errors[k:], cancelled[k:]
                )
            for f, error in zip(fitted, errors):
                self.errors[i][f] = error
            self.refit[fitted, i] = cancelled
            self.estimate[fitted, c], self.maps[fitted, c, span] = estimate, maps
        self.moments = _calibration_moments(
            self.maps[:, self.tau], self.maps[:, self.beta], self.second
        )

    def _sums(self, forms):
        """The feature matrix of `forms`, each slot's span of it, and the
        products of each fold's test rows and of its train rows."""
        spans, columns = [], [np.ones(self.inputs.n)]
        for form in forms:
            width = len(form.features) if form else 0
            spans.append(slice(len(columns), len(columns) + width))
            columns += form.features if form else []
        features = np.array(columns)
        test = np.array([_products(features, rows) for rows in self.folds])
        if self.partition:
            # total - fold as the sum of the other folds: nothing cancels
            k = len(self.folds)
            train = np.array([sum(test[g] for g in range(k) if g != f) for f in range(k)])
        else:
            train = np.array([_products(features, rows) for rows in self.train_rows])
        return features, spans, test, train

    def fold(self, f: int, start):
        """(target estimate on fold f, _Calibration of its train rows). An
        aipw_ate target is refitted from `start`; if the fold raises from it,
        it is re-run from zero, so it fails with the error of the cold fits."""
        try:
            return self._fold(f, start)
        except DataFuseError:
            if start is None:
                raise
        return self._fold(f, None)

    def _fold(self, f, start):
        from .functionals import _refit

        inputs, train_rows = self.inputs, self.train_rows[f]
        if self.test_fit is None:
            tau_test = _fit_tau(inputs, self.folds[f], start)
        else:
            estimates, errors = self.test_fit
            _raise_error(errors, f)
            tau_test = estimates[f][_coefficients(inputs.tau)]
        # the slots in order, so the fold fails as prepare_inputs would
        estimate, columns, refitted, subset = self.estimate[f], [], [], None
        for i, (desc, errors, c) in enumerate(zip(self.slots, self.errors, self.coefs)):
            if not self.refit[f, i]:
                _raise_error(errors, f)
                continue
            if subset is None:
                subset, estimate = inputs.data.subset(train_rows), estimate.copy()
            fit = _refit(subset, desc, start if i == 0 else None)
            estimate[c] = fit.estimate
            columns.append(fit.influence)
            refitted.append(np.arange(c.start, c.stop))
        n_train = train_rows.size
        if columns:
            # the refitted slots' influence columns join the features, in
            # place of their moment maps
            refitted = np.concatenate(refitted)
            maps = np.hstack((self.maps[f], np.zeros((estimate.size, refitted.size))))
            maps[refitted] = 0.0
            maps[refitted, self.features.shape[0] + np.arange(refitted.size)] = 1.0
            # products block by block: the influence columns are column
            # major, and stacking them side by side is a slow strided copy
            features = self.features.take(train_rows, 1)
            mixed = np.hstack([features @ phi for phi in columns]) / n_train
            phi_second = np.block([[phi.T @ eta for eta in columns] for phi in columns]) / n_train
            second = np.block([[self.second[f], mixed], [mixed.T, phi_second]])
            moments = _calibration_moments(maps[self.tau], maps[self.beta], second)
        else:
            moments = [m[f] for m in self.moments]
        beta_tilde, sigma_ext = _external(inputs.summaries, inputs.omega_override, n_train)
        residual = estimate[self.beta] - beta_tilde
        return tau_test, _Calibration(estimate[self.tau], *moments, residual, sigma_ext)


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


def _raise_error(errors, f: int):
    """Raise the error of a moment form's fit on fold f (_Moments.fit), if any."""
    if errors[f] is not None:
        raise errors[f]


def _fit_tau(inputs: FusionInputs, rows, start=None) -> np.ndarray:
    from .functionals import _columns, _refit

    return _columns(_refit(inputs.data.subset(rows), inputs.tau, start), inputs.tau).estimate


def _coefficients(desc):
    """The coefficients of a fit of `desc` that it names, as an index."""
    return slice(None) if desc.component is None else [desc.component]


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
