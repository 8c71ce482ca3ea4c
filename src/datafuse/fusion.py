"""Fusion of an internal functional fit with external summary statistics.

The fused estimator (EFF) shifts the internal estimate by a calibration term,

    tau_fused = tau_int - gain @ (beta_int - beta_tilde),

where the gain solves (sigma_ext + gram) gain' = cross' built from the
empirical influence moments cross = E(phi eta') and gram = E(eta eta') and
the scaled external covariance sigma_ext. Its asymptotic variance is the
plug-in efficiency bound E(phi phi') - gain cross'. Several sources stack
block-diagonally, always: summaries of different sources are independent,
so the cross blocks are zero. Each block s is scaled by n / m_s, so
everything is expressed per internal observation.

These pieces form the calibration, computed once when a FusionInputs is
built. EFF on a subset of the summary coordinates reads its sub-blocks: that
is the oracle (ORC), the debiased estimator (DBS) and every cross-validation
fold estimate. On the empty set the gain is p x 0, so the internal-only
estimate (INT) is EFF with no summary coordinate.

A calibration may carry leading batch axes: a FusionInputs holds one, with
none, and cross-validation stacks its k folds' calibrations along one axis
of length k and fuses them all with one batched solve per selected set.
The estimators take a list of FusionInputs in the same way (_fused,
_estimates): a simulation runs each method once for a chunk of
replications, with their calibrations stacked, and one input is the list
of one. The results of a stack are assembled at once (_build_results: one
se and one Wald interval pass over the stack), each still built by its own
FusionResult constructor. The inputs of a chunk are built together as well
(_prepare): its targets, and its bindings' least-squares fits as one stack
of designs per distinct fit, and their external summaries are scaled as one
stack (_external). The same code serves all of these, each takes only the
stack, one input being the stack of one, and each calibration of a stack
gives what it gives on its own.
"""

import math
from dataclasses import dataclass, fields, replace
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from ._linalg import MEAN_ZERO_TOL, matvec, spd_solve, sym
from .errors import (
    DimensionMismatch,
    MalformedInput,
    NonFiniteValue,
    SingularCalibration,
    SingularGram,
    ZeroStandardError,
)
from .model import (
    FunctionalDescriptor,
    FunctionalFit,
    FusionResult,
    InternalDataset,
    Method,
    SummaryStatistic,
    _check_type,
    _floats,
    _items,
    _level,
    _readonly,
    _real,
)

__all__ = [
    "FusionInputs",
    "prepare_inputs",
    "estimate_int",
    "estimate_eff",
    "estimate_crude",
    "estimate_knw",
    "efficiency_bound",
    "wald_inference",
    "restrict_inputs",
]


@dataclass(frozen=True)
class FusionInputs:
    """Everything the fusion estimators need, on a common sample.

    `data` and `tau` keep references to the originating dataset and
    functional so cross-validation can refit on row subsets; they are not
    used by the plain estimators. The calibration every estimator reads is
    computed once, here, and its influence is checked here: moments that
    overflow raise NonFiniteValue, and a column of either fit whose mean is
    beyond MEAN_ZERO_TOL * (std + 1) raises DimensionMismatch.
    """

    tau_fit: FunctionalFit
    beta_fit: FunctionalFit
    summaries: tuple
    data: Optional[InternalDataset] = None
    tau: Optional[FunctionalDescriptor] = None

    def __post_init__(self):
        _check_type("tau_fit", self.tau_fit, FunctionalFit)
        _check_type("beta_fit", self.beta_fit, FunctionalFit)
        _check_type("data", self.data, InternalDataset, optional=True)
        _check_type("tau", self.tau, FunctionalDescriptor, optional=True)
        summaries = _items("summaries", self.summaries, SummaryStatistic)
        object.__setattr__(self, "summaries", summaries)
        if self.tau_fit.n != self.beta_fit.n:
            raise DimensionMismatch(
                f"tau influence has {self.tau_fit.n} rows, beta has {self.beta_fit.n}"
            )
        q = sum(s.q for s in self.summaries)
        if q != self.beta_fit.p:
            raise DimensionMismatch(
                f"summaries cover {q} coordinates, beta fit has {self.beta_fit.p}"
            )
        phi, eta, n = self.tau_fit.influence, self.beta_fit.influence, self.n
        with np.errstate(over="ignore", invalid="ignore"):
            cross = phi.T @ eta / n
            gram = sym(eta.T @ eta / n)
            phi_var = sym(phi.T @ phi / n)
        if not all(np.isfinite(a).all() for a in (phi_var, cross, gram)):
            raise NonFiniteValue("influence moments are not finite (overflow, or no rows)")
        # every fitter's estimating equations zero its influence means exactly
        for fit, second in ((self.tau_fit, phi_var), (self.beta_fit, gram)):
            means = np.einsum("ij->j", fit.influence) / fit.n
            stds = np.sqrt(np.maximum(second.diagonal() - means * means, 0.0))
            bad = np.abs(means) > MEAN_ZERO_TOL * (stds + 1.0)
            if bad.any():
                raise DimensionMismatch(
                    f"influence columns {np.flatnonzero(bad).tolist()} of {fit.label!r} "
                    "are not mean-zero"
                )
        beta_tilde, sigma_ext = _external([self.summaries], [n])
        residual = self.beta_fit.estimate - beta_tilde[0]
        calib = _Calibration(self.tau_fit.estimate, phi_var, cross, gram, residual, sigma_ext[0])
        object.__setattr__(self, "_calibration", calib)

    @property
    def n(self) -> int:
        return self.tau_fit.n

    @property
    def p(self) -> int:
        return self.tau_fit.p

    @property
    def q(self) -> int:
        return self.beta_fit.p


@dataclass(frozen=True)
class _Calibration:
    """What the estimators read from a FusionInputs (q = summary coordinates).

    Every field may carry the same leading batch axes (shown as ...), one
    calibration per index: a FusionInputs holds one, with no batch axis, and
    cross-validation stacks its folds' along one axis. Indexing a batch
    axis (calib[f], calib[[0, 2]]) selects calibrations, and every method
    acts on each calibration of the batch.
    """

    tau: np.ndarray  # tau_int, ... x p
    phi_var: np.ndarray  # E(phi phi'), ... x p x p
    cross: np.ndarray  # E(phi eta'), ... x p x q
    gram: np.ndarray  # E(eta eta'), ... x q x q
    residual: np.ndarray  # beta_int - beta_tilde, ... x q
    sigma_ext: np.ndarray  # scaled external covariance, ... x q x q

    def __getitem__(self, index) -> "_Calibration":
        return _Calibration(*(getattr(self, f.name)[index] for f in fields(self)))

    @staticmethod
    def stack(calibs) -> "_Calibration":
        """Calibrations of one shape stacked along a new leading batch axis."""
        names = [f.name for f in fields(_Calibration)]
        return _Calibration(*(np.stack([getattr(c, name) for c in calibs]) for name in names))

    def restrict(self, keep) -> "_Calibration":
        """Sub-blocks on the summary coordinates `keep` (indices in [0, q))."""
        gram, sigma_ext = (a.take(keep, -2).take(keep, -1) for a in (self.gram, self.sigma_ext))
        cross, residual = self.cross.take(keep, -1), self.residual.take(keep, -1)
        return _Calibration(self.tau, self.phi_var, cross, gram, residual, sigma_ext)

    def fuse(self, sink: list | None = None):
        """(gain, estimate, avar) of EFF on every coordinate held; with none
        the gain is p x 0 and this is tau_int with avar E(phi phi')."""
        lhs = self.sigma_ext + self.gram
        cross_t = self.cross.swapaxes(-1, -2)
        gain = spd_solve(lhs, cross_t, SingularCalibration, sink, "calibration").swapaxes(-1, -2)
        return gain, self.tau - matvec(gain, self.residual), self.phi_var - gain @ cross_t

    def gram_coef(self, sink: list | None = None) -> np.ndarray:
        """cross gram^{-1}, the coefficient of CRD and KNW."""
        cross_t = self.cross.swapaxes(-1, -2)
        return spd_solve(self.gram, cross_t, SingularGram, sink, "gram").swapaxes(-1, -2)


def prepare_inputs(
    data: InternalDataset,
    tau: FunctionalDescriptor,
    summaries: Sequence[SummaryStatistic],
) -> FusionInputs:
    """Fit the target functional and all summary bindings on one dataset."""
    _check_type("data", data, InternalDataset)
    _check_type("tau", tau, FunctionalDescriptor)
    return _prepare([data], tau, [_items("summaries", summaries, SummaryStatistic)])[0]


def _prepare(datas, tau, summaries, start=None) -> list:
    """prepare_inputs on each dataset of the list `datas` (of one row count)
    with its summaries summaries[r]: one FusionInputs per dataset. The
    targets are fitted together (functionals._refit: an aipw_ate target by
    one stacked propensity Newton, a least-squares one as one stacked fit),
    from `start`, None or the stack (B, k) of their propensity starts; then
    the bindings, the datasets of one binding together, each of its
    distinct fits once for all of them (functionals._evaluate_bindings)."""
    from .functionals import _columns, _evaluate_bindings, _refit

    summaries = [tuple(own) for own in summaries]
    bindings = [[desc for s in own for desc in s.binding] for own in summaries]
    keys = [tuple((desc.group_key(), desc.component) for desc in b) for b in bindings]
    tau_fits, beta_fits = _refit(datas, tau, start), [None] * len(datas)
    for key in dict.fromkeys(keys):
        reps = [r for r, own in enumerate(keys) if own == key]
        beta, eta = _evaluate_bindings([datas[r] for r in reps], bindings[reps[0]])
        for r, one_beta, one_eta in zip(reps, beta, eta):
            beta_fits[r] = FunctionalFit(one_beta, one_eta, label="binding")
    return [
        FusionInputs(
            tau_fit=_columns(tau_fit, tau),
            beta_fit=beta_fit,
            summaries=own,
            data=data,
            tau=tau,
        )
        for data, tau_fit, beta_fit, own in zip(datas, tau_fits, beta_fits, summaries)
    ]


def _external(summaries, n):
    """For each of B inputs, its summaries summaries[b] (the lists of one
    binding) and its internal sample sizes n[b] (n of shape (B, ...)): the
    concatenated external estimates (B, q) and their covariances scaled to
    each size (B, ..., q, q), block-diagonal, block s sigma1_s * n / m_s."""
    n = np.asarray(n, dtype=float)
    q = sum(s.q for s in summaries[0])
    beta_tilde, m_coord = np.zeros((len(summaries), q)), np.zeros((len(summaries), q))
    base = np.zeros((len(summaries), q, q))
    at = 0
    for source in zip(*summaries):
        block = slice(at, at + source[0].q)
        beta_tilde[:, block] = [s.beta for s in source]
        m_coord[:, block] = [[float(s.m)] for s in source]
        base[:, block, block] = [s.sigma1 for s in source]
        at = block.stop
    # m and sigma1 broadcast over the axes of n past the inputs'
    shape = (len(summaries),) + (1,) * (n.ndim - 1)
    rho_coord = m_coord.reshape(shape + (q,)) / n[..., None]
    sigma_ext = sym(
        base.reshape(shape + (q, q)) / np.sqrt(rho_coord[..., :, None] * rho_coord[..., None, :])
    )
    return beta_tilde, sigma_ext


_SQRT_HALF = math.sqrt(0.5)
_NORMAL = NormalDist()


def _wald(estimate, se, level, null=0.0, side: str = "upper"):
    """(z, p, ci): z = (estimate - null) / se, NaN where se is 0; p its tail
    probability on `side`, P(Z > x) = erfc(x / sqrt 2) / 2 (doubled at
    x = |z| for two_sided); ci the `level` interval estimate -/+ z_crit * se,
    z_crit the normal quantile at (1 + level) / 2, along a new last axis.
    estimate and se may carry leading batch axes. `level` must be a number
    in (0, 1), else MalformedInput."""
    level = _level(level)
    zcrit = _NORMAL.inv_cdf(0.5 + level / 2.0)
    ci = np.stack([estimate - zcrit * se, estimate + zcrit * se], axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, (estimate - null) / se, np.nan)
    x, share = (z, 0.5) if side == "upper" else (-z, 0.5) if side == "lower" else (abs(z), 1.0)
    p = np.array([share * math.erfc(v * _SQRT_HALF) for v in x.ravel().tolist()])
    return z, p.reshape(x.shape), ci


def _build_results(
    method: Method, ns, gain, estimate, avar, level: float, warn: list, note: str = ""
) -> list:
    """One FusionResult, with se and CIs, per fit of a stack: its row count
    ns[r] and gain[r], estimate[r] and avar[r], the arrays stacked along a
    leading axis. The se and Wald intervals of the stack are computed at
    once, and each result is built by its own constructor. Each result's
    warnings are `warn`, then a zero-se warning if its se has a zero, then
    a non-empty `note`."""
    avar = sym(avar)
    # negative round-off on the diagonal is clipped here; anything beyond
    # tolerance is rejected by the FusionResult constructor below
    n = np.array(ns, dtype=float)[:, None]
    se = np.sqrt(np.maximum(np.diagonal(avar, 0, -2, -1), 0.0) / n)
    _, p_one, ci = _wald(estimate, se, level)
    zero = (se == 0.0).any(axis=-1).tolist()
    tail = [note] if note else []
    return [
        FusionResult(
            method=method,
            estimate=estimate[r],
            avar=avar[r],
            se=se[r],
            gain=gain[r],
            ci=ci[r],
            level=level,
            p_one_sided=p_one[r],
            warnings=tuple(
                warn + (["zero standard error: one-sided p set to NaN"] if zero[r] else []) + tail
            ),
        )
        for r in range(len(ns))
    ]


def _coordinates(keep, q: int) -> list:
    """`keep`, an iterable of integers (not bools), as a sorted list of
    distinct summary coordinates in [0, q)."""
    try:
        keep = list(keep)
    except TypeError:
        raise MalformedInput(f"coordinate subset must be iterable, got {keep!r}") from None
    if not all(isinstance(j, (int, np.integer)) and not isinstance(j, bool) for j in keep):
        raise MalformedInput(f"coordinate subset must hold integers, got {keep!r}")
    keep = sorted(int(j) for j in keep)
    if len(set(keep)) != len(keep) or any(j < 0 or j >= q for j in keep):
        raise DimensionMismatch(f"invalid coordinate subset {keep} for q={q}")
    return keep


def _fused(inputs, keeps, method: Method, level: float = 0.95, empty_note: str = "") -> list:
    """EFF of each FusionInputs of the list `inputs` on its summary
    coordinates keeps[r] (global, 0-based), tagged `method`: one
    FusionResult per input. The inputs that keep one set are fused as one
    stack, and a warning of the stack is recorded in each of its results.

    On the empty set this is the internal-only estimate, flagged by
    `empty_note`.
    """
    for one in inputs:
        _check_type("inputs", one, FusionInputs)
    keeps = [tuple(_coordinates(keep, one.q)) for one, keep in zip(inputs, keeps)]
    results = [None] * len(inputs)
    for keep in dict.fromkeys(keeps):
        reps = [r for r in range(len(inputs)) if keeps[r] == keep]
        calib = _Calibration.stack([inputs[r]._calibration for r in reps]).restrict(list(keep))
        warn: list = []
        gain, estimate, avar = calib.fuse(warn)
        ns, note = [inputs[r].n for r in reps], "" if keep else empty_note
        built = _build_results(method, ns, gain, estimate, avar, level, warn, note)
        for r, result in zip(reps, built):
            results[r] = result
    return results


def estimate_int(inputs: FusionInputs, level: float = 0.95) -> FusionResult:
    """Internal-only estimate: EFF on no summary coordinate, avar = E(phi phi')."""
    return _estimates(Method.INT, [inputs], level)[0]


def estimate_eff(inputs: FusionInputs, level: float = 0.95) -> FusionResult:
    """Data-fused estimator attaining the efficiency bound.

    Shifts the internal estimate along the calibration residual
    beta_int - beta_tilde and reports the plug-in bound as avar.
    """
    return _estimates(Method.EFF, [inputs], level)[0]


def estimate_crude(inputs: FusionInputs, level: float = 0.95) -> FusionResult:
    """Crude calibration using gain = cross gram^{-1}.

    Consistent, but its variance E(phi phi') + A (sigma_ext - gram) A' can
    exceed the internal-only variance when the external sample is small.
    """
    return _estimates(Method.CRD, [inputs], level)[0]


def estimate_knw(inputs: FusionInputs, beta_true, level: float = 0.95) -> FusionResult:
    """Calibration against the known true beta (simulation benchmark), a
    vector of q finite numbers."""
    return _estimates(Method.KNW, [inputs], level, [beta_true])[0]


def _estimates(method: Method, inputs, level: float = 0.95, beta_true=None) -> list:
    """The estimate_* function of `method` (INT, EFF, CRD or KNW, the last
    against beta_true[r]) on each FusionInputs of the list `inputs`: its
    checks per input, in order, then the calibrations of all of them as one
    stack (_fused's for INT and EFF), a warning of which is recorded in
    each result."""
    if method is Method.INT:
        return _fused(inputs, [()] * len(inputs), method, level)
    known = []
    for r, one in enumerate(inputs):
        _check_type("inputs", one, FusionInputs)
        if method is Method.KNW:
            beta = np.atleast_1d(_finite_array("beta_true", beta_true[r]))
            if beta.shape != (one.q,):
                raise DimensionMismatch(f"beta_true has shape {beta.shape}, expected ({one.q},)")
            known.append(one.beta_fit.estimate - beta)
        elif not one.summaries:
            name = "estimate_eff" if method is Method.EFF else "estimate_crude"
            raise DimensionMismatch(f"{name} needs at least one summary")
    if method is Method.EFF:
        return _fused(inputs, [range(one.q) for one in inputs], method, level)
    calib, warn = _Calibration.stack([one._calibration for one in inputs]), []
    coef = calib.gram_coef(warn)
    coef_t = coef.swapaxes(-1, -2)
    if method is Method.CRD:
        estimate = calib.tau - matvec(coef, calib.residual)
        avar = calib.phi_var + coef @ (calib.sigma_ext - calib.gram) @ coef_t
    else:
        estimate = calib.tau - matvec(coef, np.array(known))
        avar = calib.phi_var - coef @ calib.cross.swapaxes(-1, -2)
    return _build_results(method, [one.n for one in inputs], coef, estimate, avar, level, warn)


def _finite_array(name: str, values) -> np.ndarray:
    """`values` as a float array if every entry is a finite real number (not
    a bool, also inside a list), else MalformedInput."""
    try:
        # an object array keeps each entry's type: [True, 1.0] holds a bool
        values = np.asarray(values, dtype=object)
    except ValueError:  # ragged nesting
        raise MalformedInput(f"{name} must be an array of numbers, got {values!r}") from None
    for value in values.ravel().tolist():
        _real(name, value)
    return values.astype(float)


def efficiency_bound(phi_var, cross, gram, sigma1, rho: float) -> np.ndarray:
    """Semiparametric bound E(phi phi') - cross (sigma1/rho + gram)^{-1} cross'.

    Single-source form; `rho` is m/n, a finite positive number. The first
    argument carries E(phi phi'), which the bound needs alongside the
    calibration pieces. The four arrays are p x p, p x q, q x q and q x q,
    with finite entries.
    """
    given = {"phi_var": phi_var, "cross": cross, "gram": gram, "sigma1": sigma1}
    arrays = [np.atleast_2d(_floats(name, a)) for name, a in given.items()]
    phi_var, cross, gram, sigma1 = arrays
    p, q = cross.shape[0], cross.shape[-1]
    if [a.shape for a in arrays] != [(p, p), (p, q), (q, q), (q, q)]:
        raise DimensionMismatch(
            f"inconsistent shapes {[a.shape for a in arrays]}, expected p x p, p x q, "
            "q x q and q x q"
        )
    if not all(np.isfinite(a).all() for a in arrays):
        raise NonFiniteValue("efficiency bound: inputs must be finite")
    if _real("rho", rho) <= 0.0:
        raise DimensionMismatch(f"rho must be positive, got {rho}")
    calib = sigma1 / rho + gram
    gain = spd_solve(calib, cross.T, SingularCalibration, context="bound").T
    return sym(phi_var - gain @ cross.T)


def wald_inference(result: FusionResult, null=0.0, side: str = "upper", level=None):
    """z statistics, p-values, and the confidence interval for a result.

    side: 'upper' tests against tau > null, 'lower' against tau < null,
    'two_sided' doubles the smaller tail. null is a finite number, or one
    per coordinate: an array that broadcasts to the estimate.
    """
    _check_type("result", result, FusionResult)
    if not isinstance(side, str) or side not in ("upper", "lower", "two_sided"):
        raise DimensionMismatch(f"side must be upper/lower/two_sided, got {side!r}")
    level = result.level if level is None else level
    null = _finite_array("null", null)
    try:
        null = np.broadcast_to(null, result.estimate.shape)
    except ValueError:
        raise DimensionMismatch(
            f"null of shape {null.shape} does not broadcast to the estimate's "
            f"{result.estimate.shape}"
        ) from None
    if np.any(result.se <= 0.0):
        raise ZeroStandardError("standard error is zero; z statistic undefined")
    return _wald(result.estimate, result.se, level, null, side)


def restrict_inputs(inputs: FusionInputs, keep) -> FusionInputs:
    """Restriction to a subset of summary coordinates (global 0-based).

    Summaries are re-sliced coordinate-wise (bindings become per-component
    descriptors); sources losing all coordinates are dropped. A principal
    submatrix of a validated covariance is again symmetric PSD, so the
    summaries are not validated again.
    """
    _check_type("inputs", inputs, FusionInputs)
    keep = _coordinates(keep, inputs.q)
    new_summaries = []
    at = 0
    for s in inputs.summaries:
        local = [j - at for j in keep if at <= j < at + s.q]
        if local:
            # one (descriptor, coefficient) pair per coordinate of the source
            coords = [(desc, j) for desc in s.binding for j in desc._coefficients()]
            new_binding = [replace(coords[j][0], component=coords[j][1]) for j in local]
            new_summaries.append(
                SummaryStatistic(
                    beta=_readonly(s.beta[local]),
                    sigma1=_readonly(s.sigma1[np.ix_(local, local)]),
                    m=s.m,
                    binding=tuple(new_binding),
                    source_id=s.source_id,
                )
            )
        at += s.q
    beta_fit = FunctionalFit(
        inputs.beta_fit.estimate[keep],
        inputs.beta_fit.influence[:, keep],
        label=inputs.beta_fit.label,
    )
    return FusionInputs(
        tau_fit=inputs.tau_fit,
        beta_fit=beta_fit,
        summaries=tuple(new_summaries),
        data=inputs.data,
        tau=inputs.tau,
    )
