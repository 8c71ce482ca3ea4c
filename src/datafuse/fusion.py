"""Fusion of an internal functional fit with external summary statistics.

The fused estimator (EFF) shifts the internal estimate by a calibration term,

    tau_fused = tau_int - gain @ (beta_int - beta_tilde),

where the gain solves (sigma_ext + gram) gain' = cross' built from the
empirical influence moments cross = E(phi eta') and gram = E(eta eta') and
the scaled external covariance sigma_ext. Its asymptotic variance is the
plug-in efficiency bound E(phi phi') - gain cross'. Several sources stack
block-diagonally; each block s is scaled by n / m_s, so everything is
expressed per internal observation.

These pieces form the calibration, computed once when a FusionInputs is
built. EFF on a subset of the summary coordinates reads its sub-blocks: that
is the oracle (ORC), the debiased estimator (DBS) and every cross-validation
fold estimate. On the empty set the gain is p x 0, so the internal-only
estimate (INT) is EFF with no summary coordinate.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

from ._linalg import spd_solve, sym
from .errors import (
    DimensionMismatch,
    MalformedInput,
    NonPositiveVariance,
    SingularCalibration,
    SingularGram,
    SingularJointCovariance,
    ZeroStandardError,
)
from .model import (
    FunctionalDescriptor,
    FunctionalFit,
    FusionResult,
    InternalDataset,
    Method,
    SummaryStatistic,
    _readonly,
    expand_binding,
)

__all__ = [
    "FusionInputs",
    "prepare_inputs",
    "empirical_moments",
    "estimate_int",
    "estimate_eff",
    "estimate_crude",
    "estimate_knw",
    "efficiency_bound",
    "ivw_reduce",
    "cd_minimize_check",
    "wald_inference",
    "restrict_inputs",
]


@dataclass(frozen=True)
class FusionInputs:
    """Everything the fusion estimators need, on a common sample.

    `data` and `tau` keep references to the originating dataset and
    functional so cross-validation can refit on row subsets; they are not
    used by the plain estimators. The calibration every estimator reads is
    computed once, here.
    """

    tau_fit: FunctionalFit
    beta_fit: FunctionalFit
    summaries: tuple
    omega_override: Optional[np.ndarray] = None
    data: Optional[InternalDataset] = None
    tau: Optional[FunctionalDescriptor] = None

    def __post_init__(self):
        if self.tau_fit.n != self.beta_fit.n:
            raise DimensionMismatch(
                f"tau influence has {self.tau_fit.n} rows, beta has {self.beta_fit.n}"
            )
        object.__setattr__(self, "summaries", tuple(self.summaries))
        q = sum(s.q for s in self.summaries)
        if q != self.beta_fit.p:
            raise DimensionMismatch(
                f"summaries cover {q} coordinates, beta fit has {self.beta_fit.p}"
            )
        if self.omega_override is not None:
            omega = np.asarray(self.omega_override, dtype=float)
            if omega.shape != (q, q):
                raise DimensionMismatch(
                    f"omega_override shape {omega.shape}, expected {(q, q)}"
                )
            object.__setattr__(self, "omega_override", omega)
        cross, gram = empirical_moments(self.tau_fit, self.beta_fit)
        beta_tilde, sigma_ext = assemble_external(self)
        residual = self.beta_fit.estimate - beta_tilde
        calib = _Calibration(
            self.tau_fit.estimate, _phi_var(self.tau_fit), cross, gram, residual, sigma_ext
        )
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
    """What the estimators read from a FusionInputs (q = summary coordinates)."""

    tau: np.ndarray  # tau_int, length p
    phi_var: np.ndarray  # E(phi phi'), p x p
    cross: np.ndarray  # E(phi eta'), p x q
    gram: np.ndarray  # E(eta eta'), q x q
    residual: np.ndarray  # beta_int - beta_tilde, length q
    sigma_ext: np.ndarray  # scaled external covariance, q x q

    def restrict(self, keep) -> "_Calibration":
        """Sub-blocks on the summary coordinates `keep` (indices in [0, q))."""
        gram, sigma_ext = (a.take(keep, 0).take(keep, 1) for a in (self.gram, self.sigma_ext))
        cross, residual = self.cross.take(keep, 1), self.residual.take(keep)
        return _Calibration(self.tau, self.phi_var, cross, gram, residual, sigma_ext)

    def fuse(self, sink: list | None = None):
        """(gain, estimate, avar) of EFF on every coordinate held; with none
        the gain is p x 0 and this is tau_int with avar E(phi phi')."""
        lhs = self.sigma_ext + self.gram
        gain = spd_solve(lhs, self.cross.T, SingularCalibration, sink, "calibration").T
        return gain, self.tau - gain @ self.residual, self.phi_var - gain @ self.cross.T

    def gram_coef(self, sink: list | None = None) -> np.ndarray:
        """cross gram^{-1}, the coefficient of CRD and KNW."""
        return spd_solve(self.gram, self.cross.T, SingularGram, sink, "gram").T


def prepare_inputs(
    data: InternalDataset,
    tau: FunctionalDescriptor,
    summaries: Sequence[SummaryStatistic],
    omega_override=None,
) -> FusionInputs:
    """Fit the target functional and all summary bindings on one dataset."""
    return _prepare(data, tau, summaries, omega_override)


def _prepare(data, tau, summaries, omega_override=None, start=None) -> FusionInputs:
    """prepare_inputs, with the target refitted from `start` (functionals._refit)."""
    from .functionals import _columns, _refit, evaluate_binding

    summaries = tuple(summaries)
    tau_fit = _columns(_refit(data, tau, start), tau)
    binding = [desc for s in summaries for desc in s.binding]
    if binding:
        beta_int, eta = evaluate_binding(data, binding)
    else:
        beta_int, eta = np.zeros(0), np.zeros((data.n, 0))
    beta_fit = FunctionalFit._unchecked(beta_int, eta, label="binding")
    return FusionInputs(
        tau_fit=tau_fit,
        beta_fit=beta_fit,
        summaries=summaries,
        omega_override=omega_override,
        data=data,
        tau=tau,
    )


def empirical_moments(tau_fit: FunctionalFit, beta_fit: FunctionalFit):
    """cross = E(phi eta') (p x q) and gram = E(eta eta') (q x q)."""
    if tau_fit.n != beta_fit.n:
        raise DimensionMismatch("influence matrices have different row counts")
    n = tau_fit.n
    cross = tau_fit.influence.T @ beta_fit.influence / n
    gram = sym(beta_fit.influence.T @ beta_fit.influence / n)
    return cross, gram


def assemble_external(inputs: FusionInputs):
    """Concatenated external estimates and their per-internal-observation
    scaled covariance: block s of sigma_ext is sigma1_s * n / m_s."""
    return _external(inputs.summaries, inputs.omega_override, inputs.n)


def _external(summaries, omega_override, n: int):
    """assemble_external for `summaries` against n internal observations."""
    beta_tilde = np.concatenate([np.zeros(0)] + [s.beta for s in summaries])
    rho_coord = np.concatenate([np.zeros(0)] + [np.full(s.q, s.m / n) for s in summaries])
    if omega_override is not None:
        base = omega_override
    else:
        q = beta_tilde.shape[0]
        base = np.zeros((q, q))
        at = 0
        for s in summaries:
            base[at : at + s.q, at : at + s.q] = s.sigma1
            at += s.q
    return beta_tilde, sym(base / np.sqrt(np.outer(rho_coord, rho_coord)))


def _phi_var(tau_fit: FunctionalFit) -> np.ndarray:
    return sym(tau_fit.influence.T @ tau_fit.influence / tau_fit.n)


def _wald(estimate, se, level: float, null=0.0, side: str = "upper"):
    """(z, p, ci): z = (estimate - null) / se, NaN where se is 0; p its tail
    probability on `side` by ndtr (Cephes, abs error below 1e-15 and the same
    on every platform); ci the `level` interval estimate -/+ z_crit * se."""
    if not 0.0 < level < 1.0:
        raise MalformedInput(f"level must be in (0, 1), got {level}")
    zcrit = float(ndtri(0.5 + level / 2.0))
    ci = np.column_stack([estimate - zcrit * se, estimate + zcrit * se])
    with np.errstate(divide="ignore", invalid="ignore"):
        z = np.where(se > 0.0, (estimate - null) / se, np.nan)
    if side == "upper":
        p = ndtr(-z)
    elif side == "lower":
        p = ndtr(z)
    else:
        p = 2.0 * ndtr(-np.abs(z))
    return z, p, ci


def _build_result(
    method: Method, inputs: FusionInputs, gain, estimate, avar, level: float, warn: list,
    note: str = "",
) -> FusionResult:
    """FusionResult with se and CIs; a non-empty `note` is the last warning."""
    avar = sym(avar)
    # negative round-off on the diagonal is clipped here; anything beyond
    # tolerance is rejected by the FusionResult constructor below
    se = np.sqrt(np.maximum(np.diag(avar), 0.0) / inputs.n)
    _, p_one, ci = _wald(estimate, se, level)
    if np.any(se == 0.0):
        warn = warn + ["zero standard error: one-sided p set to NaN"]
    if note:
        warn = warn + [note]
    return FusionResult(
        method=method,
        estimate=estimate,
        avar=avar,
        se=se,
        gain=gain,
        ci=ci,
        level=level,
        p_one_sided=p_one,
        warnings=tuple(warn),
        working_covariance=inputs.omega_override is not None,
    )


def _coordinates(keep, q: int) -> list:
    """`keep` as a sorted list of distinct summary coordinates in [0, q)."""
    keep = sorted(int(j) for j in keep)
    if len(set(keep)) != len(keep) or any(j < 0 or j >= q for j in keep):
        raise DimensionMismatch(f"invalid coordinate subset {keep} for q={q}")
    return keep


def _fused(
    inputs: FusionInputs, keep, method: Method, level: float = 0.95, empty_note: str = ""
) -> FusionResult:
    """EFF on the summary coordinates `keep` (global, 0-based), tagged `method`.

    On the empty set this is the internal-only estimate, flagged by
    `empty_note`.
    """
    keep = _coordinates(keep, inputs.q)
    calib = inputs._calibration.restrict(keep)
    warn: list = []
    gain, estimate, avar = calib.fuse(warn)
    note = "" if keep else empty_note
    return _build_result(method, inputs, gain, estimate, avar, level, warn, note)


def estimate_int(inputs: FusionInputs, level: float = 0.95) -> FusionResult:
    """Internal-only estimate: EFF on no summary coordinate, avar = E(phi phi')."""
    return _fused(inputs, (), Method.INT, level)


def estimate_eff(inputs: FusionInputs, level: float = 0.95) -> FusionResult:
    """Data-fused estimator attaining the efficiency bound.

    Shifts the internal estimate along the calibration residual
    beta_int - beta_tilde and reports the plug-in bound as avar.
    """
    if not inputs.summaries:
        raise DimensionMismatch("estimate_eff needs at least one summary")
    return _fused(inputs, range(inputs.q), Method.EFF, level)


def estimate_crude(inputs: FusionInputs, level: float = 0.95) -> FusionResult:
    """Crude calibration using gain = cross gram^{-1}.

    Consistent, but its variance E(phi phi') + A (sigma_ext - gram) A' can
    exceed the internal-only variance when the external sample is small.
    """
    if not inputs.summaries:
        raise DimensionMismatch("estimate_crude needs at least one summary")
    calib, warn = inputs._calibration, []
    coef = calib.gram_coef(warn)
    estimate = calib.tau - coef @ calib.residual
    avar = calib.phi_var + coef @ (calib.sigma_ext - calib.gram) @ coef.T
    return _build_result(Method.CRD, inputs, coef, estimate, avar, level, warn)


def estimate_knw(inputs: FusionInputs, beta_true, level: float = 0.95) -> FusionResult:
    """Calibration against the known true beta (simulation benchmark)."""
    beta_true = np.atleast_1d(np.asarray(beta_true, dtype=float))
    if beta_true.shape[0] != inputs.q:
        raise DimensionMismatch(
            f"beta_true has length {beta_true.shape[0]}, expected {inputs.q}"
        )
    calib, warn = inputs._calibration, []
    coef = calib.gram_coef(warn)
    estimate = calib.tau - coef @ (inputs.beta_fit.estimate - beta_true)
    avar = calib.phi_var - coef @ calib.cross.T
    return _build_result(Method.KNW, inputs, coef, estimate, avar, level, warn)


def efficiency_bound(phi_var, cross, gram, sigma1, rho: float) -> np.ndarray:
    """Semiparametric bound E(phi phi') - cross (sigma1/rho + gram)^{-1} cross'.

    Single-source form; `rho` is m/n. The first argument carries E(phi phi'),
    which the bound needs alongside the calibration pieces.
    """
    phi_var = np.atleast_2d(np.asarray(phi_var, dtype=float))
    cross = np.atleast_2d(np.asarray(cross, dtype=float))
    gram = np.atleast_2d(np.asarray(gram, dtype=float))
    sigma1 = np.atleast_2d(np.asarray(sigma1, dtype=float))
    if rho <= 0.0:
        raise DimensionMismatch(f"rho must be positive, got {rho}")
    calib = sigma1 / rho + gram
    gain = spd_solve(calib, cross.T, SingularCalibration, context="bound").T
    return sym(phi_var - gain @ cross.T)


def ivw_reduce(tau_int: float, var_int: float, beta_tilde: float, var_ext: float) -> float:
    """Inverse-variance weighted average of two estimates of the same scalar."""
    if not (var_int > 0.0) or not (var_ext > 0.0):
        raise NonPositiveVariance(
            f"variances must be positive, got {var_int!r}, {var_ext!r}"
        )
    w_int, w_ext = 1.0 / var_int, 1.0 / var_ext
    return (tau_int * w_int + beta_tilde * w_ext) / (w_int + w_ext)


def cd_minimize_check(inputs: FusionInputs):
    """Minimizer of the stacked calibration quadratic.

    Solves for (tau, beta) minimizing
        (v - theta)' Sigma^{-1} (v - theta)
          + (beta_tilde - beta)' sigma_ext^{-1} (beta_tilde - beta)
    with v = (tau_int, beta_int) and Sigma the joint influence covariance.
    The tau component reproduces the fused estimator; exposed as an
    independent numerical check of that identity.
    """
    p, q = inputs.p, inputs.q
    cross, gram = empirical_moments(inputs.tau_fit, inputs.beta_fit)
    beta_tilde, sigma_ext = assemble_external(inputs)
    joint = np.block([[_phi_var(inputs.tau_fit), cross], [cross.T, gram]])
    w_joint = spd_solve(
        joint, np.eye(p + q), SingularJointCovariance, context="joint covariance"
    )
    w_ext = spd_solve(
        sigma_ext, np.eye(q), SingularJointCovariance, context="external covariance"
    )
    v = np.concatenate([inputs.tau_fit.estimate, inputs.beta_fit.estimate])
    lhs = w_joint.copy()
    lhs[p:, p:] += w_ext
    rhs = w_joint @ v
    rhs[p:] += w_ext @ beta_tilde
    theta = np.linalg.solve(sym(lhs), rhs)
    return theta[:p], theta[p:]


def wald_inference(result: FusionResult, null=0.0, side: str = "upper", level=None):
    """z statistics, p-values, and the confidence interval for a result.

    side: 'upper' tests against tau > null, 'lower' against tau < null,
    'two_sided' doubles the smaller tail.
    """
    if side not in ("upper", "lower", "two_sided"):
        raise DimensionMismatch(f"side must be upper/lower/two_sided, got {side!r}")
    level = result.level if level is None else float(level)
    null = np.broadcast_to(np.asarray(null, dtype=float), result.estimate.shape)
    if np.any(result.se <= 0.0):
        raise ZeroStandardError("standard error is zero; z statistic undefined")
    return _wald(result.estimate, result.se, level, null, side)


def restrict_inputs(inputs: FusionInputs, keep) -> FusionInputs:
    """Restriction to a subset of summary coordinates (global 0-based).

    Summaries are re-sliced coordinate-wise (bindings become per-component
    descriptors); sources losing all coordinates are dropped. A principal
    submatrix of a validated covariance is again symmetric PSD, and columns
    of a validated fit stay centered, so neither is validated again.
    """
    keep = _coordinates(keep, inputs.q)
    new_summaries = []
    at = 0
    for s in inputs.summaries:
        local = [j - at for j in keep if at <= j < at + s.q]
        if local:
            expanded = expand_binding(s.binding)
            new_binding = [expanded[j][0].with_component(expanded[j][1]) for j in local]
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
    omega = inputs.omega_override
    if omega is not None:
        omega = omega[np.ix_(keep, keep)]
    beta_fit = FunctionalFit._unchecked(
        inputs.beta_fit.estimate[keep],
        inputs.beta_fit.influence[:, keep],
        label=inputs.beta_fit.label,
    )
    return FusionInputs(
        tau_fit=inputs.tau_fit,
        beta_fit=beta_fit,
        summaries=tuple(new_summaries),
        omega_override=omega,
        data=inputs.data,
        tau=inputs.tau,
    )
