"""Shared dense linear algebra helpers, on numpy alone.

Every solve of a symmetric positive (semi)definite system in this package
goes through spd_solve so the ridge fallback policy lives in one place: one
eigendecomposition a = V diag(lam) V' decides and solves. When lam_min is not
positive or the exact eigenvalue ratio lam_min / lam_max is below
1 / COND_LIMIT, every eigenvalue is shifted by the ridge
RIDGE_SCALE * trace/dim, which adds it to the diagonal, and a warning is
recorded before solving.

spd_solve and inv_sqrt_spd also take a stack of matrices, with leading batch
axes, and apply their rules to each matrix of the stack in order: each
ridged matrix warns with the same text as on its own, and the first matrix
that fails raises the error it raises on its own. numpy's eigh and matmul
work matrix by matrix, so each result equals that of the matrix on its own.
"""

import math
import warnings

import numpy as np

from .errors import NumericalError

# The threshold of every numerical guard of the package, defined here only:
# each says whether it is absolute or relative (to what) and which guards read it.
COND_LIMIT = 1e12  # relative, lam_max / lam_min: spd_solve ridges a matrix beyond it
RIDGE_SCALE = 1e-10  # relative, to trace / dim: the ridge spd_solve adds to the diagonal
RANK_RCOND = 1e-10  # relative, rcond of R with unit-scaled columns: check_full_rank
PSD_TOL = -1e-10  # absolute, least eigenvalue: inv_sqrt_spd and model.validate_summary
EIG_FLOOR = 1e-12  # absolute: inv_sqrt_spd (debias.whiten) floors eigenvalues at it
SYMMETRY_TOL = 1e-10  # absolute, max |sigma1 - sigma1'|: model.validate_summary
AVAR_TOL = 1e-8  # relative, to 1 + max |avar|: FusionResult's symmetry and PSD checks
MEAN_ZERO_TOL = 1e-8  # relative, to a column's std + 1: FusionInputs' influence means
LOGISTIC_SCORE_TOL = 1e-10  # absolute, max |score|: functionals._newton_logistic stops
LOGLIK_SLACK = 1e-12  # relative, to 1 + |loglik|: the steps _newton_logistic accepts
DIVERGENCE_BOUND = 1e4  # absolute, max |coef|: _newton_logistic's divergence test
PINNED_PROB = 1e-8  # absolute, distance from 0 or 1: functionals._pinned's probabilities
SECOND_MOMENT_FLOOR = 1e-30  # absolute: fit_marginal_ols and _Moments.fit, second moments
CANCELLATION_FLOOR = 1e-4  # relative: _Moments.fit's failed (to lam_max), cancelled (to terms)

# the strictly lower triangle of a k x k matrix as a boolean mask, by k
_LOWER = {}


def sym(a):
    """Symmetrize, killing round-off asymmetry from products (of each
    matrix of a stack)."""
    return (a + a.swapaxes(-1, -2)) / 2.0


def matvec(a, x):
    """a @ x for each matrix of a stack `a` (..., m, n) and vector of a stack
    `x` (..., n). On one matrix it equals a @ x bit for bit: numpy's matmul
    multiplies a matrix by a one-column matrix as by a vector."""
    return (a @ x[..., None])[..., 0]


def max_asymmetry(a) -> float:
    if a.size == 0:
        return 0.0
    return float(abs(a - a.T).max())


def min_eigenvalue(a) -> float:
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(sym(a))[0])


def logistic(x):
    """1 / (1 + exp(-x)) elementwise: 0 where exp(-x) overflows, silently."""
    with np.errstate(over="ignore"):
        out = np.exp(np.negative(x))
    out += 1.0
    return np.reciprocal(out, out=out)


def spd_solve(a, b, error: type = NumericalError, sink: list | None = None, context: str = ""):
    """Solve a @ x = b for symmetric positive definite a, as V (V'b / lam)
    from the eigendecomposition a = V diag(lam) V'.

    Falls back to a ridge-inflated diagonal when lam_min <= 0 or the exact
    ratio lam_min / lam_max is below 1 / COND_LIMIT, warning through
    `warnings` and appending the message to `sink` when given; the ridge
    shifts every eigenvalue, so a is factored once. Raises `error` if a is
    not finite, if the trace is not positive, or if lam_min is still not
    positive after the ridge. For a stack a (..., d, d), b is a stack of
    vectors (..., d) or of matrices (..., d, r), and each system is solved
    by these rules.
    """
    a = sym(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    dim = a.shape[-1]
    if dim == 0:
        return np.zeros_like(b)
    lam, vecs = _eigh(a)
    # one row of eigenvalues per matrix (a view), checked in order
    rows, finite = lam.reshape(-1, dim), np.isfinite(lam).all()
    for i, row in enumerate(rows.tolist()):
        if not (finite or np.isfinite(row).all()):
            raise error(f"matrix is not finite{_ctx(context)}")
        if row[0] > 0.0 and row[0] >= row[-1] / COND_LIMIT:
            continue
        trace = float(a.reshape(-1, dim, dim)[i].trace())
        if not trace > 0.0:
            raise error(f"matrix is not positive definite{_ctx(context)}")
        ridge = RIDGE_SCALE * trace / dim
        msg = f"ill-conditioned system{_ctx(context)}: added ridge {ridge:.3e} to diagonal"
        warnings.warn(msg)
        if sink is not None:
            sink.append(msg)
        rows[i] += ridge
        if not rows[i, 0] > 0.0:
            raise error(f"singular system{_ctx(context)}")
    vector = b.ndim == a.ndim - 1
    coef = vecs.swapaxes(-1, -2) @ (b[..., None] if vector else b)
    coef /= lam[..., None]
    x = vecs @ coef
    return x[..., 0] if vector else x


def inv_sqrt_spd(a, error: type = NumericalError, context: str = ""):
    """Symmetric inverse square root via eigendecomposition, of a matrix or
    of each matrix of a stack.

    Eigenvalues below PSD_TOL are rejected, as is a matrix that is not
    finite; small ones are floored at EIG_FLOOR rather than projected away
    so the result is always well defined.
    """
    a = sym(np.asarray(a, dtype=float))
    vals, vecs = _eigh(a)
    finite = np.isfinite(vals).all()
    # one row of eigenvalues per matrix, checked in order
    for row in vals.reshape(math.prod(vals.shape[:-1]), vals.shape[-1]).tolist():
        if not (finite or np.isfinite(row).all()):
            raise error(f"matrix is not finite{_ctx(context)}")
        if row and row[0] < PSD_TOL:
            raise error(f"matrix is not positive semidefinite{_ctx(context)}")
    vals = np.maximum(vals, EIG_FLOOR)
    return (vecs / np.sqrt(vals)[..., None, :]) @ vecs.swapaxes(-1, -2)


def check_full_rank(design, error: type, context: str = ""):
    """Inverse of the triangular factor R of the QR factorization of a
    full-rank design.

    R'R equals design'design, so inv(R) inv(R)' is its inverse. Raises
    `error` unless rows >= columns >= 1, no column is zero, and the exact
    1-norm reciprocal condition number of R with each column divided by its
    largest |entry| exceeds RANK_RCOND: rescaling a column of the design
    rescales that column of R, so the test does not depend on the columns'
    units, and the division cannot overflow. inv(R) is the scaled matrix's
    inverse with row j divided by column j's scale.
    """
    design = np.asarray(design, dtype=float)
    rows, cols = design.shape
    if cols > 0 and rows >= cols:
        lower = _LOWER.get(cols)
        if lower is None:
            lower = _LOWER[cols] = np.tri(cols, k=-1, dtype=bool)
        try:
            # R is the upper triangle of the leading rows of the Householder
            # QR's output, which mode "raw" returns transposed
            r = np.linalg.qr(design, mode="raw")[0].T[:cols]
            r[lower] = 0.0
            scale = abs(r).max(axis=0)
            if scale.all():
                r /= scale
                r_inv = np.linalg.inv(r)
                if abs(r).sum(axis=0).max() * abs(r_inv).sum(axis=0).max() < 1.0 / RANK_RCOND:
                    r_inv /= scale[:, None]
                    return r_inv
        except np.linalg.LinAlgError:
            pass
    raise error(f"design matrix is rank deficient{_ctx(context)}")


def _eigh(a):
    """np.linalg.eigh(a), with NaN eigenvalues for a matrix (of a stack)
    that holds NaN or inf: numpy builds either return those or raise
    LinAlgError, then for the whole stack, which is taken apart here."""
    try:
        return np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        if a.ndim > 2:
            parts = [_eigh(m) for m in a.reshape(-1, *a.shape[-2:])]
            lam = np.array([p[0] for p in parts]).reshape(a.shape[:-1])
            return lam, np.array([p[1] for p in parts]).reshape(a.shape)
    return np.full(a.shape[:-1], np.nan), np.zeros(a.shape)


def _ctx(context: str) -> str:
    return f" ({context})" if context else ""
