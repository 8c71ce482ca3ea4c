"""Shared dense linear algebra helpers, on numpy alone.

Every solve of a symmetric positive (semi)definite system in this package
goes through spd_solve so the ridge fallback policy lives in one place: one
eigendecomposition a = V diag(lam) V' decides and solves. When lam_min is not
positive or the exact eigenvalue ratio lam_min / lam_max is below
1 / COND_LIMIT (1e-12), every eigenvalue is shifted by the ridge
1e-10 * trace/dim, which adds it to the diagonal, and a warning is recorded
before solving.
"""

import warnings

import numpy as np

from .errors import NumericalError

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
RANK_RCOND = 1e-10

# the strictly lower triangle of a k x k matrix as a boolean mask, by k
_LOWER = {}


def sym(a):
    """Symmetrize, killing round-off asymmetry from products."""
    return (a + a.T) / 2.0


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
    shifts every eigenvalue, so a is factored once. Raises `error` if the
    trace is not positive, if lam_min is still not positive after the
    ridge, or if a is not finite.
    """
    a = sym(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    dim = a.shape[0]
    if dim == 0:
        return np.zeros_like(b)
    lam, vecs = _eigh(a, error, context)
    if not (lam[0] > 0.0 and lam[0] >= lam[-1] / COND_LIMIT):
        trace = float(a.trace())
        if not trace > 0.0:
            raise error(f"matrix is not positive definite{_ctx(context)}")
        ridge = RIDGE_SCALE * trace / dim
        msg = f"ill-conditioned system{_ctx(context)}: added ridge {ridge:.3e} to diagonal"
        warnings.warn(msg)
        if sink is not None:
            sink.append(msg)
        lam = lam + ridge
        if not lam[0] > 0.0:
            raise error(f"singular system{_ctx(context)}")
    coef = vecs.T @ b
    coef /= lam if coef.ndim == 1 else lam[:, None]
    return vecs @ coef


def inv_sqrt_spd(a, floor: float = 1e-12, error: type = NumericalError, context: str = ""):
    """Symmetric inverse square root via eigendecomposition.

    Eigenvalues below -1e-10 are rejected, as is a matrix that is not
    finite; small ones are floored at `floor` rather than projected away so
    the result is always well defined.
    """
    a = sym(np.asarray(a, dtype=float))
    vals, vecs = _eigh(a, error, context)
    if vals.size and vals[0] < -1e-10:
        raise error(f"matrix is not positive semidefinite{_ctx(context)}")
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.T


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


def _eigh(a, error: type, context: str):
    """np.linalg.eigh(a), raising `error` if a holds NaN or inf: numpy builds
    either raise LinAlgError on such a matrix or return NaN eigenvalues."""
    try:
        lam, vecs = np.linalg.eigh(a)
    except np.linalg.LinAlgError:
        lam = None
    if lam is None or not np.isfinite(lam).all():
        raise error(f"matrix is not finite{_ctx(context)}")
    return lam, vecs


def _ctx(context: str) -> str:
    return f" ({context})" if context else ""
