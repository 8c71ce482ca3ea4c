"""Shared dense linear algebra helpers.

Every solve of a symmetric positive (semi)definite system in this package
goes through spd_solve so the ridge fallback policy lives in one place:
when the Cholesky factorization fails or LAPACK's 1-norm condition estimate
exceeds 1e12, the diagonal is inflated by 1e-10 * trace/dim and a warning
is recorded before solving.
"""

import warnings

import numpy as np
from scipy.linalg.lapack import dgeqrf, dpocon, dpotrf, dpotrs, dtrcon

from .errors import NumericalError

COND_LIMIT = 1e12
RIDGE_SCALE = 1e-10
RANK_RCOND = 1e-10


def sym(a):
    """Symmetrize, killing round-off asymmetry from products."""
    return (a + a.T) / 2.0


def max_asymmetry(a) -> float:
    if a.size == 0:
        return 0.0
    return float(np.max(np.abs(a - a.T)))


def min_eigenvalue(a) -> float:
    if a.shape[0] == 0:
        return 0.0
    return float(np.linalg.eigvalsh(sym(a))[0])


def spd_solve(a, b, error: type = NumericalError, sink: list | None = None, context: str = ""):
    """Solve a @ x = b for symmetric positive definite a.

    Falls back to a ridge-inflated diagonal when the Cholesky factorization
    fails or the estimated condition number exceeds COND_LIMIT, warning
    through `warnings` and appending the message to `sink` when given.
    Raises `error` if the system is still unsolvable.
    """
    a = sym(np.asarray(a, dtype=float))
    b = np.asarray(b, dtype=float)
    dim = a.shape[0]
    if dim == 0:
        return np.zeros_like(b)
    chol, info = dpotrf(a, lower=1, clean=0)
    norm1 = float(np.max(np.sum(np.abs(a), axis=0)))
    if info != 0 or dpocon(chol, norm1, uplo="L")[0] < 1.0 / COND_LIMIT:
        trace = float(np.trace(a))
        if trace <= 0.0:
            raise error(f"matrix is not positive definite{_ctx(context)}")
        ridge = RIDGE_SCALE * trace / dim
        msg = f"ill-conditioned system{_ctx(context)}: added ridge {ridge:.3e} to diagonal"
        warnings.warn(msg)
        if sink is not None:
            sink.append(msg)
        chol, info = dpotrf(a + ridge * np.eye(dim), lower=1, clean=0)
        if info != 0:
            raise error(f"singular system{_ctx(context)}")
    return dpotrs(chol, b, lower=1)[0]


def inv_sqrt_spd(a, floor: float = 1e-12, error: type = NumericalError, context: str = ""):
    """Symmetric inverse square root via eigendecomposition.

    Eigenvalues below -1e-10 are rejected; small ones are floored at `floor`
    rather than projected away so the result is always well defined.
    """
    a = sym(np.asarray(a, dtype=float))
    vals, vecs = np.linalg.eigh(a)
    if vals.size and vals[0] < -1e-10:
        raise error(f"matrix is not positive semidefinite{_ctx(context)}")
    vals = np.maximum(vals, floor)
    return (vecs / np.sqrt(vals)) @ vecs.T


def check_full_rank(design, error: type, context: str = ""):
    """Triangular factor r of the QR factorization of a full-rank design.

    r'r equals design'design, so r serves as its upper Cholesky factor.
    Raises `error` unless rows >= columns >= 1, no column is zero, and the
    1-norm reciprocal condition estimate of r with each column divided by
    its largest |entry| exceeds RANK_RCOND: rescaling a column of the
    design rescales that column of r, so the test does not depend on the
    columns' units, and the division cannot overflow.
    """
    design = np.asarray(design, dtype=float)
    rows, cols = design.shape
    if cols == 0 or rows < cols:
        raise error(f"design matrix is rank deficient{_ctx(context)}")
    r = np.triu(dgeqrf(design)[0][:cols])
    scale = np.abs(r).max(axis=0)
    if not (scale.all() and dtrcon(r / scale)[0] > RANK_RCOND):
        raise error(f"design matrix is rank deficient{_ctx(context)}")
    return r


def _ctx(context: str) -> str:
    return f" ({context})" if context else ""
