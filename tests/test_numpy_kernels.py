"""The numpy kernels that stand in for scipy at run time, checked against
scipy, which only the tests use: the logistic, the normal tail probabilities
and quantile of the Wald inference, the rank decision of check_full_rank,
and the ridge decision and typed errors of the guarded solves."""

import warnings

import numpy as np
import pytest
from scipy.linalg.lapack import dgeqrf, dtrcon
from scipy.special import expit, ndtr, ndtri

from datafuse._linalg import (
    RANK_RCOND,
    RIDGE_SCALE,
    check_full_rank,
    inv_sqrt_spd,
    logistic,
    spd_solve,
)
from datafuse.errors import NotPositiveDefinite, RankDeficientDesign, SingularCalibration
from datafuse.fusion import _wald


def test_logistic_matches_expit_and_never_warns():
    rng = np.random.default_rng(3)
    x = np.concatenate(
        [rng.standard_normal(5000) * 10.0, rng.uniform(-700.0, 700.0, 5000), [0.0, -0.0, 1e-300]]
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        np.testing.assert_allclose(logistic(x), expit(x), rtol=1e-15, atol=0.0)
        assert logistic(np.array([-800.0, 800.0])).tolist() == [0.0, 1.0]


def test_wald_tail_probabilities_match_ndtr():
    z = np.concatenate([np.linspace(-9.0, 9.0, 1801), [-37.0, -30.0, 30.0, 0.0, np.nan]])
    tails = {"upper": ndtr(-z), "lower": ndtr(z), "two_sided": 2.0 * ndtr(-np.abs(z))}
    for side, want in tails.items():
        got, p, _ = _wald(z, np.ones_like(z), 0.95, 0.0, side)
        np.testing.assert_array_equal(got, z)
        np.testing.assert_allclose(p, want, rtol=1e-13, atol=0.0)


def test_wald_critical_value_matches_ndtri():
    for level in (1e-6, 0.5, 0.8, 0.9, 0.95, 0.99, 0.999, 1.0 - 1e-9):
        _, _, ci = _wald(np.zeros(1), np.ones(1), level)
        zcrit = ndtri(0.5 + level / 2.0)
        np.testing.assert_allclose(ci[0], [-zcrit, zcrit], rtol=1e-14)


def _scaled_r(design):
    """LAPACK's R of the design with each column divided by its largest
    |entry|, and those entries."""
    r = np.triu(dgeqrf(design)[0][: design.shape[1]])
    scale = np.abs(r).max(axis=0)
    return r / scale, scale


def test_check_full_rank_decides_as_dtrcon():
    rng = np.random.default_rng(17)
    decided = {True: 0, False: 0}
    for _ in range(600):
        cols = int(rng.integers(1, 9))
        rows = cols + int(rng.integers(0, 40))
        design = rng.standard_normal((rows, cols))
        if cols > 1 and rng.random() < 0.7:
            # the last column a combination of the others plus noise whose
            # size sets the condition number
            noise = 10.0 ** rng.uniform(-16.0, -4.0) * rng.standard_normal(rows)
            design[:, -1] = design[:, :-1] @ rng.standard_normal(cols - 1) + noise
        design *= np.exp(rng.uniform(-5.0, 5.0, cols))
        scaled, scale = _scaled_r(design)
        rcond = dtrcon(scaled)[0]
        if RANK_RCOND / cols <= rcond <= RANK_RCOND * cols:
            continue
        full = rcond > RANK_RCOND
        decided[full] += 1
        if full:
            # inv(R), checked as the inverse of R with its columns scaled
            r_inv = check_full_rank(design, RankDeficientDesign) * scale[:, None]
            np.testing.assert_allclose(scaled @ r_inv, np.eye(cols), atol=1e-13 / rcond)
        else:
            with pytest.raises(RankDeficientDesign):
                check_full_rank(design, RankDeficientDesign)
    assert min(decided.values()) >= 100, decided


def test_spd_solve_ridges_a_non_diagonal_near_singular_matrix():
    # scaled to unit diagonal a diagonal probe is the identity; this one is
    # near singular in any diagonal scaling
    a = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-13]])
    b = np.array([1.0, 2.0])
    ridge = RIDGE_SCALE * np.trace(a) / 2
    sink = []
    with pytest.warns(UserWarning, match="ill-conditioned system"):
        x = spd_solve(a, b, sink=sink, context="probe")
    assert sink == [f"ill-conditioned system (probe): added ridge {ridge:.3e} to diagonal"]
    np.testing.assert_allclose(x, np.linalg.solve(a + ridge * np.eye(2), b), rtol=1e-4)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("raises", [False, True], ids=["returned", "raised"])
def test_non_finite_matrices_raise_typed_errors(bad, raises, monkeypatch):
    # numpy's eigh and qr return NaN on a NaN or inf input in some builds and
    # raise LinAlgError in others: both must end as the caller's error
    if raises:
        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("did not converge")

        monkeypatch.setattr(np.linalg, "eigh", fail)
        monkeypatch.setattr(np.linalg, "qr", fail)
    a = np.eye(3)
    a[1, 2] = a[2, 1] = bad
    design = np.column_stack([np.ones(6), np.arange(6.0)])
    design[3, 1] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularCalibration):
            spd_solve(a, np.ones(3), SingularCalibration)
        with pytest.raises(NotPositiveDefinite):
            inv_sqrt_spd(a, error=NotPositiveDefinite)
        with pytest.raises(RankDeficientDesign):
            check_full_rank(design, RankDeficientDesign)
