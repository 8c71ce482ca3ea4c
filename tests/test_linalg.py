"""Guarded SPD solve: the ridge fallback, typed failures, and the plain path."""

import warnings

import numpy as np
import pytest

from helpers import centered, mean_binding

from datafuse import FunctionalFit, FusionInputs, estimate_eff, validate_summary
from datafuse._linalg import COND_LIMIT, RIDGE_SCALE, spd_solve
from datafuse.errors import SingularCalibration, SingularGram


def test_spd_solve_ridges_ill_conditioned_system():
    a = np.diag([1.0, 1e-7, 1e-14])
    assert np.linalg.cond(a) > COND_LIMIT
    b = np.array([1.0, -2.0, 3.0])
    ridge = RIDGE_SCALE * np.trace(a) / 3
    sink = []
    with pytest.warns(UserWarning, match="ill-conditioned system"):
        x = spd_solve(a, b, sink=sink, context="probe")
    np.testing.assert_allclose(x, b / (np.diag(a) + ridge), rtol=1e-12)
    assert sink == [f"ill-conditioned system (probe): added ridge {ridge:.3e} to diagonal"]


def test_spd_solve_ridge_reaches_result_warnings():
    rng = np.random.default_rng(41)
    n = 200
    eta = centered(rng, n, 1)
    # nearly collinear binding columns: the gram's condition is about 1e14
    eta = np.hstack([eta, eta + 1e-7 * centered(rng, n, 1)])
    inputs = FusionInputs(
        tau_fit=FunctionalFit([0.5], centered(rng, n, 1)),
        beta_fit=FunctionalFit([0.1, 0.2], eta),
        summaries=(validate_summary([0.0, 0.0], np.zeros((2, 2)), 100, mean_binding(2)),),
    )
    with pytest.warns(UserWarning, match="ill-conditioned system"):
        result = estimate_eff(inputs)
    assert any(w.startswith("ill-conditioned system (calibration)") for w in result.warnings)


def test_spd_solve_zero_trace_raises_callers_error():
    with pytest.raises(SingularGram):
        spd_solve(np.zeros((3, 3)), np.ones(3), SingularGram)
    with pytest.raises(SingularCalibration):
        spd_solve(np.diag([1.0, -1.0]), np.ones(2), SingularCalibration)


def test_spd_solve_well_conditioned_matches_numpy():
    rng = np.random.default_rng(43)
    w = rng.standard_normal((4, 4))
    a = w @ w.T + 4.0 * np.eye(4)
    for b in (rng.standard_normal(4), rng.standard_normal((4, 3))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = spd_solve(a, b)
        np.testing.assert_allclose(x, np.linalg.solve(a, b), rtol=1e-12, atol=1e-12)
    assert spd_solve(np.zeros((0, 0)), np.zeros(0)).shape == (0,)
