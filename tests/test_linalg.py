"""Guarded SPD solve: the ridge fallback, typed failures, and the plain path."""

import warnings

import numpy as np
import pytest

from helpers import centered, mean_binding

from datafuse import FunctionalFit, FusionInputs, estimate_eff, validate_summary
from datafuse._linalg import COND_LIMIT, EIG_FLOOR, PSD_TOL, RIDGE_SCALE, inv_sqrt_spd, spd_solve
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


def test_spd_solve_records_each_ridge_of_a_stack_in_its_sink():
    a = np.array([np.diag([1.0, 1e-14]), np.eye(2), np.diag([4.0, 0.0])])
    sink = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spd_solve(a, np.ones((3, 2)), sink=sink, context="probe")
    assert len(sink) == 2 and sink == [str(w.message) for w in caught]


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


def test_spd_solve_raises_when_the_ridge_leaves_it_singular():
    # a negative eigenvalue far beyond the ridge (1e-10 * trace / dim): the
    # ridge is added and warned about, and the system is still singular
    with pytest.warns(UserWarning, match="ill-conditioned system"):
        with pytest.raises(SingularCalibration, match=r"^singular system \(probe\)$"):
            spd_solve(np.diag([1.0, -0.5]), np.ones(2), SingularCalibration, context="probe")


def test_inv_sqrt_spd_rejects_a_matrix_that_is_not_psd():
    with pytest.raises(SingularGram, match=r"^matrix is not positive semidefinite \(probe\)$"):
        inv_sqrt_spd(np.diag([1.0, -1.0]), error=SingularGram, context="probe")
    # an eigenvalue within the PSD_TOL tolerance is floored at EIG_FLOOR instead
    root = inv_sqrt_spd(np.diag([4.0, PSD_TOL / 10]))
    np.testing.assert_allclose(root, np.diag([0.5, EIG_FLOOR**-0.5]), rtol=1e-12)


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
