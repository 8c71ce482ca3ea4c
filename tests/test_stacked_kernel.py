"""cv_tune's stacked pass fails with the first failing fold's error, and
ridges each fold, as the folds run one by one would; _eigh takes apart a
stack that numpy's eigh raises for (tests/test_stack_invariance.py compares
every batched entry point with its lone calls)."""

import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from datafuse import (
    FunctionalDescriptor,
    FunctionalKind,
    cv_tune,
    kfold_indices,
    prepare_inputs,
    validate_dataset,
    validate_summary,
)
from datafuse import debias
from datafuse._linalg import _eigh, inv_sqrt_spd
from datafuse.debias import _FoldFits, _fold_error, _whiten
from datafuse.errors import (
    EmptyArm,
    FoldTooSmall,
    NoConvergence,
    NotPositiveDefinite,
    SingularCalibration,
)
from datafuse.fusion import _Calibration


def _cv_inputs(n=60, seed=4):
    rng = np.random.default_rng(seed)
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    data = validate_dataset({"Y": x1 + x2 + rng.standard_normal(n), "X1": x1, "X2": x2})
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    binding = [FunctionalDescriptor(FunctionalKind.MEAN, {"column": c}) for c in ("X1", "X2")]
    return prepare_inputs(data, tau, [validate_summary([0.1, -0.2], np.eye(2), 80, binding)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(2, 5).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.none() | st.integers(0, k - 1),
            st.sets(st.integers(0, k - 1)),
            st.none() | st.integers(0, k - 1),
            st.none() | st.integers(0, k - 1),
        )
    )
)
def test_cv_tune_raises_for_the_first_failing_fold(case):
    # fold `fit` fails its fits, the folds in `indefinite` their whitening,
    # fold `lasso` its lasso path and fold `fuse` its fused estimate (a zero
    # calibration system, whose zero residual pins every coordinate at zero):
    # the first fold to fail, at the first stage it fails, raises, as with
    # the folds run one at a time
    k, fit, indefinite, lasso, fuse = case
    inputs = _cv_inputs()
    folds = kfold_indices(inputs.n, k, 0)
    expected = None
    for f in range(k):
        if f == fit:
            expected = (FoldTooSmall, f"fold {f}: no rows (synthetic)")
        elif f in indefinite:
            expected = (FoldTooSmall, f"fold {f}: matrix is not positive semidefinite (whiten)")
        elif f == lasso:
            expected = (NoConvergence, "path (synthetic)")
        elif f == fuse:
            expected = (SingularCalibration, "matrix is not positive definite (calibration)")
        if expected is not None:
            break
    stacked, lasso_path = _FoldFits.stacked, debias._lasso_path
    pending = []  # the folds of the current pass whose lasso path is still to run

    def failing_fits(self, fs):
        folds = range(k)[fs]
        if fit in folds:
            raise _fold_error(fit, EmptyArm("no rows (synthetic)"))
        tau_test, calib = stacked(self, fs)
        gram, residual = calib.gram.copy(), calib.residual.copy()
        for i, f in enumerate(folds):
            if f == fuse:
                gram[i], residual[i] = -calib.sigma_ext[i], 0.0
            if f in indefinite:
                gram[i] = -10.0 * np.eye(2)
        pending[:] = folds
        return tau_test, _Calibration(calib.tau, calib.phi_var, calib.cross, gram, residual,
                                      calib.sigma_ext)

    def failing_path(*args):
        if pending.pop(0) == lasso:
            raise NoConvergence("path (synthetic)")
        return lasso_path(*args)

    with mock.patch.object(_FoldFits, "stacked", failing_fits), mock.patch.object(
        debias, "_lasso_path", failing_path
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the ridge of a near-zero system
        if expected is None:
            cv_tune(inputs, [1.0, 10.0], folds=folds)
            return
        with pytest.raises(expected[0]) as info:
            cv_tune(inputs, [1.0, 10.0], folds=folds)
    assert str(info.value) == expected[1]


def test_eigh_that_raises_for_a_stack_is_taken_apart(monkeypatch):
    # numpy builds that raise LinAlgError for a matrix holding NaN raise it
    # for the whole stack; the matrices are then decomposed one at a time
    eigh = np.linalg.eigh

    def raising(a):
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", raising)
    a = np.stack([np.eye(2), np.full((2, 2), np.nan), 4.0 * np.eye(2)])
    lam, vecs = _eigh(a)
    assert lam.tolist()[0] == [1.0, 1.0] and lam.tolist()[2] == [4.0, 4.0]
    assert np.isnan(lam[1]).all() and vecs.shape == a.shape
    with pytest.raises(NotPositiveDefinite, match=r"^matrix is not finite \(probe\)$"):
        inv_sqrt_spd(a, error=NotPositiveDefinite, context="probe")
    assert inv_sqrt_spd(a[::2]).tolist() == [np.eye(2).tolist(), (0.5 * np.eye(2)).tolist()]


def test_cv_tune_reports_the_first_fold_whose_fused_estimate_fails():
    # fold 0 and fold 2 select {0}, fold 1 selects {0, 1}: the batched solve
    # for {0} fails at fold 2 (a zero system), but fold 1's solve for {0, 1}
    # (singular after the ridge) fails first as the folds run one by one
    inputs = _cv_inputs()
    folds = kfold_indices(inputs.n, 3, 0)
    stacked = _FoldFits.stacked
    zeros = {0: [[0.0, 1.0]] * 2, 1: [[0.0, 0.0]] * 2, 2: [[0.0, 1.0]] * 2}
    pending = []  # the folds of the current pass whose lasso path is still to run

    def fits(self, fs):
        tau_test, calib = stacked(self, fs)
        gram = calib.gram.copy()
        for i, f in enumerate(range(3)[fs]):
            if f == 1:
                gram[i] = np.diag([1.0, -5e-11]) - calib.sigma_ext[i]
            elif f == 2:
                gram[i] = np.diag([0.0, 1.0]) - calib.sigma_ext[i]
        pending[:] = range(3)[fs]
        return tau_test, _Calibration(calib.tau, calib.phi_var, calib.cross, gram,
                                      calib.residual, calib.sigma_ext)

    def path(*args):
        return np.array(zeros[pending.pop(0)])

    with mock.patch.object(_FoldFits, "stacked", fits), mock.patch.object(
        debias, "_lasso_path", path
    ), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(SingularCalibration, match=r"^singular system \(calibration\)$"):
            cv_tune(inputs, [1.0, 10.0], folds=folds)


def test_a_batched_fuse_failure_that_no_single_fold_repeats_still_raises():
    # the solve fails for every stack, one fold's included: the replay, one
    # fold at a time, raises the first fold's error, which carries the stacked
    # pass's message
    from datafuse import fusion

    solve = fusion.spd_solve

    def batched_only(a, *args):
        if np.ndim(a) > 2:
            raise SingularCalibration("batched only (synthetic)")
        return solve(a, *args)

    inputs = _cv_inputs()
    with mock.patch.object(fusion, "spd_solve", batched_only):
        with pytest.raises(SingularCalibration, match=r"^batched only \(synthetic\)$"):
            cv_tune(inputs, [1.0, 10.0], k=3)


def test_a_stacked_failure_that_every_fold_passes_alone_is_raised():
    # the solve fails only for a stack of two or more folds: the replay runs
    # each of the three folds alone, in order, and every one passes, so the
    # stacked pass's error is raised
    from datafuse import fusion

    solve, passes = fusion.spd_solve, debias._cv_errors
    slices = []

    def stacks_only(a, *args):
        if np.ndim(a) > 2 and len(a) > 1:
            raise SingularCalibration(f"stack of {len(a)} (synthetic)")
        return solve(a, *args)

    def recorded(fits, fs, *args):
        slices.append(fs)
        return passes(fits, fs, *args)

    inputs = _cv_inputs()
    with mock.patch.object(fusion, "spd_solve", stacks_only), mock.patch.object(
        debias, "_cv_errors", recorded
    ):
        with pytest.raises(SingularCalibration, match=r"^stack of 3 \(synthetic\)$"):
            cv_tune(inputs, [1.0, 10.0], k=3)
    assert slices == [slice(None), slice(0, 1), slice(1, 2), slice(2, 3)]


def test_cv_tune_ridges_each_fold_as_the_folds_run_one_by_one():
    # two summary coordinates of one column with a singular covariance: every
    # fold's calibration system on both coordinates is singular, so its
    # fused estimate adds a ridge and warns; the stacked pass warns once per
    # (fold, set) as the folds run one at a time do
    rng = np.random.default_rng(4)
    x1, x2 = rng.standard_normal(60), rng.standard_normal(60)
    data = validate_dataset({"Y": x1 + x2 + rng.standard_normal(60), "X1": x1, "X2": x2})
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    binding = [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X1"})] * 2
    summary = validate_summary([0.1, 0.1], np.ones((2, 2)), 80, binding)
    inputs = prepare_inputs(data, tau, [summary])
    grid = [0.01, 0.1, 1.0, 10.0]
    folds = kfold_indices(inputs.n, 3, 0)
    fits = _FoldFits([inputs], [folds])
    with warnings.catch_warnings(record=True) as reference:
        warnings.simplefilter("always")
        for f in range(len(folds)):
            calib = fits.fold(f)[1]
            x, y = _whiten(calib)
            weights = debias._adaptive_weights(calib.residual, 2.0)
            lams = [c * fits.train_size[f] ** -1.0 for c in grid]
            path = debias._lasso_path(x, y, weights, lams)
            for key in dict.fromkeys(tuple(np.flatnonzero(row == 0.0)) for row in path):
                calib.restrict(list(key)).fuse()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cv_tune(inputs, grid, folds=folds)
    ridges = Counter(str(w.message) for w in reference)
    assert len(ridges) == len(folds) and all("added ridge" in m for m in ridges)
    assert Counter(str(w.message) for w in caught) == ridges
