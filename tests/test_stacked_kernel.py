"""The stacked calibration kernel against the same calls one matrix at a
time: spd_solve, inv_sqrt_spd, _Calibration.restrict/fuse and _whiten on a
stack give each matrix's result, warnings and first error, and cv_tune,
which runs its folds as one stack, fails with the first failing fold's
error as the folds run one by one would."""

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
from datafuse._linalg import _eigh, inv_sqrt_spd, spd_solve
from datafuse.debias import _FoldFits, _fold_error, _whiten
from datafuse.errors import (
    DataFuseError,
    EmptyArm,
    FoldTooSmall,
    NoConvergence,
    NotPositiveDefinite,
    SingularCalibration,
)
from datafuse.fusion import _Calibration

REL_TOL = 1e-15


def _matrix(rng, q, kind):
    """A symmetric q x q matrix V diag(lam) V': well conditioned ("plain"),
    with lam_min / lam_max far below 1 / COND_LIMIT or zero ("ridge"), with
    an eigenvalue of -lam_max ("indefinite"), or holding a NaN ("nan")."""
    v = np.linalg.qr(rng.standard_normal((q, q)))[0]
    lam = rng.uniform(0.5, 2.0, q) * 10.0 ** rng.uniform(-3.0, 3.0)
    if kind == "ridge":
        lam[0] = lam.max() * rng.choice([0.0, 1e-14, 1e-17])
    elif kind == "indefinite":
        lam[0] = -lam.max()
    a = (v * lam) @ v.T
    if kind == "nan":
        a[0, 0] = np.nan
    return a


@st.composite
def _stacks(draw, nan=False):
    """(rng, k matrices of one q x q shape, their kinds): k and q in 1..5,
    each matrix plain or ridged, at most one indefinite and, with `nan`, at
    most one holding a NaN."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k, q = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    kinds = draw(st.lists(st.sampled_from(["plain", "ridge"]), min_size=k, max_size=k))
    for kind in ("indefinite", "nan") if nan else ("indefinite",):
        at = draw(st.none() | st.integers(0, k - 1))
        if at is not None:
            kinds[at] = kind
    return rng, np.array([_matrix(rng, q, kind) for kind in kinds]), kinds


def _run(compute):
    """(result, warning messages, (error type, message) or None)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, error = compute(), None
        except DataFuseError as exc:
            result, error = None, (type(exc), str(exc))
    return result, [str(w.message) for w in caught], error


def _one_by_one(compute, count):
    """compute(i) for i = 0, 1, ... until one raises, as _run reports it:
    the results in a list, every warning in order, the first error."""
    results, messages = [], []
    for i in range(count):
        result, caught, error = _run(lambda: compute(i))
        messages += caught
        if error is not None:
            return None, messages, error
        results.append(result)
    return results, messages, None


def _assert_matches(stacked, one_by_one):
    """The same error and warnings; without an error, output j of the
    stacked call at index i equals output j of call i, bit for bit or else
    within REL_TOL of its largest entry."""
    result, caught, error = stacked
    want_results, want_caught, want_error = one_by_one
    assert error == want_error
    assert caught == want_caught
    if error is not None:
        return
    for i, want_outputs in enumerate(want_results):
        for got, want in zip(result, want_outputs):
            got, want = got[i], np.asarray(want)
            assert got.shape == want.shape
            if not np.array_equal(got, want):
                assert np.max(np.abs(got - want)) <= REL_TOL * np.max(np.abs(want))


@settings(max_examples=300, deadline=None)
@given(_stacks(nan=True), st.booleans())
def test_spd_solve_of_a_stack_is_each_matrix_solved_alone(case, vector_rhs):
    rng, a, kinds = case
    k, q = a.shape[:2]
    b = rng.standard_normal((k, q) if vector_rhs else (k, q, 2))
    sink = []
    stacked = _run(lambda: (spd_solve(a, b, SingularCalibration, sink, "probe"),))
    alone = _one_by_one(
        lambda i: (spd_solve(a[i], b[i], SingularCalibration, context="probe"),), k
    )
    _assert_matches(stacked, alone)
    assert sink == stacked[1]
    if stacked[2] is None and q > 1:
        # each ridged matrix warns once, with the text it warns with alone
        assert len(stacked[1]) == kinds.count("ridge")


@settings(max_examples=300, deadline=None)
@given(_stacks(nan=True))
def test_inv_sqrt_spd_of_a_stack_is_each_matrix_alone(case):
    _, a, kinds = case
    stacked = _run(lambda: (inv_sqrt_spd(a, NotPositiveDefinite, "probe"),))
    alone = _one_by_one(lambda i: (inv_sqrt_spd(a[i], NotPositiveDefinite, "probe"),), len(a))
    _assert_matches(stacked, alone)
    assert (stacked[2] is None) == (kinds.count("plain") + kinds.count("ridge") == len(kinds))


def _calibrations(rng, gram, p):
    """A stack of calibrations on the matrices `gram`, about half of them
    with zero external covariance, so that a gram that needs the ridge makes
    a fused system that needs it."""
    k, q = gram.shape[:2]
    phi = rng.standard_normal((k, p, p))
    sigma_ext = np.array([_matrix(rng, q, "plain") * rng.choice([0.0, 1.0]) for _ in range(k)])
    return _Calibration(
        tau=rng.standard_normal((k, p)),
        phi_var=phi @ phi.swapaxes(1, 2),
        cross=rng.standard_normal((k, p, q)),
        gram=gram,
        residual=rng.standard_normal((k, q)),
        sigma_ext=sigma_ext,
    )


@settings(max_examples=300, deadline=None)
@given(_stacks(), st.integers(1, 3), st.data())
def test_calibration_stack_fuses_and_whitens_each_calibration_alone(case, p, data):
    rng, gram, _ = case
    k, q = gram.shape[:2]
    calib = _calibrations(rng, gram, p)
    keep = data.draw(st.lists(st.integers(0, q - 1), unique=True).map(sorted))
    sub = calib.restrict(keep)
    for i in range(k):
        alone = calib[i].restrict(keep)
        for field in ("tau", "phi_var", "cross", "gram", "residual", "sigma_ext"):
            assert np.array_equal(getattr(sub, field)[i], getattr(alone, field))
    _assert_matches(_run(sub.fuse), _one_by_one(lambda i: sub[i].fuse(), k))
    _assert_matches(_run(lambda: _whiten(calib)), _one_by_one(lambda i: _whiten(calib[i]), k))


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
