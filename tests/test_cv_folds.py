"""Cross-validation folds read from moment sums against refits on the fold's
rows.

The reference for fold f refits everything on the fold's rows: the target
on the held-out rows (debias._fit_tau) and prepare_inputs on the train rows
(fusion._prepare), both from the full-data propensity of an aipw_ate target
and re-run from zero if they raise, then the whitening.
"""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import FOLD_BINDINGS, FOLD_TARGETS, assert_same_bits, random_spd
from test_stack_invariance import ROW, reached

from datafuse import (
    FunctionalDescriptor,
    FunctionalKind,
    cv_tune,
    kfold_indices,
    prepare_inputs,
    validate_dataset,
    validate_summary,
)
from datafuse.debias import _FoldFits, _fit_tau, _tune, _whiten
from datafuse.errors import DataFuseError, FoldTooSmall
from datafuse.fusion import _prepare

FOLD_RTOL = 1e-10
HELD_OUT_RTOL = 1e-12

_M, _J, _K = FunctionalKind.MEAN, FunctionalKind.JOINT_OLS, FunctionalKind.MARGINAL_OLS


def _case(seed):
    """(inputs, folds), or None where prepare_inputs raises: an internal
    dataset of 6-80 rows whose outcome is linear in X1, X2 and a sparse
    binary B up to noise as small as 1e-6 (near-perfect fits), a target, 1-3
    summary sources of 1-2 bindings each, and 2-4 folds, some too small to
    fit and some whose train rows fit a slot exactly. Every choice is drawn
    from one generator seeded with `seed`, so each kind is drawn about
    equally often."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(6, 81))
    noise = rng.choice([1.0, 1e-3, 1e-6])
    x1, x2 = rng.standard_normal(n), rng.standard_normal(n)
    b = (rng.random(n) < rng.choice([0.1, 0.3, 0.6])).astype(float)
    t = (rng.random(n) < 0.5).astype(float)
    y = 1.0 + x1 - 0.5 * x2 + 0.3 * b + 0.2 * t + noise * rng.standard_normal(n)
    data = validate_dataset({"Y": y, "X1": x1, "X2": x2, "B": b, "T": t})
    summaries = []
    for _ in range(rng.integers(1, 4)):
        drawn = rng.integers(len(FOLD_BINDINGS), size=rng.integers(1, 3))
        binding = [FOLD_BINDINGS[j] for j in drawn]
        q = sum(desc.width() for desc in binding)
        beta = rng.standard_normal(q)
        m = int(rng.integers(20, 400))
        summaries.append(validate_summary(beta, random_spd(rng, q), m, binding))
    try:
        inputs = prepare_inputs(data, FOLD_TARGETS[rng.integers(len(FOLD_TARGETS))], summaries)
    except DataFuseError:
        return None
    return inputs, kfold_indices(n, int(rng.integers(2, 5)), int(rng.integers(1000)))


@st.composite
def _cases(draw):
    case = _case(draw(st.integers(0, 2**32 - 1)))
    assume(case is not None)
    return case


def _reference(inputs, test_rows, train_rows, start):
    """The held-out target estimate and the whitened train-rows calibration,
    by refits on the fold's rows."""
    try:
        stack = None if start is None else start[None]
        tau_test = _fit_tau(inputs, test_rows, stack)
        data = inputs.data.subset(train_rows)
        train = _prepare([data], inputs.tau, [inputs.summaries], stack)[0]
    except DataFuseError:
        if start is None:
            raise
        return _reference(inputs, test_rows, train_rows, None)
    _whiten(train._calibration)
    return tau_test, train._calibration


def _outcome(compute):
    try:
        return compute(), None
    except DataFuseError as exc:
        return None, (type(exc), str(exc))


def _scales(calib) -> dict:
    """The magnitude of each compared field of a calibration: its largest
    entry, and for the influence moments its largest variance (an entry
    that cancels to zero has no magnitude of its own)."""
    phi_var, gram = np.max(np.diag(calib.phi_var)), np.max(np.diag(calib.gram))
    out = {name: np.max(np.abs(getattr(calib, name))) for name in ("tau", "residual", "sigma_ext")}
    return dict(out, cross=np.sqrt(phi_var * gram), gram=gram)


def _assert_close(actual, expected, rtol, scale, what):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape, what
    assert np.max(np.abs(actual - expected), initial=0.0) <= rtol * scale, what


def _ours(fits, f):
    tau_test, calib = fits.fold(f)
    _whiten(calib)
    return tau_test, calib


@settings(max_examples=300, deadline=None)
@given(_cases())
# a fold whose train rows fit a slot exactly: its moment form's influence
# cancels to zero, so the fold must be refitted (a cancelled test of
# CANCELLATION_FLOOR * size**2 that is strict misses it)
@example(_case(3402))
def test_folds_from_moment_sums_match_refits(case):
    inputs, folds = case
    start = inputs.tau_fit._propensity
    fits = _FoldFits([inputs], [folds])
    first_failure = None
    for f, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(np.arange(inputs.n), test_rows)
        ref, ref_error = _outcome(lambda: _reference(inputs, test_rows, train_rows, start))
        got, error = _outcome(lambda: _ours(fits, f))
        assert error == ref_error
        if ref_error is not None:
            first_failure = first_failure or f"fold {f}: {ref_error[1]}"
            continue
        _assert_close(got[0], ref[0], HELD_OUT_RTOL, np.max(np.abs(ref[0])), "held-out estimate")
        scales = _scales(ref[1])
        for field in ("tau", "cross", "gram", "residual", "sigma_ext"):
            actual, expected = getattr(got[1], field), getattr(ref[1], field)
            _assert_close(actual, expected, FOLD_RTOL, scales[field], field)
    if first_failure is not None:
        with pytest.raises(FoldTooSmall) as info:
            cv_tune(inputs, [1.0, 10.0], folds=folds)
        assert str(info.value) == first_failure


def _huge_inputs(x, y):
    data = validate_dataset({"X": x, "Y": y})
    tau = FunctionalDescriptor(_M, {"column": "Y"})
    binding = [FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "X"})]
    return prepare_inputs(data, tau, [validate_summary([0.0], [[1.0]], 10, binding)])


FOLDS_OF_12 = [np.arange(0, 4), np.arange(4, 8), np.arange(8, 12)]


def test_fold_whose_influence_overflows_fails_as_the_refit_does():
    # the train rows of fold 0 have a second moment of 4e-30, just above the
    # degenerate floor, so the binding's influence there is of order 1e165;
    # a difference total - fold would lose that moment against the fold's
    rng = np.random.default_rng(3)
    x = np.where(np.arange(12) < 4, 1.0 + rng.random(12), 2e-15)
    inputs = _huge_inputs(x, 1e150 * rng.choice([-1.0, 1.0], 12))
    _, (kind, message) = _outcome(
        lambda: _reference(inputs, FOLDS_OF_12[0], np.arange(4, 12), None)
    )
    assert kind.__name__ == "NonFiniteValue"
    with pytest.raises(FoldTooSmall) as info:
        cv_tune(inputs, [1.0], folds=FOLDS_OF_12)
    assert str(info.value) == f"fold 0: {message}"


def test_feature_sums_that_overflow_fall_back_to_refits():
    # fourth powers of values near 1e80 overflow: every fit is refitted
    rng = np.random.default_rng(4)
    x = 1e80 * rng.standard_normal(12)
    inputs = _huge_inputs(x, 2.0 * x + 1e80 * rng.standard_normal(12))
    fits = _FoldFits([inputs], [FOLDS_OF_12])
    assert fits.refit.all()
    for f, test_rows in enumerate(FOLDS_OF_12):
        tau_test, calib = _ours(fits, f)
        ref_tau, ref_calib = _reference(
            inputs, test_rows, np.setdiff1d(np.arange(12), test_rows), None
        )
        assert_same_bits(tau_test, ref_tau)
        for field in ("tau", "cross", "gram", "residual", "sigma_ext"):
            np.testing.assert_allclose(getattr(calib, field), getattr(ref_calib, field), rtol=1e-12)


def test_folds_that_do_not_partition_the_rows_match_refits():
    # overlapping folds, a repeated row and rows in no fold: every fold is
    # refitted whole on its own rows
    rng = np.random.default_rng(8)
    x1, x2 = rng.standard_normal(40), rng.standard_normal(40)
    data = validate_dataset({"Y": 1.0 + x1 - x2 + rng.standard_normal(40), "X1": x1, "X2": x2})
    binding = [FOLD_BINDINGS[0], FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X2"]})]
    summary = validate_summary(rng.standard_normal(3), random_spd(rng, 3), 100, binding)
    tau = FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False})
    inputs = prepare_inputs(data, tau, [summary])
    folds = [np.arange(0, 10), np.arange(5, 15), np.array([20, 20, 21, 22, 23, 24, 25])]
    fits = _FoldFits([inputs], [folds])
    assert fits.refit.all()
    for f, test_rows in enumerate(folds):
        got = _ours(fits, f)
        ref = _reference(inputs, test_rows, np.setdiff1d(np.arange(40), test_rows), None)
        _assert_close(got[0], ref[0], HELD_OUT_RTOL, np.max(np.abs(ref[0])), "held-out estimate")
        scales = _scales(ref[1])
        for field in ("tau", "cross", "gram", "residual", "sigma_ext"):
            actual, expected = getattr(got[1], field), getattr(ref[1], field)
            _assert_close(actual, expected, FOLD_RTOL, scales[field], field)


def test_each_input_of_a_stack_has_the_folds_and_tuning_it_has_alone():
    # the _FoldFits row of test_stack_invariance's table
    missed = ROW["_FoldFits"].reach - reached("_FoldFits")
    assert not missed, sorted(missed)


def test_each_input_of_a_stack_has_the_folds_it_has_alone():
    # three inputs of one target and binding, the second with a row in no
    # fold: its folds are refitted and the others' read from sums, and every
    # fold, and each input's tuning, equals what the input gives alone
    rng = np.random.default_rng(8)
    tau = FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False})
    binding = [FunctionalDescriptor(_K, {"outcome": "Y", "regressor": x}) for x in ("X1", "X2")]
    inputs, folds = [], []
    for r in range(3):
        x1, x2 = rng.standard_normal(60), rng.standard_normal(60)
        data = validate_dataset({"Y": x1 + x2 + rng.standard_normal(60), "X1": x1, "X2": x2})
        summary = validate_summary(1.0 + 0.1 * rng.standard_normal(2), random_spd(rng, 2), 200,
                                   binding)
        inputs.append(prepare_inputs(data, tau, [summary]))
        folds.append(kfold_indices(60, 3, r))
    folds[1][0] = folds[1][0][1:]
    fits = _FoldFits(inputs, folds)
    assert fits.refit.tolist() == [False] * 3 + [True] * 3 + [False] * 3
    g = 0
    for one, part in zip(inputs, folds):
        alone = _FoldFits([one], [part])
        for f in range(len(part)):
            assert_same_bits(fits.fold(g), alone.fold(f), f"fold {g}")
            g += 1
    grid = [1.0, 3.0, 10.0]
    alone = [cv_tune(one, grid, folds=part) for one, part in zip(inputs, folds)]
    assert_same_bits(_tune(inputs, folds, grid, 1.0, 2.0), alone)


# fitters on no rows warn (numpy's mean of an empty slice) before they fail
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("tau", FOLD_TARGETS, ids=lambda desc: desc.kind.value)
def test_fold_with_no_train_rows_fails_as_the_refit_does(tau, monkeypatch):
    # a user fold that holds every row leaves no train rows: the refit on
    # them fails, and cv_tune raises that error as FoldTooSmall
    rng = np.random.default_rng(5)
    n = 30
    x1, t = rng.standard_normal(n), (np.arange(n) % 2).astype(float)
    b = (np.arange(n) % 3 == 0).astype(float)
    y = 1.0 + x1 + t + rng.standard_normal(n)
    data = validate_dataset({"Y": y, "X1": x1, "X2": rng.standard_normal(n), "B": b, "T": t})
    summary = validate_summary([0.0], [[1.0]], 50, [FOLD_BINDINGS[4]])
    inputs = prepare_inputs(data, tau, [summary])
    folds = [np.arange(n), np.arange(5)]
    start = inputs.tau_fit._propensity
    _, (kind, message) = _outcome(lambda: _reference(inputs, folds[0], np.arange(0), start))
    with pytest.raises(FoldTooSmall) as info:
        cv_tune(inputs, [1.0], folds=folds)
    assert str(info.value) == f"fold 0: {message}"
    assert isinstance(info.value.__cause__, kind)
    # the refit starts from the full-data propensity where the target has
    # one (aipw_ate) and runs again from zero if that fails; a refit that
    # started from zero raises at once
    starts, refitted = [], _FoldFits._refitted

    def counted(self, g, at):
        starts.append(at is None)
        return refitted(self, g, at)

    monkeypatch.setattr(_FoldFits, "_refitted", counted)
    with pytest.raises(kind):
        _FoldFits([inputs], [folds]).fold(0)
    assert starts == ([True] if start is None else [False, True])


def test_fits_beyond_the_feature_cap_are_refitted():
    # a 13-column joint design has 104 moment features, more than
    # MOMENT_MAX_FEATURES: every fold is refitted whole, the narrow binding too
    rng = np.random.default_rng(6)
    n = 60
    columns = {f"X{j}": rng.standard_normal(n) for j in range(12)}
    y = sum(columns.values()) + rng.standard_normal(n)
    data = validate_dataset(dict(columns, Y=y))
    tau = FunctionalDescriptor(_J, {"outcome": "Y", "regressors": list(columns)})
    binding = [FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "X0"})]
    inputs = prepare_inputs(data, tau, [validate_summary([1.0], [[2.0]], 80, binding)])
    folds = kfold_indices(n, 3, 0)
    fits = _FoldFits([inputs], [folds])
    assert fits.refit.all()
    for f, test_rows in enumerate(folds):
        got = _ours(fits, f)
        ref = _reference(inputs, test_rows, np.setdiff1d(np.arange(n), test_rows), None)
        assert_same_bits(got[0], ref[0])
        scales = _scales(ref[1])
        for field in ("tau", "cross", "gram", "residual", "sigma_ext"):
            actual, expected = getattr(got[1], field), getattr(ref[1], field)
            _assert_close(actual, expected, FOLD_RTOL, scales[field], field)


def test_folds_whose_fits_would_fail_are_refitted():
    # fold 0's held-out rows hold no B = 1 row, so the target fails there;
    # fold 1's train rows hold no C = 1 row, so the binding's joint design is
    # rank deficient there. Both folds are refitted and fail with the refit's
    # error. Fold 2's held-out rows fit the target exactly (its moments cancel
    # there), which does not call for a refit: only the held-out estimate is
    # read, and it matches the refit's.
    rng = np.random.default_rng(11)
    rows = np.arange(30)
    x1 = rng.standard_normal(30)
    b = ((rows >= 10) & (rows % 2 == 0)).astype(float)
    y = 1.0 + x1 + rng.standard_normal(30)
    y[(rows >= 20) & (b == 1.0)] = 2.0
    data = validate_dataset({"Y": y, "X1": x1, "B": b, "C": np.isin(rows, [11, 14, 17]) * 1.0})
    binding = [FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "C"]})]
    summary = validate_summary(np.zeros(3), np.eye(3), 50, binding)
    inputs = prepare_inputs(data, FOLD_TARGETS[1], [summary])
    folds = [rows[:10], rows[10:20], rows[20:]]
    fits = _FoldFits([inputs], [folds])
    assert fits.refit.tolist() == [True, True, False]
    ref_errors = []
    for f, test_rows in enumerate(folds):
        train_rows = np.setdiff1d(rows, test_rows)
        ref, ref_error = _outcome(lambda: _reference(inputs, test_rows, train_rows, None))
        got, error = _outcome(lambda: _ours(fits, f))
        assert error == ref_error
        ref_errors.append(ref_error)
        if ref_error is None:
            _assert_close(got[0], ref[0], HELD_OUT_RTOL, np.max(np.abs(ref[0])), "held-out")
            scales = _scales(ref[1])
            for field in ("tau", "cross", "gram", "residual", "sigma_ext"):
                actual, expected = getattr(got[1], field), getattr(ref[1], field)
                _assert_close(actual, expected, FOLD_RTOL, scales[field], field)
    kinds = [None if e is None else e[0].__name__ for e in ref_errors]
    assert kinds == ["EmptyArm", "RankDeficientDesign", None]
    with pytest.raises(FoldTooSmall) as info:
        cv_tune(inputs, [1.0, 10.0], folds=folds)
    assert str(info.value) == f"fold 0: {ref_errors[0][1]}"
