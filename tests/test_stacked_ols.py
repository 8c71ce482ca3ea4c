"""The least-squares layer on a stack of designs against the same designs one
at a time: check_full_rank and _ols_fit give each design of a stack the bits
it gets alone, and the stack raises exactly when some design raises alone.
The result assembly of a stack (fusion._build_results) gives each fit the
result it gets alone, warnings included, and fusion._prepare on a list of
datasets gives each dataset its lone inputs, or its lone error."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pick

from datafuse import (
    FunctionalDescriptor,
    FunctionalKind,
    Method,
    evaluate_binding,
    functionals,
    fusion,
    validate_dataset,
    validate_summary,
)
from datafuse._linalg import check_full_rank, sym
from datafuse.errors import DataFuseError, DegenerateRegressor, RankDeficientDesign

# a drawn design's mode; the modes that raise are drawn about a third of the time
MODES = ("well",) * 5 + ("ill",) * 2 + ("zero", "collinear", "near")


def _stack(seed, size):
    """(design (size, n, k), y (size, n), modes): one row count n of 1-400
    and one width k of 1-4 for the stack, the designs views of one
    column-major buffer as functionals._joint_design builds them, each with
    an intercept column first and drawn by one of MODES: well is standard
    normal, ill has its columns scaled by 1e-8 to 1e8, zero has a zero
    column, collinear repeats a column times 2, near adds 1e-13 noise to
    such a copy. About one stack in eight has fewer rows than columns."""
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    if k > 1 and rng.random() < 0.125:
        n = int(rng.integers(1, k))
    else:
        n = max(k, int(np.exp(rng.uniform(np.log(2), np.log(401)))))
    columns = np.empty((size, k, n))
    columns[:, 0] = 1.0
    modes = []
    for b in range(size):
        mode = pick(rng, MODES) if k > 1 else "well"
        columns[b, 1:] = rng.standard_normal((k - 1, n))
        if mode == "ill":
            columns[b] *= 10.0 ** rng.uniform(-8, 8, size=(k, 1))
        elif mode == "zero":
            columns[b, rng.integers(1, k)] = 0.0
        elif mode in ("collinear", "near"):
            a, c = rng.choice(k, size=2, replace=False)
            columns[b, c] = 2.0 * columns[b, a]
            if mode == "near":
                columns[b, c] += 1e-13 * rng.standard_normal(n)
        modes.append(mode)
    y = rng.standard_normal((size, n)) * pick(rng, (1e-3, 1.0, 1e3))
    return columns.swapaxes(1, 2), y, modes


def _outcome(fn, *args):
    """(value, error): fn(*args) or None, the error's (type, message) or None."""
    try:
        return fn(*args), None
    except DataFuseError as exc:
        return None, (type(exc), str(exc))


def _rank(design):
    return check_full_rank(design, RankDeficientDesign, "stack")


def _fit(design, y):
    return functionals._ols_fit(design, y, "stack")


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_each_design_of_a_stack_is_its_lone_design(seed, size):
    design, y, _ = _stack(seed, size)
    for fn, args in ((_rank, (design,)), (_fit, (design, y))):
        value, error = _outcome(fn, *args)
        alone = [_outcome(fn, *(a[b] for a in args)) for b in range(size)]
        errors = [one_error for _, one_error in alone if one_error is not None]
        if errors:
            assert value is None and error in errors
            continue
        assert error is None
        parts = value if isinstance(value, tuple) else (value,)
        for b, (one, _) in enumerate(alone):
            for got, want in zip(parts, one if isinstance(one, tuple) else (one,)):
                assert got[b].tobytes() == want.tobytes()
                assert got[b].shape == want.shape


def test_stacks_reach_every_mode():
    """Over seeds 0-299 the stacks hold every mode, among them stacks that
    mix designs that raise with designs that do not, so the property test
    compares both outcomes inside one stack."""
    seen = set()
    for seed in range(300):
        design, _, modes = _stack(seed, 1 + seed % 5)
        seen.update(modes)
        raises = {_outcome(_rank, one)[1] is not None for one in design}
        if design.shape[1] < design.shape[2]:
            seen.add("rows < columns")
        if raises == {True, False}:
            seen.add("mixed")
        if any(m == "ill" for m in modes) and raises == {False}:
            seen.add("ill-scaled and full rank")
    assert set(MODES) | {"rows < columns", "mixed", "ill-scaled and full rank"} <= seen


def _avars(rng, size, p):
    """A stack of p x p avars: PSD, some with a zero row and column (a zero
    se), some with round-off asymmetry or a clipped negative diagonal, and
    now and then one that is not PSD (the FusionResult constructor rejects
    it)."""
    avar = np.empty((size, p, p))
    for b in range(size):
        w = rng.standard_normal((p, p + 1))
        avar[b] = w @ w.T
        kind = pick(rng, ("psd",) * 4 + ("zero", "roundoff", "negative"))
        if kind == "zero":
            j = rng.integers(p)
            avar[b, j], avar[b, :, j] = 0.0, 0.0
        elif kind == "roundoff":
            avar[b] += 1e-15 * rng.standard_normal((p, p))
            avar[b, 0, 0] = -1e-14
        elif kind == "negative":
            avar[b] -= 10.0 * np.trace(avar[b]) * np.eye(p)
    return avar


def _result_fields(result):
    return [
        getattr(result, name).tobytes() if isinstance(getattr(result, name), np.ndarray)
        else getattr(result, name)
        for name in result.__dataclass_fields__
    ]


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_each_result_of_a_stack_is_its_lone_result(seed, size):
    """_build_results on a stack gives each fit the FusionResult it gets as
    a stack of one, field by field (warnings included), and raises exactly
    when one of them raises alone; its se is sqrt(max(diag avar, 0) / n)."""
    rng = np.random.default_rng(seed)
    p, q = int(rng.integers(1, 4)), int(rng.integers(0, 4))
    ns = [int(n) for n in rng.integers(2, 5000, size=size)]
    gain, estimate = rng.standard_normal((size, p, q)), rng.standard_normal((size, p))
    avar = _avars(rng, size, p)
    warn = [] if rng.random() < 0.5 else ["ill-conditioned system (calibration): ..."]
    note = pick(rng, ("", "a note"))
    method = pick(rng, tuple(Method))

    def build(at):
        return fusion._build_results(
            method, [ns[b] for b in at], gain[at], estimate[at], avar[at], 0.9, warn, note
        )

    value, error = _outcome(build, list(range(size)))
    alone = [_outcome(build, [b]) for b in range(size)]
    errors = [one_error for _, one_error in alone if one_error is not None]
    if errors:
        assert value is None and error == errors[0]
        return
    assert error is None and len(value) == size
    for b, (got, ((want,), _)) in enumerate(zip(value, alone)):
        assert _result_fields(got) == _result_fields(want)
        se = np.sqrt(np.maximum(sym(avar[b]).diagonal(), 0.0) / ns[b])
        assert got.se.tobytes() == se.tobytes()
        zero = ["zero standard error: one-sided p set to NaN"] if (se == 0.0).any() else []
        assert got.warnings == tuple(warn + zero + ([note] if note else []))


def test_a_zero_se_in_one_result_of_a_stack_warns_in_that_result_only():
    avar = np.array([np.eye(2), np.diag([1.0, 0.0])])
    results = fusion._build_results(
        Method.EFF, [10, 10], np.zeros((2, 2, 0)), np.ones((2, 2)), avar, 0.95, []
    )
    assert results[0].warnings == ()
    assert results[1].warnings == ("zero standard error: one-sided p set to NaN",)
    assert np.isnan(results[1].p_one_sided[1]) and not np.isnan(results[1].p_one_sided[0])


def test_wald_on_a_stack_is_wald_on_each_row():
    rng = np.random.default_rng(4)
    estimate, se = rng.standard_normal((3, 4)), abs(rng.standard_normal((3, 4)))
    se[1, 2] = 0.0
    for side in ("upper", "lower", "two_sided"):
        z, p, ci = fusion._wald(estimate, se, 0.8, 0.1, side)
        assert ci.shape == (3, 4, 2)
        for r in range(3):
            one = fusion._wald(estimate[r], se[r], 0.8, 0.1, side)
            assert [a.tobytes() for a in (z[r], p[r], ci[r])] == [a.tobytes() for a in one]


# ---------------------------------------------------------------------------
# fusion._prepare on a list of datasets

TAUS = (
    FunctionalDescriptor(
        FunctionalKind.AIPW_ATE, {"outcome": "Y", "treatment": "T", "covariates": ["X", "Z"]}
    ),
    FunctionalDescriptor(FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X", "Z"]}),
    FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X"], "intercept": False}
    ),
    FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"}),
)
JOINT = FunctionalDescriptor(FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X", "Z"]})
BINDINGS = (
    (JOINT,),
    (FunctionalDescriptor(FunctionalKind.JOINT_OLS, JOINT.args, component=2),),
    tuple(
        FunctionalDescriptor(FunctionalKind.MARGINAL_OLS, {"outcome": "Y", "regressor": r})
        for r in ("X", "Z")
    ),
    (
        FunctionalDescriptor(FunctionalKind.JOINT_OLS, JOINT.args, component=1),
        FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y", "where": {"column": "T", "equals": 1.0}}),
        FunctionalDescriptor(FunctionalKind.JOINT_OLS, JOINT.args, component=0),
        FunctionalDescriptor(FunctionalKind.MARGINAL_OLS, {"outcome": "Y", "regressor": "Z"}),
    ),
)


def _dataset(rng, n, bad=None):
    """Columns X, Z, T and Y of n rows; bad="collinear" makes Z = 2 X, and
    bad="zero" makes Z zero."""
    x, z = rng.standard_normal(n), rng.standard_normal(n)
    if bad == "collinear":
        z = 2.0 * x
    elif bad == "zero":
        z = np.zeros(n)
    t = (rng.random(n) < 0.5).astype(float)
    t[:2] = 0.0, 1.0
    y = 1.0 + x - 0.5 * z + t + rng.standard_normal(n)
    return validate_dataset({"X": x, "Z": z, "T": t, "Y": y}, outcome="Y", treatment="T")


def _summary(rng, binding):
    """A summary of `binding` fitted on 500 external rows of _dataset."""
    beta, eta = evaluate_binding(_dataset(rng, 500), binding)
    return validate_summary(beta, eta.T @ eta / 500, 500, binding)


def _prepared(datas, tau, summaries):
    """fusion._prepare's inputs, or the error's (type, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return _outcome(fusion._prepare, datas, tau, summaries)


def _calibration_bytes(inputs):
    fits = [inputs.tau_fit, inputs.beta_fit]
    calib = inputs._calibration
    return [a.tobytes() for fit in fits for a in (fit.estimate, fit.influence)] + [
        getattr(calib, name).tobytes() for name in calib.__dataclass_fields__
    ]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5))
def test_prepare_on_a_list_gives_each_dataset_its_lone_inputs(seed, size):
    """Each dataset of a list gets the bytes it gets alone: every fit's
    estimate and influence and every _Calibration field. The datasets may
    carry different bindings (then fitted one binding at a time), and the
    list raises when one of them raises alone."""
    rng = np.random.default_rng(seed)
    n, tau = int(rng.integers(12, 300)), pick(rng, TAUS)
    datas = [_dataset(rng, n) for _ in range(size)]
    summaries = []
    for _ in range(size):
        own = [_summary(rng, pick(rng, BINDINGS)) for _ in range(int(rng.integers(1, 3)))]
        summaries.append(own)
    value, error = _prepared(datas, tau, summaries)
    alone = [_prepared([one], tau, [own]) for one, own in zip(datas, summaries)]
    errors = [one_error for _, one_error in alone if one_error is not None]
    if errors:
        assert value is None and error in errors
        return
    assert error is None
    for got, (want, _) in zip(value, alone):
        assert _calibration_bytes(got) == _calibration_bytes(want[0])


@pytest.mark.parametrize(
    "bad, binding, kind",
    [
        ("collinear", (JOINT,), RankDeficientDesign),
        ("zero", BINDINGS[2], DegenerateRegressor),
        ("zero", BINDINGS[3], RankDeficientDesign),
    ],
)
@pytest.mark.parametrize("at", [0, 2])
def test_a_list_with_one_failing_binding_raises_its_lone_error(bad, binding, kind, at):
    """One dataset of a list whose binding fit fails alone (a rank-deficient
    joint design, a regressor with zero second moment) makes the list raise
    that dataset's own class and message."""
    rng = np.random.default_rng(11)
    datas = [_dataset(rng, 80, bad if r == at else None) for r in range(3)]
    summaries = [[_summary(rng, binding)] for _ in datas]
    tau = TAUS[3]
    _, lone = _prepared([datas[at]], tau, [summaries[at]])
    assert lone is not None and lone[0] is kind
    assert _prepared(datas, tau, summaries) == (None, lone)
