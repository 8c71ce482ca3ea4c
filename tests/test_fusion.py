"""Fusion estimators: closed-form instances, identities, limits, inference."""

import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import centered, mean_binding, random_spd, stack_of_one, synth_inputs
from oracles import cd_minimize_check, influence_moments, ivw_reduce

from datafuse import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionInputs,
    cv_tune,
    efficiency_bound,
    estimate_crude,
    estimate_dbs,
    estimate_eff,
    estimate_int,
    estimate_knw,
    estimate_orc,
    prepare_inputs,
    restrict_inputs,
    select_unbiased,
    validate_dataset,
    validate_summary,
    wald_inference,
    whiten,
)
from datafuse._linalg import MEAN_ZERO_TOL
from datafuse.errors import (
    DimensionMismatch,
    MalformedInput,
    NonFiniteValue,
    ZeroStandardError,
)
from datafuse.fusion import _external


def _semi_supervised_inputs(beta_tilde=1.0, sigma1=1.25, m=4):
    """Semi-supervised mean instance: internal (X, Y) pairs plus an external
    estimate of E(X)."""
    data = validate_dataset(
        {"X": [0.0, 1.0, 2.0, 3.0], "Y": [1.0, 2.0, 2.0, 5.0]}, outcome="Y"
    )
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    summary = validate_summary(
        [beta_tilde],
        [[sigma1]],
        m,
        [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})],
    )
    return prepare_inputs(data, tau, [summary])


# ---------------------------------------------------------------------------
# moments


def test_empirical_moments_brute_force():
    # the calibration's moments against a loop over the rows
    rng = np.random.default_rng(2)
    n = 50
    phi = centered(rng, n, 1)
    eta = centered(rng, n, 2)
    summary = validate_summary(np.zeros(2), np.eye(2), 100, mean_binding(2))
    inputs = FusionInputs(FunctionalFit([0.0], phi), FunctionalFit([0.0, 0.0], eta), (summary,))
    cross, gram = inputs._calibration.cross, inputs._calibration.gram
    cross_brute = np.zeros((1, 2))
    gram_brute = np.zeros((2, 2))
    for i in range(n):
        cross_brute += np.outer(phi[i], eta[i]) / n
        gram_brute += np.outer(eta[i], eta[i]) / n
    np.testing.assert_allclose(cross, cross_brute, atol=1e-12)
    np.testing.assert_allclose(gram, gram_brute, atol=1e-12)


def test_empirical_moments_phi_equals_eta():
    rng = np.random.default_rng(4)
    phi = centered(rng, 30, 2)
    fit = FunctionalFit([0.0, 0.0], phi)
    summary = validate_summary(np.zeros(2), np.eye(2), 100, mean_binding(2))
    calib = FusionInputs(fit, fit, (summary,))._calibration
    np.testing.assert_allclose(calib.cross, calib.gram, atol=1e-14)
    np.testing.assert_allclose(calib.phi_var, calib.gram, atol=1e-14)


def test_fusion_inputs_rejects_fits_of_other_rows_or_coordinates():
    rng = np.random.default_rng(4)
    fit = FunctionalFit([0.0, 0.0], centered(rng, 30, 2))
    summary = validate_summary(np.zeros(2), np.eye(2), 100, mean_binding(2))
    with pytest.raises(DimensionMismatch, match="rows"):
        FusionInputs(fit, FunctionalFit([0.0, 0.0], centered(rng, 29, 2)), (summary,))
    with pytest.raises(DimensionMismatch, match="coordinates"):
        FusionInputs(fit, FunctionalFit([0.0], centered(rng, 30, 1)), (summary,))


# ---------------------------------------------------------------------------
# the centering check, where influence enters a calibration

ROLES = ("tau", "beta")


def _calibrate(influence, role):
    """FusionInputs with `influence` as the influence of its target fit (role
    "tau", no summary) or of its binding fit (role "beta", one summary
    coordinate per column)."""
    influence = np.asarray(influence, dtype=float)
    n, q = influence.shape
    fit = FunctionalFit(np.ones(q), influence, label=role)
    if role == "tau":
        return FusionInputs(fit, FunctionalFit(np.zeros(0), np.zeros((n, 0))), ())
    summary = validate_summary(np.zeros(q), np.eye(q), 100, mean_binding(q))
    return FusionInputs(FunctionalFit([0.0], np.zeros((n, 1))), fit, (summary,))


def test_fusion_inputs_reject_uncentered_influence():
    good = FunctionalFit([1.0], np.array([[-1.0], [0.0], [1.0]]))
    assert good.n == 3 and good.p == 1
    # built without complaint: the check is made where the fit is calibrated
    bad = FunctionalFit([1.0], np.array([[1.0], [2.0], [3.0]]))
    for role in ROLES:
        _calibrate(good.influence, role)
        with pytest.raises(DimensionMismatch, match="not mean-zero"):
            _calibrate(bad.influence, role)


def _two_pass_check(estimate, influence):
    """The centering check as np.mean and np.std compute it: the error type
    it raises (None if it passes) and each column's distance from its
    boundary, relative to that boundary."""
    with np.errstate(over="ignore", invalid="ignore"):
        squares = np.sum(influence * influence, axis=0)
    if not np.all(np.isfinite(estimate)) or not np.all(np.isfinite(squares)):
        return NonFiniteValue, None
    with np.errstate(over="ignore", invalid="ignore"):
        means, stds = influence.mean(axis=0), influence.std(axis=0)
        bound = MEAN_ZERO_TOL * (stds + 1.0)
        distance = np.abs(np.abs(means) - bound) / bound
    return (DimensionMismatch if np.any(np.abs(means) > bound) else None), distance


@st.composite
def _influence_columns(draw):
    n = draw(st.integers(1, 40))
    q = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = rng.standard_normal((n, q)) * 10.0 ** draw(st.floats(-8.0, 8.0))
    cols -= cols.mean(axis=0)
    kind = draw(st.sampled_from(["centered", "boundary", "offset", "huge", "non-finite"]))
    bound = MEAN_ZERO_TOL * (cols.std(axis=0) + 1.0)
    if kind == "boundary":
        cols += bound * draw(st.floats(0.5, 1.5)) * rng.choice([-1.0, 1.0], size=q)
    elif kind == "offset":
        cols += 10.0 ** draw(st.floats(-12.0, 12.0)) * rng.choice([-1.0, 1.0], size=q)
    elif kind == "huge":
        cols[rng.integers(n), rng.integers(q)] = draw(st.sampled_from([1e155, -1e200, 1.7e308]))
    elif kind == "non-finite":
        cols[rng.integers(n), rng.integers(q)] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return cols


@settings(max_examples=400, deadline=None)
@given(influence=_influence_columns())
def test_centering_check_decides_as_the_two_pass_check(influence):
    # a column sum and the diagonal of the influence's second moments give
    # the decision of np.mean and np.std except within round-off of the
    # boundary; non-finite values (where the fit is built) and second
    # moments that overflow are rejected as non-finite, with no warning
    expected, distance = _two_pass_check(np.ones(influence.shape[1]), influence)
    for role in ROLES:
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _calibrate(influence, role)
            outcome = None
        except (DimensionMismatch, NonFiniteValue) as exc:
            outcome = type(exc)
        if outcome is not expected:
            assert expected is not NonFiniteValue and outcome is not NonFiniteValue
            assert np.min(distance) < 1e-6


def test_centering_check_examples():
    for role in ROLES:
        # a single row passes only if it is within the tolerance of zero
        _calibrate(np.array([[0.5e-8]]), role)
        with pytest.raises(DimensionMismatch):
            _calibrate(np.array([[2e-8]]), role)
        # a large common offset is no longer hidden by cancellation
        with pytest.raises(DimensionMismatch):
            _calibrate(np.array([[1e9 + 1.0], [1e9 - 1.0]]), role)
        # squares overflow: rejected as non-finite, whatever the means
        for influence in ([[1e200], [-1e200]], [[1e300], [1e300], [-1e300]], [[1.7e308]] * 2):
            with pytest.raises(NonFiniteValue):
                _calibrate(np.array(influence), role)


def test_assemble_external_blockdiag_scaling():
    rng = np.random.default_rng(6)
    inputs = synth_inputs(rng, n=40, p=1, q=3, splits=[2, 1])
    beta_tilde, sigma_ext = stack_of_one(_external, inputs.summaries, np.array(inputs.n))
    s0, s1 = inputs.summaries
    np.testing.assert_array_equal(beta_tilde, np.concatenate([s0.beta, s1.beta]))
    np.testing.assert_allclose(
        sigma_ext[:2, :2], s0.sigma1 / (s0.m / 40), atol=1e-12
    )
    np.testing.assert_allclose(
        sigma_ext[2:, 2:], s1.sigma1 / (s1.m / 40), atol=1e-12
    )
    # cross-source block scaled by the geometric mean of the two ratios
    assert sigma_ext[0, 2] == 0.0 and sigma_ext[2, 1] == 0.0


# ---------------------------------------------------------------------------
# closed-form and trivial identities


def test_semi_supervised_closed_form():
    result = estimate_eff(_semi_supervised_inputs())
    assert abs(result.estimate[0] - 2.2) < 1e-12
    assert abs(result.avar[0, 0] - 1.35) < 1e-12
    # gain = cross / (sigma1/rho + gram) = 1.5 / 2.5
    assert abs(result.gain[0, 0] - 0.6) < 1e-12


def test_eff_no_discrepancy_returns_internal_estimate():
    inputs = _semi_supervised_inputs(beta_tilde=1.5)  # internal mean of X is exactly 1.5
    result = estimate_eff(inputs)
    assert result.estimate[0] == estimate_int(inputs).estimate[0] == 2.5


def test_eff_zero_cross_returns_internal():
    # phi orthogonal to eta by construction: estimate and avar collapse to INT
    phi = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    eta = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    inputs = FusionInputs(
        tau_fit=FunctionalFit([3.0], phi),
        beta_fit=FunctionalFit([0.5], eta),
        summaries=(validate_summary([0.9], [[1.0]], 8, mean_binding(1)),),
    )
    result = estimate_eff(inputs)
    internal = estimate_int(inputs)
    assert result.estimate[0] == internal.estimate[0]
    np.testing.assert_allclose(result.avar, internal.avar, atol=1e-14)


def test_eff_requires_summary():
    data = validate_dataset({"Y": [1.0, 2.0, 3.0]}, outcome="Y")
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    inputs = prepare_inputs(data, tau, [])
    with pytest.raises(DimensionMismatch):
        estimate_eff(inputs)
    with pytest.raises(DimensionMismatch, match="estimate_crude"):
        estimate_crude(inputs)
    assert estimate_int(inputs).estimate[0] == 2.0


_CALIBRATION_READERS = {
    "estimate_int": (estimate_int, ()),
    "estimate_eff": (estimate_eff, ()),
    "estimate_crude": (estimate_crude, ()),
    "estimate_knw": (estimate_knw, ([1.0],)),
    "estimate_orc": (estimate_orc, ((),)),
    "estimate_dbs": (estimate_dbs, ()),
    "select_unbiased": (select_unbiased, (1.0,)),
    "whiten": (whiten, ()),
    "cv_tune": (cv_tune, ([1.0],)),
    "restrict_inputs": (restrict_inputs, ((),)),
}


@pytest.mark.parametrize("bad", [None, "ab", 1.5, {}], ids=["None", "str", "float", "dict"])
@pytest.mark.parametrize("name", sorted(_CALIBRATION_READERS))
def test_functions_of_fusion_inputs_reject_anything_else(name, bad):
    # each raised a raw AttributeError on its first read of the inputs
    fn, args = _CALIBRATION_READERS[name]
    with pytest.raises(MalformedInput, match="FusionInputs"):
        fn(bad, *args)


def _fit_and_summary():
    fit = FunctionalFit([0.0], np.array([[1.0], [-1.0]]))
    return fit, validate_summary([0.0], [[1.0]], 10, mean_binding(1))


@pytest.mark.parametrize(
    "field, bad",
    [
        ("tau_fit", None),
        ("beta_fit", "ab"),
        ("summaries", None),
        ("summaries", "ab"),
        ("summaries", [None]),
        ("data", 1.5),
        ("tau", {}),
    ],
    ids=["tau-fit-None", "beta-fit-str", "summaries-None", "summaries-str", "summary-None",
         "data-float", "tau-dict"],
)
def test_fusion_inputs_reject_arguments_of_the_wrong_type(field, bad):
    # each raised a raw AttributeError or TypeError on its first read
    fit, summary = _fit_and_summary()
    args = dict(tau_fit=fit, beta_fit=fit, summaries=(summary,))
    FusionInputs(**args)
    with pytest.raises(MalformedInput, match=field.split("_")[0]):
        FusionInputs(**dict(args, **{field: bad}))
    with pytest.raises(MalformedInput, match="tau_fit"):
        FusionInputs(None, None, ())


@pytest.mark.parametrize(
    "position, bad",
    [(0, None), (1, None), (2, [None]), (2, "ab"), (2, None), (1, "mean")],
    ids=["data-None", "tau-None", "summary-None", "summaries-str", "summaries-None", "tau-str"],
)
def test_prepare_inputs_rejects_arguments_of_the_wrong_type(position, bad):
    # data or tau of None and a summary of None or "a" raised AttributeError,
    # summaries of None TypeError
    inputs = _semi_supervised_inputs()
    args = [inputs.data, inputs.tau, list(inputs.summaries)]
    args[position] = bad
    with pytest.raises(MalformedInput, match=("data", "tau", "summaries")[position]):
        prepare_inputs(*args)


def test_crude_exact_cancellation():
    # sigma_ext equal to gram: the crude variance equals the internal one
    rng = np.random.default_rng(8)
    n = 60
    inputs = synth_inputs(rng, n=n, p=2, q=2)
    _, _, gram = influence_moments(inputs.tau_fit, inputs.beta_fit)
    s = inputs.summaries[0]
    rho = s.m / n
    match = validate_summary(s.beta, gram * rho, s.m, s.binding)
    tuned = FusionInputs(
        tau_fit=inputs.tau_fit, beta_fit=inputs.beta_fit, summaries=(match,)
    )
    crd = estimate_crude(tuned)
    internal = estimate_int(tuned)
    np.testing.assert_allclose(crd.avar, internal.avar, atol=1e-10)


def test_crude_large_rho_approaches_knw_variance():
    rng = np.random.default_rng(9)
    inputs = synth_inputs(rng, n=50, p=1, q=2)
    s = inputs.summaries[0]
    huge_m = validate_summary(s.beta, s.sigma1, 10**9, s.binding)
    tuned = FusionInputs(
        tau_fit=inputs.tau_fit, beta_fit=inputs.beta_fit, summaries=(huge_m,)
    )
    crd = estimate_crude(tuned)
    knw = estimate_knw(tuned, s.beta)
    np.testing.assert_allclose(crd.avar, knw.avar, atol=1e-5)


def test_crude_mean_case_closed_form():
    # tau = mean(Y), beta = mean(X), external variance matching var(X):
    # avar_CRD - avar_INT = (1/rho - 1) cov(X,Y)^2 / var(X)
    rng = np.random.default_rng(10)
    n = 80
    x = rng.standard_normal(n)
    y = 0.8 * x + rng.standard_normal(n)
    data = validate_dataset({"X": x, "Y": y}, outcome="Y")
    tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
    var_x = float(np.var(x))
    rho = 0.5
    summary = validate_summary(
        [0.0],
        [[var_x]],
        n // 2,
        [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})],
    )
    inputs = prepare_inputs(data, tau, [summary])
    crd = estimate_crude(inputs)
    internal = estimate_int(inputs)
    cov_xy = float(np.mean((x - x.mean()) * (y - y.mean())))
    expected_gap = (1.0 / rho - 1.0) * cov_xy**2 / var_x
    assert abs((crd.avar[0, 0] - internal.avar[0, 0]) - expected_gap) < 1e-10
    assert crd.avar[0, 0] > internal.avar[0, 0]


def test_knw_identities():
    rng = np.random.default_rng(12)
    inputs = synth_inputs(rng, n=40, p=1, q=2)
    same = estimate_knw(inputs, inputs.beta_fit.estimate)
    assert same.estimate[0] == inputs.tau_fit.estimate[0]
    with pytest.raises(DimensionMismatch):
        estimate_knw(inputs, np.zeros(3))
    phi = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    eta = np.array([[1.0], [-1.0], [1.0], [-1.0]])
    orth = FusionInputs(
        tau_fit=FunctionalFit([3.0], phi),
        beta_fit=FunctionalFit([0.5], eta),
        summaries=(validate_summary([0.9], [[1.0]], 8, mean_binding(1)),),
    )
    knw = estimate_knw(orth, [0.2])
    internal = estimate_int(orth)
    assert knw.estimate[0] == internal.estimate[0]
    np.testing.assert_allclose(knw.avar, internal.avar, atol=1e-14)


@pytest.mark.parametrize(
    "beta_true, error",
    [
        ([np.nan, 1.0], MalformedInput),
        ([np.inf, 1.0], MalformedInput),
        (["a", 1.0], MalformedInput),
        ([[1.0], [2.0]], DimensionMismatch),
        ([np.ones((2, 2)), np.ones((2, 3))], MalformedInput),
    ],
    ids=["nan", "inf", "string", "column", "ragged-arrays"],
)
def test_knw_checks_beta_true(beta_true, error):
    # unchecked, a NaN or inf gave a non-finite estimate, a string raised
    # numpy's ValueError and a q x 1 column gave a q x q "estimate"
    inputs = synth_inputs(np.random.default_rng(12), n=40, p=1, q=2)
    with pytest.raises(error):
        estimate_knw(inputs, beta_true)


@pytest.mark.parametrize(
    "values", [[True, 1.0], [0.0, np.True_], np.array([True, False])],
    ids=["bool-in-list", "numpy-bool-in-list", "bool-array"],
)
def test_bools_are_not_numbers_inside_a_list_either(values):
    # np.asarray cast [True, 1.0] to floats, while a bool array was rejected
    inputs = synth_inputs(np.random.default_rng(12), n=40, p=1, q=2)
    with pytest.raises(MalformedInput):
        estimate_knw(inputs, values)
    with pytest.raises(MalformedInput):
        wald_inference(_inference_result([1.0, 2.0], [0.5, 0.5]), null=values)


def test_wald_inference_rejects_what_is_not_a_result():
    # None raised a raw AttributeError on its first read
    with pytest.raises(MalformedInput, match="^result must be a FusionResult"):
        wald_inference(None)


@pytest.mark.parametrize("level", ["ab", b"x", 10**400], ids=["str", "bytes", "huge-int"])
def test_level_must_be_a_number(level):
    # a string level was compared with `<` (TypeError) or read by float()
    # (ValueError), and float() overflowed on 10**400 (OverflowError)
    inputs = synth_inputs(np.random.default_rng(13), n=40, p=1, q=2)
    with pytest.raises(MalformedInput):
        estimate_eff(inputs, level)
    with pytest.raises(MalformedInput):
        wald_inference(estimate_int(inputs), 0.0, "upper", level)


def test_eff_avar_never_exceeds_internal():
    rng = np.random.default_rng(14)
    for _ in range(50):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        inputs = synth_inputs(rng, n=int(rng.integers(30, 80)), p=p, q=q)
        diff = estimate_int(inputs).avar - estimate_eff(inputs).avar
        assert np.linalg.eigvalsh((diff + diff.T) / 2.0).min() > -1e-8


# ---------------------------------------------------------------------------
# bound


def test_bound_identity_when_sigma_matches_gram():
    rng = np.random.default_rng(16)
    n = 60
    phi = centered(rng, n, 2)
    eta = centered(rng, n, 2)
    tau_fit = FunctionalFit(np.zeros(2), phi)
    beta_fit = FunctionalFit(np.zeros(2), eta)
    phi_var, cross, gram = influence_moments(tau_fit, beta_fit)
    for rho in (0.25, 1.0, 4.0):
        bound = efficiency_bound(phi_var, cross, gram, gram, rho)
        shrunk = phi_var - rho / (1.0 + rho) * cross @ np.linalg.solve(gram, cross.T)
        np.testing.assert_allclose(bound, shrunk, atol=1e-10)


def test_bound_vanishing_rho_recovers_internal_variance():
    rng = np.random.default_rng(18)
    inputs = synth_inputs(rng, n=50, p=2, q=2)
    phi_var, cross, gram = influence_moments(inputs.tau_fit, inputs.beta_fit)
    bound = efficiency_bound(phi_var, cross, gram, np.eye(2), 1e-12)
    np.testing.assert_allclose(bound, phi_var, atol=1e-8)
    with pytest.raises(DimensionMismatch):
        efficiency_bound(phi_var, cross, gram, np.eye(2), 0.0)


@pytest.mark.parametrize(
    "args",
    [
        (np.eye(2), np.ones((3, 1)), 1.0, 1.0, 1.0),
        (np.eye(2), np.ones((2, 1)), np.eye(2), 1.0, 1.0),
        (1.0, 0.5, 1.0, np.eye(2), 1.0),
        (np.eye(2), np.ones((2, 2, 1)), 1.0, 1.0, 1.0),
    ],
)
def test_bound_rejects_inconsistent_shapes(args):
    # the first used to raise numpy's own ValueError
    with pytest.raises(DimensionMismatch):
        efficiency_bound(*args)


@pytest.mark.parametrize("position", range(4))
def test_bound_rejects_non_finite_entries(position):
    # a NaN used to give a NaN bound with no error
    args = [np.eye(2), np.full((2, 1), 0.5), np.eye(1), np.eye(1)]
    args[position].flat[0] = np.nan
    with pytest.raises(NonFiniteValue):
        efficiency_bound(*args, 1.0)


def test_bound_psd_ordering_and_sigma_monotonicity():
    rng = np.random.default_rng(20)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        n = int(rng.integers(20, 60))
        phi = centered(rng, n, p)
        eta = centered(rng, n, q)
        cross = phi.T @ eta / n
        gram = eta.T @ eta / n
        phi_var = phi.T @ phi / n
        sigma1 = random_spd(rng, q)
        rho = float(rng.uniform(0.2, 5.0))
        bound = efficiency_bound(phi_var, cross, gram, sigma1, rho)
        gap = phi_var - bound
        assert np.linalg.eigvalsh((gap + gap.T) / 2.0).min() > -1e-8
        # inflating Sigma_1 weakens the external information: bound grows
        wider = efficiency_bound(phi_var, cross, gram, 3.0 * sigma1, rho)
        step = wider - bound
        assert np.linalg.eigvalsh((step + step.T) / 2.0).min() > -1e-8


# ---------------------------------------------------------------------------
# minimization identity, IVW, multi-source


def test_cd_minimize_matches_eff_on_random_instances():
    rng = np.random.default_rng(22)
    for _ in range(100):
        p = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        inputs = synth_inputs(rng, n=int(rng.integers(25, 70)), p=p, q=q)
        eff = estimate_eff(inputs)
        tau_part, beta_part = cd_minimize_check(inputs)
        np.testing.assert_allclose(tau_part, eff.estimate, atol=1e-8)
        assert beta_part.shape == (q,)


def test_ivw_identity_when_binding_equals_target():
    rng = np.random.default_rng(24)
    for _ in range(50):
        n = int(rng.integers(20, 100))
        y = rng.standard_normal(n) * rng.uniform(0.5, 2.0) + rng.uniform(-1, 1)
        data = validate_dataset({"Y": y}, outcome="Y")
        tau = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
        m = int(rng.integers(10, 200))
        beta_tilde = float(rng.uniform(-1, 1))
        sigma1 = float(rng.uniform(0.2, 3.0))
        summary = validate_summary([beta_tilde], [[sigma1]], m, [tau])
        inputs = prepare_inputs(data, tau, [summary])
        eff = estimate_eff(inputs)
        var_int = float(np.var(y)) / n
        via_ivw = ivw_reduce(float(y.mean()), var_int, beta_tilde, sigma1 / m)
        assert abs(eff.estimate[0] - via_ivw) < 1e-10


def test_ivw_rejects_bad_variances():
    with pytest.raises(ValueError):
        ivw_reduce(1.0, 0.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        ivw_reduce(1.0, 1.0, 2.0, -1.0)
    assert ivw_reduce(1.0, 1.0, 3.0, 1.0) == 2.0


def test_multi_source_split_equals_merged():
    rng = np.random.default_rng(26)
    n = 50
    phi = centered(rng, n, 1)
    eta = centered(rng, n, 2)
    tau_fit = FunctionalFit([1.0], phi)
    beta_fit = FunctionalFit([0.3, -0.2], eta)
    beta = np.array([0.5, 0.1])
    diag = np.diag([1.5, 2.5])
    m = 120
    merged = FusionInputs(
        tau_fit=tau_fit,
        beta_fit=beta_fit,
        summaries=(validate_summary(beta, diag, m, mean_binding(2)),),
    )
    split = FusionInputs(
        tau_fit=tau_fit,
        beta_fit=beta_fit,
        summaries=(
            validate_summary(beta[:1], diag[:1, :1], m, mean_binding(1, "a")),
            validate_summary(beta[1:], diag[1:, 1:], m, mean_binding(1, "b")),
        ),
    )
    one = estimate_eff(merged)
    two = estimate_eff(split)
    np.testing.assert_allclose(one.estimate, two.estimate, atol=1e-12)
    np.testing.assert_allclose(one.avar, two.avar, atol=1e-12)


@st.composite
def _reordered_summaries(draw):
    """Synthetic inputs plus the same instance with its sources reordered and
    the coordinates within each source permuted."""
    splits = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = synth_inputs(rng, n=draw(st.integers(20, 60)), p=draw(st.integers(1, 2)),
                          q=sum(splits), splits=splits)
    starts = np.cumsum([0] + splits)
    coords, summaries = [], []
    for i in draw(st.permutations(range(len(splits)))):
        s = inputs.summaries[i]
        local = list(draw(st.permutations(range(s.q))))
        coords.extend(starts[i] + j for j in local)
        summaries.append(validate_summary(
            s.beta[local], s.sigma1[np.ix_(local, local)], s.m,
            [s.binding[j] for j in local], s.source_id,
        ))
    beta = inputs.beta_fit
    shuffled = FusionInputs(
        tau_fit=inputs.tau_fit,
        beta_fit=FunctionalFit(beta.estimate[coords], beta.influence[:, coords]),
        summaries=tuple(summaries),
    )
    return inputs, shuffled


@settings(max_examples=100, deadline=None)
@given(_reordered_summaries())
def test_permutation_equivariance(instance):
    base, shuffled = instance
    for factory in (estimate_eff, estimate_crude, estimate_int):
        a = factory(base)
        b = factory(shuffled)
        np.testing.assert_allclose(a.estimate, b.estimate, rtol=0, atol=1e-12)
        np.testing.assert_allclose(a.avar, b.avar, rtol=0, atol=1e-12)


def test_limits_in_external_precision():
    rng = np.random.default_rng(30)
    inputs = synth_inputs(rng, n=60, p=1, q=2)
    s = inputs.summaries[0]

    def rescale(factor):
        scaled = validate_summary(s.beta, s.sigma1 * factor, s.m, s.binding)
        return FusionInputs(
            tau_fit=inputs.tau_fit, beta_fit=inputs.beta_fit, summaries=(scaled,)
        )

    # vanishing external noise: the fused estimator meets the crude one
    sharp = rescale(1e-12)
    eff0 = estimate_eff(sharp)
    crd0 = estimate_crude(sharp)
    np.testing.assert_allclose(eff0.estimate, crd0.estimate, atol=1e-6)
    # useless external information: the fused estimator collapses to INT
    blurred = rescale(1e12)
    effi = estimate_eff(blurred)
    np.testing.assert_allclose(
        effi.estimate, estimate_int(inputs).estimate, atol=1e-6
    )
    np.testing.assert_allclose(
        effi.avar, estimate_int(inputs).avar, atol=1e-6
    )


# ---------------------------------------------------------------------------
# inference


def _inference_result(estimate, se):
    inputs = _semi_supervised_inputs()
    base = estimate_int(inputs)
    est = np.asarray(estimate, dtype=float)
    se_arr = np.asarray(se, dtype=float)
    return replace(
        base,
        estimate=est,
        se=se_arr,
        ci=np.column_stack([est - 1.96 * se_arr, est + 1.96 * se_arr]),
    )


def test_wald_frozen_p_value():
    result = _inference_result([0.0628], [0.0394])
    z, p, ci = wald_inference(result, null=0.0, side="upper")
    assert abs(z[0] - 1.5939086294416243) < 1e-12
    assert abs(p[0] - 0.0554782506758585) < 1e-10
    z2, p2, _ = wald_inference(result, side="lower")
    assert abs(p2[0] - (1.0 - p[0])) < 1e-12
    _, p3, _ = wald_inference(result, side="two_sided")
    assert abs(p3[0] - 2.0 * p[0]) < 1e-12
    assert ci.shape == (1, 2) and ci[0, 0] < 0.0628 < ci[0, 1]


def test_wald_nonzero_null_and_level():
    result = _inference_result([1.0], [0.5])
    z, _, ci = wald_inference(result, null=1.0, side="two_sided", level=0.9)
    assert z[0] == 0.0
    lo, hi = ci[0]
    # 90% interval half-width = 1.6448536... * 0.5
    assert abs((hi - lo) / 2.0 - 0.8224268134757359) < 1e-10


def test_wald_errors():
    result = _inference_result([1.0], [0.0])
    with pytest.raises(ZeroStandardError):
        wald_inference(result)
    with pytest.raises(DimensionMismatch):
        wald_inference(_inference_result([1.0], [0.5]), side="both")
    # an array side raised numpy's ambiguous-truth ValueError
    with pytest.raises(DimensionMismatch, match="side must be upper/lower/two_sided"):
        wald_inference(_inference_result([1.0], [0.5]), side=np.array([[1, 2]]))


@pytest.mark.parametrize(
    "null, error",
    [
        ([0.0, 1.0, 2.0], DimensionMismatch),
        ([[0.0], [1.0]], DimensionMismatch),
        # ragged lists stack as an object array of two lists, whose entries
        # _real rejects as not numbers: this case does not reach the
        # ragged-nesting guard of _finite_array
        ([[0.0], [1.0, 2.0]], MalformedInput),
        # numpy cannot stack these even as objects: the ragged-nesting guard
        ([np.ones((2, 2)), np.ones((2, 3))], MalformedInput),
    ],
    ids=["too-long", "column", "list-entries", "ragged-arrays"],
)
def test_wald_null_must_be_numbers_that_broadcast_to_the_estimate(null, error):
    # numpy's ValueError, from np.broadcast_to or (ragged) np.asarray
    with pytest.raises(error):
        wald_inference(_inference_result([1.0, 2.0], [0.5, 0.5]), null=null)


def test_zero_variance_fit_flags_warning():
    # a perfectly fit target yields zero se and a NaN one-sided p, flagged
    x = np.array([1.0, 2.0, 3.0, 4.0])
    data = validate_dataset({"Y": 2.0 * x, "X": x}, outcome="Y")
    tau = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X"], "intercept": False}
    )
    result = estimate_int(prepare_inputs(data, tau, []))
    assert result.se[0] == 0.0
    assert np.isnan(result.p_one_sided[0])
    assert any("zero standard error" in w for w in result.warnings)


# ---------------------------------------------------------------------------
# restriction and overrides


def test_restrict_inputs_two_sources():
    rng = np.random.default_rng(32)
    inputs = synth_inputs(rng, n=45, p=1, q=3, splits=[2, 1])
    kept = restrict_inputs(inputs, (0, 2))
    assert kept.q == 2
    assert len(kept.summaries) == 2
    np.testing.assert_array_equal(
        kept.beta_fit.estimate, inputs.beta_fit.estimate[[0, 2]]
    )
    np.testing.assert_array_equal(
        kept.summaries[0].beta, inputs.summaries[0].beta[:1]
    )
    np.testing.assert_array_equal(
        kept.summaries[0].sigma1, inputs.summaries[0].sigma1[:1, :1]
    )
    # dropping every coordinate of the second source removes it
    only_first = restrict_inputs(inputs, (0, 1))
    assert len(only_first.summaries) == 1
    with pytest.raises(DimensionMismatch):
        restrict_inputs(inputs, (0, 3))
    with pytest.raises(DimensionMismatch):
        restrict_inputs(inputs, (0, 0))


def test_restrict_inputs_slices_bindings_by_component():
    # one summary coordinate per (descriptor, coefficient) pair: a joint fit
    # gives one per coefficient, a mean one, and a descriptor that already
    # reports one component keeps it
    rng = np.random.default_rng(35)
    a, x = rng.standard_normal(40), rng.standard_normal(40)
    data = validate_dataset({"Y": a + rng.standard_normal(40), "A": a, "X": x})
    joint = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["A"], "intercept": True}
    )
    mean = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})
    joint0, joint1 = (replace(joint, component=j) for j in (0, 1))
    summaries = [
        validate_summary(np.zeros(3), np.eye(3), 100, [joint, mean]),
        validate_summary([0.0], [[1.0]], 100, [joint1]),
    ]
    inputs = prepare_inputs(data, mean, summaries)
    kept = restrict_inputs(inputs, (0, 1, 2, 3))
    assert [s.binding for s in kept.summaries] == [
        (joint0, joint1, replace(mean, component=0)),
        (joint1,),
    ]
    kept = restrict_inputs(inputs, (1, 3))
    assert [s.binding for s in kept.summaries] == [
        (joint1,),
        (joint1,),
    ]
    np.testing.assert_array_equal(kept.beta_fit.estimate, inputs.beta_fit.estimate[[1, 3]])


def test_restrict_to_all_coordinates_is_identity():
    rng = np.random.default_rng(34)
    inputs = synth_inputs(rng, n=45, p=2, q=3, splits=[2, 1])
    full = restrict_inputs(inputs, (0, 1, 2))
    a = estimate_eff(inputs)
    b = estimate_eff(full)
    np.testing.assert_allclose(a.estimate, b.estimate, atol=1e-12)
    np.testing.assert_allclose(a.avar, b.avar, atol=1e-12)
