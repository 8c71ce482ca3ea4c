"""Fusion estimators: closed-form instances, identities, limits, inference."""

import numpy as np
import pytest

from helpers import centered, mean_binding, random_spd, synth_inputs

from datafuse import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionInputs,
    cd_minimize_check,
    efficiency_bound,
    empirical_moments,
    estimate_crude,
    estimate_eff,
    estimate_int,
    estimate_knw,
    ivw_reduce,
    prepare_inputs,
    restrict_inputs,
    validate_dataset,
    validate_summary,
    wald_inference,
)
from datafuse.errors import (
    DimensionMismatch,
    NonPositiveVariance,
    ZeroStandardError,
)
from datafuse.fusion import assemble_external


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
    rng = np.random.default_rng(2)
    n = 50
    phi = centered(rng, n, 1)
    eta = centered(rng, n, 2)
    tau_fit = FunctionalFit([0.0], phi)
    beta_fit = FunctionalFit([0.0, 0.0], eta)
    cross, gram = empirical_moments(tau_fit, beta_fit)
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
    cross, gram = empirical_moments(fit, fit)
    np.testing.assert_allclose(cross, gram, atol=1e-14)
    with pytest.raises(DimensionMismatch):
        empirical_moments(fit, FunctionalFit([0.0], centered(rng, 29, 1)))


def test_assemble_external_blockdiag_scaling():
    rng = np.random.default_rng(6)
    inputs = synth_inputs(rng, n=40, p=1, q=3, splits=[2, 1])
    beta_tilde, sigma_ext = assemble_external(inputs)
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
    assert result.rho == 1.0
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
    assert estimate_int(inputs).estimate[0] == 2.0


def test_crude_exact_cancellation():
    # sigma_ext equal to gram: the crude variance equals the internal one
    rng = np.random.default_rng(8)
    n = 60
    inputs = synth_inputs(rng, n=n, p=2, q=2)
    _, gram = empirical_moments(inputs.tau_fit, inputs.beta_fit)
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
    cross, gram = empirical_moments(tau_fit, beta_fit)
    phi_var = phi.T @ phi / n
    for rho in (0.25, 1.0, 4.0):
        bound = efficiency_bound(phi_var, cross, gram, gram, rho)
        shrunk = phi_var - rho / (1.0 + rho) * cross @ np.linalg.solve(gram, cross.T)
        np.testing.assert_allclose(bound, shrunk, atol=1e-10)


def test_bound_vanishing_rho_recovers_internal_variance():
    rng = np.random.default_rng(18)
    inputs = synth_inputs(rng, n=50, p=2, q=2)
    cross, gram = empirical_moments(inputs.tau_fit, inputs.beta_fit)
    phi_var = inputs.tau_fit.influence.T @ inputs.tau_fit.influence / inputs.n
    bound = efficiency_bound(phi_var, cross, gram, np.eye(2), 1e-12)
    np.testing.assert_allclose(bound, phi_var, atol=1e-8)
    with pytest.raises(DimensionMismatch):
        efficiency_bound(phi_var, cross, gram, np.eye(2), 0.0)


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
    with pytest.raises(NonPositiveVariance):
        ivw_reduce(1.0, 0.0, 2.0, 1.0)
    with pytest.raises(NonPositiveVariance):
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


def test_permutation_equivariance():
    rng = np.random.default_rng(28)
    n = 40
    phi = centered(rng, n, 1)
    eta = centered(rng, n, 3)
    beta_int = rng.standard_normal(3)
    beta = rng.standard_normal(3)
    sigma1 = random_spd(rng, 3)
    m = 90
    perm = np.array([2, 0, 1])
    base = FusionInputs(
        tau_fit=FunctionalFit([0.7], phi),
        beta_fit=FunctionalFit(beta_int, eta),
        summaries=(validate_summary(beta, sigma1, m, mean_binding(3)),),
    )
    shuffled = FusionInputs(
        tau_fit=FunctionalFit([0.7], phi),
        beta_fit=FunctionalFit(beta_int[perm], eta[:, perm]),
        summaries=(
            validate_summary(
                beta[perm], sigma1[np.ix_(perm, perm)], m, mean_binding(3)
            ),
        ),
    )
    for factory in (estimate_eff, estimate_crude):
        a = factory(base)
        b = factory(shuffled)
        np.testing.assert_allclose(a.estimate, b.estimate, atol=1e-12)
        np.testing.assert_allclose(a.avar, b.avar, atol=1e-12)


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
    from dataclasses import replace

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


def test_restrict_to_all_coordinates_is_identity():
    rng = np.random.default_rng(34)
    inputs = synth_inputs(rng, n=45, p=2, q=3, splits=[2, 1])
    full = restrict_inputs(inputs, (0, 1, 2))
    a = estimate_eff(inputs)
    b = estimate_eff(full)
    np.testing.assert_allclose(a.estimate, b.estimate, atol=1e-12)
    np.testing.assert_allclose(a.avar, b.avar, atol=1e-12)


def test_omega_override_changes_external_covariance():
    inputs = _semi_supervised_inputs()
    omega = np.array([[2.5]])
    overridden = prepare_inputs(
        inputs.data, inputs.tau, list(inputs.summaries), omega_override=omega
    )
    result = estimate_eff(overridden)
    assert result.working_covariance
    # gain = 1.5 / (2.5/1 + 1.25)
    expected = 2.5 - (1.5 / 3.75) * 0.5
    assert abs(result.estimate[0] - expected) < 1e-12
    with pytest.raises(DimensionMismatch):
        FusionInputs(
            tau_fit=inputs.tau_fit,
            beta_fit=inputs.beta_fit,
            summaries=inputs.summaries,
            omega_override=np.eye(2),
        )
