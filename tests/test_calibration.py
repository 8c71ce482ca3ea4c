"""EFF on a coordinate subset, read from the calibration of the full inputs,
against the independent route through restrict_inputs, and the structural
claims of the paper as properties over random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mean_binding, random_spd, synth_inputs
from oracles import external_covariance, influence_moments

from datafuse import (
    FunctionalDescriptor,
    FunctionalKind,
    FusionInputs,
    Method,
    estimate_crude,
    estimate_eff,
    estimate_int,
    estimate_orc,
    prepare_inputs,
    restrict_inputs,
    validate_dataset,
    validate_summary,
)
from datafuse._linalg import sym
from datafuse.fusion import _fused

TOL = 1e-12


@st.composite
def _instances(draw):
    """(inputs, keep): 1-3 sources of 1-2 coordinates each and a random subset."""
    splits = draw(st.lists(st.integers(1, 2), min_size=1, max_size=3))
    q = sum(splits)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inputs = synth_inputs(rng, n=draw(st.integers(q + 10, 120)), p=draw(st.integers(1, 3)),
                          q=q, splits=splits)
    keep = [j for j in range(q) if draw(st.booleans())]
    return inputs, keep


def _assert_loewner_le(small, large):
    """large - small is PSD up to round-off."""
    scale = 1.0 + np.max(np.abs(large))
    assert np.linalg.eigvalsh(sym(large - small))[0] >= -1e-10 * scale


def _numpy_eff(inputs):
    """EFF estimate and avar by plain numpy from the oracle's moments."""
    phi_var, cross, gram = influence_moments(inputs.tau_fit, inputs.beta_fit)
    beta_tilde, sigma_ext = external_covariance(inputs.summaries, inputs.n)
    calib = sigma_ext + gram
    estimate = inputs.tau_fit.estimate - cross @ np.linalg.solve(
        calib, inputs.beta_fit.estimate - beta_tilde
    )
    return estimate, phi_var - cross @ np.linalg.solve(calib, cross.T)


def _assert_matches_restricted(inputs, keep):
    (fused,) = _fused([inputs], [keep], Method.EFF)
    restricted = restrict_inputs(inputs, keep)
    ref = estimate_eff(restricted)
    for field in ("estimate", "avar", "gain"):
        np.testing.assert_allclose(getattr(fused, field), getattr(ref, field), rtol=0, atol=TOL)
    estimate, avar = _numpy_eff(restricted)
    np.testing.assert_allclose(fused.estimate, estimate, rtol=0, atol=1e-10)
    np.testing.assert_allclose(fused.avar, avar, rtol=0, atol=1e-10)


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_subset_eff_matches_restricted_inputs(instance):
    inputs, keep = instance
    if keep:
        _assert_matches_restricted(inputs, keep)
    # dropping every coordinate of one source drops that source
    at = 0
    for s in inputs.summaries:
        rest = [j for j in range(inputs.q) if not at <= j < at + s.q]
        if rest:
            _assert_matches_restricted(inputs, rest)
        at += s.q


@settings(max_examples=100, deadline=None)
@given(_instances())
def test_empty_subset_is_the_internal_only_formula(instance):
    inputs, _ = instance
    phi = inputs.tau_fit.influence
    for result in (*_fused([inputs], [()], Method.INT), estimate_int(inputs)):
        assert np.array_equal(result.estimate, inputs.tau_fit.estimate)
        assert np.array_equal(result.avar, sym(phi.T @ phi / inputs.n))
        assert result.gain.shape == (inputs.p, 0)


@settings(max_examples=200, deadline=None)
@given(_instances())
def test_eff_no_worse_than_int_or_crd(instance):
    inputs, _ = instance
    eff = estimate_eff(inputs).avar
    _assert_loewner_le(eff, estimate_int(inputs).avar)
    _assert_loewner_le(eff, estimate_crude(inputs).avar)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 2), st.integers(1, 2))
def test_splitting_a_block_diagonal_source_leaves_eff_unchanged(seed, q1, q2):
    rng = np.random.default_rng(seed)
    base = synth_inputs(rng, n=60, p=2, q=q1 + q2)
    blocks = (random_spd(rng, q1), random_spd(rng, q2))
    sigma1 = np.zeros((q1 + q2, q1 + q2))
    sigma1[:q1, :q1], sigma1[q1:, q1:] = blocks
    beta, m = rng.standard_normal(q1 + q2), 150
    binding = mean_binding(q1 + q2)
    merged = (validate_summary(beta, sigma1, m, binding),)
    split = (
        validate_summary(beta[:q1], blocks[0], m, binding[:q1]),
        validate_summary(beta[q1:], blocks[1], m, binding[q1:]),
    )
    one, two = (
        estimate_eff(FusionInputs(base.tau_fit, base.beta_fit, summaries))
        for summaries in (merged, split)
    )
    np.testing.assert_allclose(one.estimate, two.estimate, rtol=0, atol=TOL)
    np.testing.assert_allclose(one.avar, two.avar, rtol=0, atol=TOL)


def _scaled_external(inputs, factor):
    """The same inputs with every source's covariance scaled by `factor`."""
    summaries = tuple(
        validate_summary(s.beta, s.sigma1 * factor, s.m, s.binding, s.source_id)
        for s in inputs.summaries
    )
    return FusionInputs(inputs.tau_fit, inputs.beta_fit, summaries)


def _norm(a) -> float:
    return float(np.linalg.norm(a, 2)) if a.size else 0.0


@settings(max_examples=100, deadline=None)
@given(_instances())
def test_sharp_external_summaries_make_eff_the_crude_calibration(instance):
    # sigma_ext -> 0: the EFF gain cross (sigma_ext + gram)^{-1} tends to the
    # CRD/KNW coefficient cross gram^{-1}, within the first-order bound
    # |cross| |sigma_ext| |gram^{-1}|^2 plus the round-off of both solves
    inputs, _ = instance
    sharp = _scaled_external(inputs, 1e-12)
    calib = sharp._calibration
    eff, coef = estimate_eff(sharp), calib.gram_coef()
    gram_inv = _norm(np.linalg.inv(calib.gram))
    cond = _norm(calib.gram) * gram_inv
    bound = 2.0 * _norm(calib.cross) * _norm(calib.sigma_ext) * gram_inv**2
    tol = bound + 1e-13 * cond * _norm(coef)
    assert _norm(eff.gain - coef) <= tol
    crd = estimate_crude(sharp)
    assert _norm(eff.estimate - crd.estimate) <= tol * _norm(calib.residual) + 1e-13 * (
        1.0 + _norm(crd.estimate)
    )


@settings(max_examples=100, deadline=None)
@given(_instances())
def test_useless_external_summaries_make_eff_the_internal_estimate(instance):
    # sigma_ext -> infinity: the gain is at most |cross| / lambda_min(sigma_ext),
    # so the EFF estimate and avar tend to INT's
    inputs, _ = instance
    blurred = _scaled_external(inputs, 1e12)
    calib = blurred._calibration
    gain_bound = _norm(calib.cross) / np.linalg.eigvalsh(calib.sigma_ext)[0]
    eff, internal = estimate_eff(blurred), estimate_int(inputs)
    scale = 1.0 + _norm(internal.estimate)
    residual_bound = gain_bound * _norm(calib.residual)
    assert _norm(eff.estimate - internal.estimate) <= residual_bound + 1e-13 * scale
    cross_bound = gain_bound * _norm(calib.cross)
    assert _norm(eff.avar - internal.avar) <= cross_bound + 1e-13 * _norm(internal.avar)


_Y_MEAN = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})
_Y_ON_X = FunctionalDescriptor(FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["X"]})
# (descriptor, scale of each coordinate, shift of each coordinate) under
# Y -> aY + b and X -> cX
_AFFINE_BINDINGS = (
    (_Y_MEAN, lambda a, b, c: ([a], [b])),
    (FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"}), lambda a, b, c: ([c], [0.0])),
    (
        FunctionalDescriptor(
            FunctionalKind.MEAN, {"column": "Y", "where": {"column": "T", "equals": 1}}
        ),
        lambda a, b, c: ([a], [b]),
    ),
    (_Y_ON_X, lambda a, b, c: ([a, a / c], [b, 0.0])),
)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from([_Y_MEAN, _Y_ON_X]), st.booleans())
def test_estimators_are_affine_equivariant_in_the_outcome(seed, tau, rescale_x):
    # Y -> aY + b, with each summary mapped the same way, maps every estimate
    # to a est + b (b on the intercept of a regression) and se to |a| se;
    # with rescale_x, X -> cX too, which maps X's coefficient and its se to
    # 1/c times theirs
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 120))
    x, t = rng.standard_normal(n), (rng.random(n) < 0.5).astype(float)
    y = 1.0 + 2.0 * x + t + rng.standard_normal(n)
    a = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0))
    b = float(rng.uniform(-100.0, 100.0))
    c = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 10.0)) if rescale_x else 1.0
    chosen = rng.choice(len(_AFFINE_BINDINGS), size=2, replace=False)
    picks = [_AFFINE_BINDINGS[j] for j in chosen]
    summaries, moved = [], []
    for desc, affine in picks:
        q = desc.width()
        beta, sigma1, m = rng.standard_normal(q), random_spd(rng, q), int(rng.integers(30, 300))
        scale, shift = (np.array(v) for v in affine(a, b, c))
        summaries.append(validate_summary(beta, sigma1, m, [desc]))
        moved.append(
            validate_summary(scale * beta + shift, np.outer(scale, scale) * sigma1, m, [desc])
        )
    base = prepare_inputs(validate_dataset({"Y": y, "X": x, "T": t}), tau, summaries)
    mapped = prepare_inputs(validate_dataset({"Y": a * y + b, "X": c * x, "T": t}), tau, moved)
    scale, shift = (np.array(v) for v in next(f for d, f in _AFFINE_BINDINGS if d is tau)(a, b, c))
    unbiased = [j for j in range(base.q) if rng.random() < 0.5]
    for estimate in (
        estimate_int, estimate_crude, estimate_eff, lambda i: estimate_orc(i, unbiased)
    ):
        one, two = estimate(base), estimate(mapped)
        expected = scale * one.estimate + shift
        np.testing.assert_allclose(two.estimate, expected, rtol=0, atol=1e-10 * _norm(expected))
        se = np.abs(scale) * one.se
        np.testing.assert_allclose(two.se, se, rtol=0, atol=1e-10 * _norm(se))
