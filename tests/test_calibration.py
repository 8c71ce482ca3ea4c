"""EFF on a coordinate subset, read from the calibration of the full inputs,
against the independent route through restrict_inputs, and the structural
claims of the paper as properties over random instances."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import mean_binding, random_spd, synth_inputs

from datafuse import (
    FusionInputs,
    Method,
    estimate_crude,
    estimate_eff,
    estimate_int,
    restrict_inputs,
    validate_summary,
)
from datafuse._linalg import sym
from datafuse.fusion import _fused, assemble_external, empirical_moments

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
    """EFF estimate and avar by plain numpy from the public moment builders."""
    cross, gram = empirical_moments(inputs.tau_fit, inputs.beta_fit)
    beta_tilde, sigma_ext = assemble_external(inputs)
    calib = sigma_ext + gram
    phi = inputs.tau_fit.influence
    estimate = inputs.tau_fit.estimate - cross @ np.linalg.solve(
        calib, inputs.beta_fit.estimate - beta_tilde
    )
    return estimate, phi.T @ phi / inputs.n - cross @ np.linalg.solve(calib, cross.T)


def _assert_matches_restricted(inputs, keep):
    fused = _fused(inputs, keep, Method.EFF)
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
    for result in (_fused(inputs, (), Method.INT), estimate_int(inputs)):
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
