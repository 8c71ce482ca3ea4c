"""The paper's exact claims about biased summaries, as properties.

EFF trusts every summary: a bias delta in the external estimate beta~ moves
its estimate by exactly gain @ delta and leaves its variance alone, which is
why a small bias ruins its coverage. DBS estimates the bias and fuses only
the coordinates it finds unbiased: a coordinate it leaves out cannot move
its estimate, and when it selects the truly unbiased set it is the oracle
ORC itself.
"""

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from datafuse import (
    DebiasConfig,
    FusionInputs,
    ScenarioConfig,
    estimate_dbs,
    estimate_eff,
    gen_scenario2,
    prepare_inputs,
    run_replications,
    validate_summary,
)
from datafuse.sim import _tau_descriptor
from helpers import fuzz_rng, pick, synth_inputs


def _shifted(inputs: FusionInputs, delta) -> FusionInputs:
    """`inputs` with every summary's beta~ moved by its part of `delta`."""
    summaries, at = [], 0
    for s in inputs.summaries:
        beta = s.beta + delta[at : at + s.q]
        summaries.append(validate_summary(beta, s.sigma1, s.m, s.binding, s.source_id))
        at += s.q
    return FusionInputs(tau_fit=inputs.tau_fit, beta_fit=inputs.beta_fit, summaries=summaries)


def _splits(rng, q: int) -> list:
    """A random partition of q coordinates into source blocks."""
    cuts = sorted(rng.choice(np.arange(1, q), size=rng.integers(0, q), replace=False))
    return np.diff([0, *cuts, q]).tolist()


@st.composite
def _inputs_and_shift(draw):
    """Synthetic inputs (p 1-3, q 1-4 in 1-q sources) and a bias delta of
    about 1e-3, 1 or 1e3 on every coordinate, or on one coordinate only."""
    rng = fuzz_rng(draw)
    p, q = int(rng.integers(1, 4)), int(rng.integers(1, 5))
    inputs = synth_inputs(rng, n=int(rng.integers(q + 10, 120)), p=p, q=q, splits=_splits(rng, q))
    delta = rng.standard_normal(q) * pick(rng, (1e-3, 1.0, 1e3))
    if rng.random() < 0.3:
        delta *= np.arange(q) == rng.integers(q)
    return inputs, delta


@settings(max_examples=200, deadline=None)
@given(case=_inputs_and_shift())
def test_a_summary_bias_moves_eff_by_exactly_the_gain_times_the_bias(case):
    inputs, delta = case
    base, moved = estimate_eff(inputs), estimate_eff(_shifted(inputs, delta))
    np.testing.assert_array_equal(moved.avar, base.avar)
    np.testing.assert_array_equal(moved.gain, base.gain)
    # round-off of tau_int - gain @ (beta_int - beta~ - delta) against its terms
    calib = inputs._calibration
    terms = np.abs(base.gain) @ (np.abs(calib.residual) + np.abs(delta))
    scale = 1.0 + np.max(np.abs(calib.tau) + terms)
    np.testing.assert_allclose(
        moved.estimate - base.estimate, base.gain @ delta, rtol=0.0, atol=1e-12 * scale
    )


@st.composite
def _inputs_lambda_and_outlier(draw):
    """Synthetic inputs (p 1-2, q 2-4) whose coordinate j carries a bias of
    20-100 external standard errors, a second such bias on j, and a fixed
    lambda."""
    rng = fuzz_rng(draw)
    p, q = int(rng.integers(1, 3)), int(rng.integers(2, 5))
    inputs = synth_inputs(rng, n=int(rng.integers(q + 20, 120)), p=p, q=q, splits=_splits(rng, q))
    j = int(rng.integers(q))
    sd = np.sqrt(inputs._calibration.sigma_ext[j, j] / inputs.n)

    def outlier():
        return (np.arange(q) == j) * rng.choice([-1.0, 1.0]) * rng.uniform(20.0, 100.0) * sd

    lam = float(10.0 ** rng.uniform(-1.0, 1.0))
    return _shifted(inputs, outlier()), outlier(), j, lam


@settings(max_examples=100, deadline=None)
@given(case=_inputs_lambda_and_outlier())
def test_a_coordinate_dbs_leaves_out_does_not_move_its_estimate(case):
    inputs, second, j, lam = case
    config = DebiasConfig(lambda_fixed=lam)
    base, base_sel = estimate_dbs(inputs, config)
    moved, moved_sel = estimate_dbs(_shifted(inputs, second), config)
    # with the selection unchanged and j outside it, the same coordinates
    # are fused with the same sub-blocks of the calibration
    assume(base_sel.selected == moved_sel.selected and j not in base_sel.selected)
    np.testing.assert_array_equal(moved.estimate, base.estimate)
    np.testing.assert_array_equal(moved.se, base.se)


def test_dbs_is_orc_whenever_it_selects_the_truly_unbiased_set():
    # bit for bit, on every replication where the selection is right
    for scenario, unbiased in (("II_biased", "0"), ("II_unbiased", "0;1")):
        config = ScenarioConfig(scenario=scenario, n=1000, m=4000, reps=200, seed=13,
                                methods=("ORC", "DBS"))
        records = run_replications(config).records
        by_key = {(r["method"], r["rep"], r["param"]): r for r in records}
        hits = 0
        for (method, rep, param), dbs in by_key.items():
            if method != "DBS" or dbs["selected"] != unbiased:
                continue
            orc = by_key[("ORC", rep, param)]
            assert (dbs["estimate"], dbs["se"]) == (orc["estimate"], orc["se"]), (scenario, rep)
            hits += 1
        # the selection is right on most replications (about 94-97% at this n)
        assert hits >= 0.85 * 2 * config.reps, (scenario, hits)


def _coverage_under_a_local_bias(c, seed=2210, reps=200, n=1000, m=4000) -> dict:
    """Coverage (%) of param 1 by EFF and DBS over II_unbiased replications
    whose second summary coordinate is shifted by c / sqrt(n): each rep
    draws its data and its folds from its own pair of seeds, as
    run_replications does."""
    hits = {"EFF": 0, "DBS": 0}
    for data_seed, cv_seed in (s.spawn(2) for s in np.random.SeedSequence(seed).spawn(reps)):
        internal, summary, truth = gen_scenario2(n, m, False, np.random.default_rng(data_seed))
        beta = summary.beta + np.array([0.0, c / np.sqrt(n)])
        shifted = validate_summary(beta, summary.sigma1, summary.m, summary.binding)
        inputs = prepare_inputs(internal, _tau_descriptor("II_unbiased"), [shifted])
        for name, result in (
            ("EFF", estimate_eff(inputs)),
            ("DBS", estimate_dbs(inputs, DebiasConfig(seed=cv_seed))[0]),
        ):
            low, high = result.ci[1]
            hits[name] += bool(low <= truth["tau"][1] <= high)
    return {name: 100.0 * count / reps for name, count in hits.items()}


def test_dbs_keeps_its_coverage_where_a_local_bias_ruins_effs():
    # the bias paradox: a summary bias of c / sqrt(n) moves EFF by a fixed
    # multiple of its standard error, so at c = 32 its interval misses the
    # truth on nearly every replication; DBS detects the biased coordinate
    # and leaves it out. Without a bias (c = 0) DBS keeps its nominal 95%
    unbiased, biased = _coverage_under_a_local_bias(0.0), _coverage_under_a_local_bias(32.0)
    assert 92.5 <= unbiased["DBS"] <= 97.5, unbiased
    assert 92.5 <= biased["DBS"] <= 97.5, biased
    assert biased["EFF"] < 10.0, biased


def _selection_rates(scenario, unbiased, seed=5151, reps=400, sizes=(500, 1000, 2000, 4000, 8000)):
    """The rate of replications on which DBS selects exactly the unbiased
    set, and its Monte Carlo SE, at each internal size n (m = 4n)."""
    rates = []
    for n in sizes:
        config = ScenarioConfig(
            scenario=scenario, n=n, m=4 * n, reps=reps, seed=seed, methods=("DBS",)
        )
        records = run_replications(config).records
        rate = sum(r["param"] == 0 and r["selected"] == unbiased for r in records) / reps
        rates.append((rate, np.sqrt(rate * (1.0 - rate) / reps)))
    return rates


def test_dbs_selects_the_unbiased_set_ever_more_often_as_n_grows():
    # Zou's oracle property (JASA 101, 2006): the rate of correct selection
    # tends to 1. Between consecutive n it falls by at most 2 Monte Carlo
    # SEs of the difference, and at the largest n it exceeds the rate at the
    # smallest by more than 2 of them
    for scenario, unbiased in (("II_biased", "0"), ("II_unbiased", "0;1")):
        rates = _selection_rates(scenario, unbiased)
        for (low, low_se), (high, high_se) in zip(rates, rates[1:]):
            assert high >= low - 2.0 * np.hypot(low_se, high_se), (scenario, rates)
        (first, first_se), (last, last_se) = rates[0], rates[-1]
        assert last > first + 2.0 * np.hypot(first_se, last_se), (scenario, rates)
