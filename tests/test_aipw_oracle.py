"""The propensity Newton and the AIPW fit against reference copies that make
every pass over the rows (tests/oracles.py): bit-equal coefficients,
probabilities, estimates and influence, the same errors with the same
messages, and the same warnings. Also: the fitters' designs are column-major,
and the fits agree with the same fits on row-major designs."""

import functools
import warnings
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from helpers import assert_same_bits, logistic_coef, pick, stack_of_one

from datafuse import fit_joint_ols, functionals, validate_dataset
from datafuse._linalg import logistic
from datafuse.errors import DataFuseError

MODES = ("logistic", "complete", "quasi", "one_class", "pinned_probe", "rare", "collinear")


def _treatment(rng, mode, x):
    """A binary treatment for covariates x, separated or not as `mode` says."""
    n = x.shape[0]
    if mode == "complete":
        return (x[:, 0] > np.median(x[:, 0])).astype(float)
    if mode == "quasi":
        # separated except on a few rows tied at the boundary, which take
        # both classes
        x[rng.choice(n, size=min(n, 4), replace=False), 0] = 0.0
        t = (x[:, 0] > 0.0).astype(float)
        t[x[:, 0] == 0.0] = rng.integers(0, 2, size=int(np.sum(x[:, 0] == 0.0)))
        return t
    if mode == "one_class":
        return np.full(n, float(rng.integers(0, 2)))
    if mode == "rare":
        t = np.zeros(n)
        t[rng.choice(n, size=int(rng.integers(1, 4)), replace=False)] = 1.0
        return t if rng.random() < 0.5 else 1.0 - t
    t = (rng.random(n) < logistic(0.3 + x[:, 0] - 0.5 * x[:, -1])).astype(float)
    if mode == "pinned_probe":
        # the first row of each class (the probe rows) sits far out on its
        # side, so its probability is pinned while the other rows' are not
        for label, sign in ((1.0, 1.0), (0.0, -1.0)):
            rows = np.flatnonzero(t == label)
            if rows.size:
                x[rows[0], :] = sign * pick(rng, (25.0, 40.0, 1e3))
    return t


def _case(seed):
    """(data, covariates, design, start): an internal dataset of 6-3000 rows
    (log-uniform) with 1-3 covariates and a treatment drawn by one of MODES,
    covariates sometimes scaled by 1e3 to 1e300 (probabilities saturate,
    the Newton system is ridged or singular, products overflow), outcomes
    sometimes by 1e200 (the AIPW transform overflows), and a propensity
    start that is None, fitted on a subset of the rows, random, or of the
    wrong length (the AIPW fit then starts from zero). Every choice is drawn
    from one generator seeded with `seed`, so each mode is drawn about
    equally often and a failing case is reported by its seed."""
    rng = np.random.default_rng(seed)
    n = int(np.exp(rng.uniform(np.log(6), np.log(3001))))
    k = int(rng.integers(1, 4))
    mode = pick(rng, MODES)
    x = rng.standard_normal((n, k))
    t = _treatment(rng, mode, x)
    if mode == "collinear" and k > 1:
        x[:, 1] = 2.0 * x[:, 0]
    y = 1.0 + x.sum(axis=1) + t + pick(rng, (1.0, 1e-8)) * rng.standard_normal(n)
    x *= pick(rng, (1.0, 1.0, 1.0, 1.0, 1.0, 1e3, 1e9, 1e150, 1e300))
    y *= pick(rng, (1.0, 1.0, 1.0, 1e200))
    covariates = [f"X{j}" for j in range(k)]
    data = validate_dataset({"Y": y, "T": t, **dict(zip(covariates, x.T))})
    design = np.column_stack([np.ones(n)] + list(x.T))
    kind = rng.integers(4)
    if kind == 0:
        start = None
    elif kind == 1:
        rows = rng.choice(n, size=max(k + 2, n // 2), replace=False)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                start = oracles._newton_logistic(design[rows], t[rows], "start")
        except DataFuseError:
            start = None
    elif kind == 2:
        start = pick(rng, (0.1, 1.0, 30.0)) * rng.standard_normal(k + 1)
    else:
        start = rng.standard_normal(k + 2)
    return data, covariates, design, start


def _newton_start(start, design):
    """`start`, or None where its length does not fit the design (the AIPW
    fit then starts from zero; the Newton takes only fitting starts)."""
    return start if start is not None and start.shape == (design.shape[1],) else None


def _outcome(fit, *args):
    """(value, error, warnings) of fit(*args): the value or None, the error's
    (type, message) or None, and the (category, message) of each warning
    other than numpy's RuntimeWarnings (overflow in a pass the new code no
    longer makes)."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value, error = fit(*args), None
        except DataFuseError as exc:
            value, error = None, (type(exc), str(exc))
    shown = [(w.category, str(w.message)) for w in caught if w.category is not RuntimeWarning]
    return value, error, shown


SEEDS = st.integers(0, 2**32 - 1)


@functools.cache
def _reached():
    """The property, run once for both tests below: (the head of each Newton
    error and warning, or "fit", its cases reach; whether the separation
    check met probe rows that are pinned while other rows are not)."""
    pinned, probe_only, seen = functionals._pinned, [], set()

    def spy(prob, ones, zeros, probes):
        result = pinned(prob, ones, zeros, probes)
        one, zero = probes
        if not result and (one is None or prob[one] > 1.0 - 1e-8) and (
            zero is None or prob[zero] < 1e-8
        ):
            probe_only.append(True)
        return result

    @settings(max_examples=400, deadline=None)
    @given(SEEDS)
    def each_case(seed):
        data, covariates, design, start = _case(seed)
        t = data.column("T")

        newton_start = _newton_start(start, design)
        newton = functionals._newton_logistic
        got, error, shown = _outcome(stack_of_one, newton, design, t, "p", newton_start)
        want, want_error, want_shown = _outcome(
            oracles._newton_logistic, design, t, "p", newton_start
        )
        assert (error, shown) == (want_error, want_shown)
        seen.add("fit" if error is None else error[1].split(" (")[0])
        seen.update(message.split(" (")[0] for _, message in shown)
        if want is not None:
            coef, prob = got
            assert_same_bits(coef, want)
            assert_same_bits(prob, logistic(design @ want))

        args = (data, "Y", "T", covariates, functionals.PROPENSITY_TRIM, start)
        got, error, shown = _outcome(stack_of_one, functionals._fit_aipw, *args)
        want, want_error, want_shown = _outcome(oracles._fit_aipw, *args)
        assert (error, shown) == (want_error, want_shown)
        if want is not None:
            assert_same_bits(got.estimate, want.estimate)
            assert_same_bits(got.influence, want.influence)
            assert_same_bits(got._propensity, want._propensity)
            assert got.label == want.label

    with mock.patch.object(functionals, "_pinned", spy):
        each_case()
    return frozenset(seen), bool(probe_only)


def test_newton_and_aipw_match_the_reference():
    _reached()


def test_cases_reach_every_outcome():
    """The property compares every path of the Newton."""
    seen, probe_only = _reached()
    assert probe_only
    assert {
        "fit",
        "logistic fit stopped at iteration cap",
        "fitted probabilities pinned at 0/1",
        "no improving Newton step",
        "coefficients diverged",
        "matrix is not positive definite",
        "ill-conditioned system",
        "design matrix is rank deficient",
    } <= seen


def _well_posed_case(seed):
    """(data, covariates, start) in the style of _case, without the draws
    whose fits round-off decides (outcome noise 1e-8, which the rows then
    fit exactly; separated or rare treatments; extreme scales), on which two
    summation orders of the same fit differed by up to 4e-5 relative: 40-3000
    rows, 1-3 covariates in one of three units, a logistic treatment, and a
    propensity start of zero or near it."""
    rng = np.random.default_rng(seed)
    n = int(np.exp(rng.uniform(np.log(40), np.log(3001))))
    k = int(rng.integers(1, 4))
    x = rng.standard_normal((n, k))
    t = _treatment(rng, "logistic", x)
    y = 1.0 + x.sum(axis=1) + t + rng.standard_normal(n)
    x *= pick(rng, (1.0, 1e-3, 1e3))
    covariates = [f"X{j}" for j in range(k)]
    data = validate_dataset({"Y": y, "T": t, **dict(zip(covariates, x.T))})
    return data, covariates, pick(rng, (None, 0.1 * rng.standard_normal(k + 1)))


def _arrays(value):
    """The arrays a fit returns: a coefficient vector, or a FunctionalFit's
    estimate, influence and propensity coefficient (where it has one)."""
    if value is None or isinstance(value, np.ndarray):
        return [value]
    extra = [] if value._propensity is None else [value._propensity]
    return [value.estimate, value.influence] + extra


@settings(max_examples=150, deadline=None)
@given(SEEDS)
def test_fits_are_column_major_and_match_row_major_designs(seed):
    """Each design the fitters solve on (the joint design, and each outcome
    arm's rows) is F-contiguous, and fit_joint_ols, the propensity Newton and the
    AIPW fit agree within 1e-12 of their largest entry with the same fits
    on row-major copies of those designs."""
    data, covariates, start = _well_posed_case(seed)
    assert stack_of_one(functionals._joint_design, data, covariates).flags.f_contiguous
    build, ols_coef, newton = (
        functionals._joint_design,
        functionals._ols_coef,
        functionals._newton_logistic,
    )
    layouts = []

    def spy(solve):
        def wrapped(design, *args):
            layouts.append(design.flags.f_contiguous)
            return solve(design, *args)

        return wrapped

    def row_major(solve):
        return lambda design, *args: solve(np.ascontiguousarray(design), *args)

    fits = (
        (fit_joint_ols, (data, "Y", covariates)),
        (logistic_coef, (data, "T", covariates)),
        (
            stack_of_one,
            (functionals._fit_aipw, data, "Y", "T", covariates, functionals.PROPENSITY_TRIM, start),
        ),
    )
    for fit, args in fits:
        layouts.clear()
        with mock.patch.object(functionals, "_ols_coef", spy(ols_coef)), mock.patch.object(
            functionals, "_newton_logistic", spy(newton)
        ):
            got, error, shown = _outcome(fit, *args)
        assert layouts and all(layouts)
        with mock.patch.object(
            functionals, "_joint_design", lambda *a: np.ascontiguousarray(build(*a))
        ), mock.patch.object(functionals, "_ols_coef", row_major(ols_coef)):
            want, want_error, want_shown = _outcome(fit, *args)
        assert (error, shown) == (want_error, want_shown)
        for a, b in zip(_arrays(got), _arrays(want)):
            if b is not None:
                assert abs(a - b).max() <= 1e-12 * abs(b).max()
