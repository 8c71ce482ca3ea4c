"""The propensity Newton on a stack of designs against the same fits one at a
time: each fit of the stack gives the coefficients and probabilities of its
lone fit bit for bit, and the stack raises or warns exactly when some fit
does alone. The stacks hold fits that stop at different iterations, halve
their steps, start warm, stop at the iteration cap, have pinned or separated
probabilities, or have a rank-deficient design. The AIPW fit of a list of
datasets, whose propensities are one such stack, gives each dataset's lone
fit."""

import warnings
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import pick, stack_of_one

from datafuse import functionals, gen_scenario1
from datafuse._linalg import logistic
from datafuse.errors import DataFuseError

# a drawn fit's mode; the modes that raise are drawn about a fifth of the time
MODES = ("logistic",) * 6 + ("far_start", "warm", "slow") * 2 + (
    "complete", "pinned_probe", "one_class", "rare", "collinear",
)
# LOGISTIC_MAX_ITER for a stack: small caps stop some fits there, not others
CAPS = (100, 100, 3, 5, 8)


def _stack(seed, fits):
    """(design (fits, n, k), y (fits, n), start (fits, k) or None): one
    row count n of 6-400 and one width k of 1-3 for the stack, each design
    a view of one column-major buffer as functionals._joint_design builds
    it, and each fit drawn by one of MODES, with covariates on a scale of
    0.3 to 3, so the fits stop at different iterations: far_start starts 3
    to 30 standard deviations out (its steps are halved), warm starts from
    the fit on half the rows, slow has nearly separated classes (many
    iterations), complete separates them, pinned_probe pushes the first
    row of each class far out, one_class and rare leave a class empty or
    nearly so, and collinear repeats a covariate."""
    rng = np.random.default_rng(seed)
    n, k = int(np.exp(rng.uniform(np.log(6), np.log(401)))), int(rng.integers(1, 4))
    columns = np.empty((fits, k, n))
    columns[:, 0] = 1.0
    y, start, warm = np.empty((fits, n)), np.zeros((fits, k)), False
    for b in range(fits):
        mode = pick(rng, MODES)
        x = rng.standard_normal((n, k - 1)) * pick(rng, (0.3, 1.0, 3.0))
        signal = 0.3 + x.sum(axis=1) * (8.0 if mode == "slow" else 1.0)
        y[b] = rng.random(n) < logistic(signal)
        if mode == "complete" and k > 1:
            y[b] = x[:, 0] > np.median(x[:, 0])
        elif mode == "pinned_probe" and k > 1:
            for label, sign in ((1.0, 1.0), (0.0, -1.0)):
                rows = np.flatnonzero(y[b] == label)
                if rows.size:
                    x[rows[0]] = sign * pick(rng, (25.0, 40.0))
        elif mode == "one_class":
            y[b] = rng.integers(0, 2)
        elif mode == "rare":
            y[b] = 0.0
            y[b, rng.choice(n, size=int(rng.integers(1, 3)), replace=False)] = 1.0
        elif mode == "collinear" and k > 2:
            x[:, 1] = 2.0 * x[:, 0]
        columns[b, 1:] = x.T
        if mode == "far_start":
            start[b], warm = pick(rng, (3.0, 30.0)) * rng.standard_normal(k), True
        elif mode == "warm":
            half = rng.choice(n, size=max(k + 2, n // 2), replace=False)
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    start[b] = stack_of_one(
                        functionals._newton_logistic, columns[b].T[half], y[b, half], "start"
                    )[0]
                warm = True
            except DataFuseError:
                pass
    return columns.swapaxes(1, 2), y, start if warm else None


def _outcome(*args, alone=False):
    """(value, error, warnings) of functionals._newton_logistic(*args), on
    the stack of one if `alone`: the (coef, prob) or None, the error's
    (type, message) or None, and the (category, message) of each warning
    other than numpy's RuntimeWarnings, which numpy emits once per
    operation, on a stack as on one design."""
    newton = functionals._newton_logistic
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = stack_of_one(newton, *args) if alone else newton(*args)
            error = None
        except DataFuseError as exc:
            value, error = None, (type(exc), str(exc))
    shown = [(w.category, str(w.message)) for w in caught if w.category is not RuntimeWarning]
    return value, error, shown


def _fits(seed, fits, cap):
    """The stack's outcome and each fit's outcome alone, under the cap."""
    design, y, start = _stack(seed, fits)
    with mock.patch.object(functionals, "LOGISTIC_MAX_ITER", cap):
        stacked = _outcome(design, y, "p", start)
        alone = [
            _outcome(design[b], y[b], "p", None if start is None else start[b], alone=True)
            for b in range(fits)
        ]
    return stacked, alone


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from(CAPS))
def test_each_fit_of_a_stack_is_its_lone_fit(seed, fits, cap):
    (value, error, shown), alone = _fits(seed, fits, cap)
    errors = [one_error for _, one_error, _ in alone if one_error is not None]
    if errors:
        assert value is None and error in errors
        return
    assert error is None
    assert Counter(shown) == Counter(w for _, _, one_shown in alone for w in one_shown)
    coef, prob = value
    assert coef.shape == (fits, alone[0][0][0].size) and prob.shape == (fits, len(alone[0][0][1]))
    for b, ((one_coef, one_prob), _, _) in enumerate(alone):
        assert coef[b].tobytes() == one_coef.tobytes()
        assert prob[b].tobytes() == one_prob.tobytes()


def test_stacks_reach_every_outcome(monkeypatch):
    """Over seeds 0-299, the stacks hold fits that stop at different
    iterations of one stack, halve a step, start warm, stop at the cap,
    ridge the Newton system and raise each of the Newton's errors, so the
    property test compares every path."""
    solves, logliks = [], []
    solve, loglik = functionals.spd_solve, functionals._bernoulli_loglik
    monkeypatch.setattr(
        functionals, "spd_solve", lambda *a, **k: solves.append(1) or solve(*a, **k)
    )
    monkeypatch.setattr(
        functionals, "_bernoulli_loglik", lambda *a: logliks.append(1) or loglik(*a)
    )
    seen = set()
    for seed in range(300):
        fits, cap = 1 + seed % 5, CAPS[seed % len(CAPS)]
        design, y, start = _stack(seed, fits)
        seen.add("warm" if start is not None else "cold")
        iterations = []
        for b in range(fits):
            del solves[:], logliks[:]
            with mock.patch.object(functionals, "LOGISTIC_MAX_ITER", cap):
                value, error, shown = _outcome(
                    design[b], y[b], "p", None if start is None else start[b], alone=True
                )
            seen.add("fit" if error is None else error[1].split(" (")[0])
            seen.update(message.split(" (")[0] for _, message in shown)
            if error is None:
                iterations.append(len(solves))
                # one log-likelihood to start, then one per try of each step
                if len(logliks) > 1 + len(solves):
                    seen.add("halved")
        if len(set(iterations)) > 1:
            seen.add("staggered")
    assert {
        "cold",
        "warm",
        "fit",
        "staggered",
        "halved",
        "logistic fit stopped at iteration cap",
        "ill-conditioned system",
        "fitted probabilities pinned at 0/1",
        "no improving Newton step",
        "coefficients diverged",
        "matrix is not positive definite",
        "design matrix is rank deficient",
    } <= seen


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.sampled_from((None, 0.1, 3.0)))
def test_each_aipw_fit_of_a_list_is_its_lone_fit(seed, fits, spread):
    """_fit_aipw on a list of Scenario I datasets of one row count (the
    propensities as one stacked Newton, cold or from a start) gives each
    dataset's lone fit bit for bit, and fails when one of them does."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(30, 400))
    data = [gen_scenario1(n, 50, rng)[0] for _ in range(fits)]
    start = None if spread is None else spread * rng.standard_normal((fits, 3))
    args = ("Y", "T", ["X", "X2"], functionals.PROPENSITY_TRIM)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        alone = []
        for b, one in enumerate(data):
            try:
                one_start = None if start is None else start[b]
                alone.append(stack_of_one(functionals._fit_aipw, one, *args, start=one_start))
            except DataFuseError:
                alone.append(None)
        if None in alone:
            with pytest.raises(DataFuseError):
                functionals._fit_aipw(data, *args, start=start)
            return
        stacked = functionals._fit_aipw(data, *args, start=start)
    for got, want in zip(stacked, alone):
        for name in ("estimate", "influence", "_propensity"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
