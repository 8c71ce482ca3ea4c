"""Results and Wald intervals of a stack against each row's alone (the
_build_results row of test_stack_invariance's table, which also checks each
result's se and the order of its warnings, and each side of _wald), a zero
se that warns in its own result of a stack only, and one failing binding
fit that makes fusion._prepare's list raise that dataset's own error."""

import warnings

import numpy as np
import pytest

from helpers import JOINT, PREPARE_BINDINGS, PREPARE_TAUS, assert_same_bits, xz_dataset, xz_summary
from test_stack_invariance import ROW, reached

from datafuse import Method, fusion
from datafuse.errors import DataFuseError, DegenerateRegressor, RankDeficientDesign


def test_each_result_of_a_stack_is_its_lone_result():
    missed = ROW["_build_results"].reach - reached("_build_results")
    assert not missed, sorted(missed)


def test_wald_on_a_stack_is_wald_on_each_row():
    rng = np.random.default_rng(4)
    estimate, se = rng.standard_normal((3, 4)), abs(rng.standard_normal((3, 4)))
    se[1, 2] = 0.0
    for side in ("upper", "lower", "two_sided"):
        z, p, ci = fusion._wald(estimate, se, 0.8, 0.1, side)
        assert ci.shape == (3, 4, 2)
        for r in range(3):
            assert_same_bits((z[r], p[r], ci[r]), fusion._wald(estimate[r], se[r], 0.8, 0.1, side))


def test_a_zero_se_in_one_result_of_a_stack_warns_in_that_result_only():
    avar = np.array([np.eye(2), np.diag([1.0, 0.0])])
    results = fusion._build_results(
        Method.EFF, [10, 10], np.zeros((2, 2, 0)), np.ones((2, 2)), avar, 0.95, []
    )
    assert results[0].warnings == ()
    assert results[1].warnings == ("zero standard error: one-sided p set to NaN",)
    assert np.isnan(results[1].p_one_sided[1]) and not np.isnan(results[1].p_one_sided[0])


def _prepared(datas, tau, summaries):
    """fusion._prepare's inputs, or the error's (type, message)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            return fusion._prepare(datas, tau, summaries), None
        except DataFuseError as exc:
            return None, (type(exc), str(exc))


@pytest.mark.parametrize(
    "bad, binding, kind",
    [
        ("collinear", (JOINT,), RankDeficientDesign),
        ("zero", PREPARE_BINDINGS[2], DegenerateRegressor),
        ("zero", PREPARE_BINDINGS[3], RankDeficientDesign),
    ],
)
@pytest.mark.parametrize("at", [0, 2])
def test_a_list_with_one_failing_binding_raises_its_lone_error(bad, binding, kind, at):
    """One dataset of a list whose binding fit fails alone (a rank-deficient
    joint design, a regressor with zero second moment) makes the list raise
    that dataset's own class and message."""
    rng = np.random.default_rng(11)
    datas = [xz_dataset(rng, 80, bad if r == at else None) for r in range(3)]
    summaries = [[xz_summary(rng, binding)] for _ in datas]
    tau = PREPARE_TAUS[3]
    _, lone = _prepared([datas[at]], tau, [summaries[at]])
    assert lone is not None and lone[0] is kind
    assert _prepared(datas, tau, summaries) == (None, lone)
