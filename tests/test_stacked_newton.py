"""The propensity Newton on a stack of designs against the same fits one at a
time, by the _newton_logistic row of test_stack_invariance's table: each fit
of the stack gives the coefficients and probabilities of its lone fit bit
for bit, the stack raises or warns exactly when some fit does alone, and the
row's stacks reach every path of the Newton."""

from test_stack_invariance import ROW, reached


def test_each_fit_of_a_stack_is_its_lone_fit():
    reached("_newton_logistic")


def test_stacks_reach_every_outcome():
    missed = ROW["_newton_logistic"].reach - reached("_newton_logistic")
    assert not missed, sorted(missed)
