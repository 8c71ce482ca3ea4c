"""Self-tests of the benchmark: span arithmetic, tail choice, patching,
and that the output checks catch a wrong result.

Run from the repository root: python3 -m pytest -q bench/tests
"""

import importlib
import warnings
from collections import Counter

import numpy as np
import pytest

import checks
import layers
import run


def _span(name, parent, start, end, site="s"):
    return layers.Span(name, site, 0, parent, start, end)


def test_self_times_subtract_direct_children_only():
    # root [0, 10] > a [1, 4] > a1 [2, 3]; root > b [5, 9]; c [11, 12] is a second root
    spans = [
        _span("root", -1, 0.0, 10.0),
        _span("a", 0, 1.0, 4.0),
        _span("a1", 1, 2.0, 3.0),
        _span("b", 0, 5.0, 9.0),
        _span("c", -1, 11.0, 12.0),
    ]
    assert layers.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.0])
    # Self times of a tree add up to the roots' durations.
    assert sum(layers.self_times(spans)) == pytest.approx(11.0)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("cli.main", -1, 0.0, 0.010),
        _span("linalg.spd_solve", 0, 0.001, 0.002, site="datafuse.fusion"),
        _span("functionals.fit_functional", 0, 0.003, 0.008),
        _span("linalg.spd_solve", 2, 0.004, 0.006, site="datafuse.functionals"),
        _span("debias.cv_tune", -1, 0.010, 0.020),
        _span("debias.adaptive_lasso", 4, 0.011, 0.012),
        _span("debias.adaptive_lasso", 4, 0.012, 0.013),
        _span("fusion.estimate_eff", 4, 0.013, 0.015),
    ]
    out = layers.layer_metrics(spans, Counter(ridge=1), units=2)
    assert out["cli.self_ms"] == pytest.approx((10.0 - 1.0 - 5.0) / 2)
    assert out["functionals.fit_functional.self_ms"] == pytest.approx((5.0 - 2.0) / 2)
    assert out["linalg.spd_solve.calls"] == 1.0
    assert out["functionals.spd_solve.calls"] == 0.5
    assert out["linalg.spd_solve.ms"] == pytest.approx(3.0 / 2)
    assert out["debias.cv_tune.self_ms"] == pytest.approx(6.0 / 2)
    assert out["debias.cv_refit_ratio"] == pytest.approx(0.5)
    assert out["linalg.spd_solve.ridge_frac"] == pytest.approx(0.5)


def test_inclusive_time_counts_nested_spans_of_a_layer_once():
    spans = [
        _span("fusion.estimate_eff", -1, 0.0, 0.004),
        _span("fusion.estimate_int", 0, 0.001, 0.002),
    ]
    assert layers.self_times(spans)[0] == pytest.approx(0.003)
    out = layers.layer_metrics(spans, Counter(), units=1)
    assert out["fusion.estimators.calls"] == 2.0
    assert out["fusion.estimators.self_ms"] == pytest.approx(4.0)


@pytest.mark.parametrize(
    "samples, percentile",
    [(5, 50.0), (19, 50.0), (20, 50.0), (39, 50.0), (40, 75.0), (99, 75.0),
     (100, 90.0), (199, 90.0), (5000, 90.0)],
)
def test_tail_percentile_leaves_ten_samples_beyond(samples, percentile):
    assert run.tail_percentile(samples) == percentile
    if samples >= 20:
        values = np.arange(samples, dtype=float)
        cut = np.percentile(values, run.tail_percentile(samples))
        assert int(np.sum(values > cut)) >= run.TAIL_BEYOND


def test_due_spreads_samples_evenly_over_the_run():
    taken = []
    for step in range(100):
        elapsed = step * 0.3  # 30 s of calls of 0.3 s each
        while run.due(len(taken), 9, elapsed, 30.0):
            taken.append(elapsed)
    assert len(taken) == 9
    assert taken[0] == 0.0
    assert all(b - a == pytest.approx(3.3, abs=0.31) for a, b in zip(taken, taken[1:]))


def test_estimate_workload_cycles_datasets_and_checks_each(tmp_path):
    workload = run.make_workload("estimate_large", tmp_path)
    workload.spec.update(n=300, m=300)
    workload.prepare(5)
    paths = [workload.next_argv()[2] for _ in range(run.ESTIMATE_DATASETS + 1)]
    assert len(set(paths)) == run.ESTIMATE_DATASETS
    assert paths[0] == paths[-1]


def _site_objects():
    out = []
    for mod_name, attr, _ in layers.FUNCTION_SITES:
        out.append(getattr(importlib.import_module(mod_name), attr))
    for mod_name, cls_name, attr, _ in layers.METHOD_SITES:
        out.append(getattr(importlib.import_module(mod_name), cls_name).__dict__[attr])
    out.append(importlib.import_module("datafuse._linalg").warnings)
    return out


def test_tracer_restores_every_patched_name():
    before = _site_objects()
    tracer = layers.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            during = _site_objects()
            assert all(a is not b for a, b in zip(before, during))
            1 / 0
    after = _site_objects()
    assert all(a is b for a, b in zip(before, after))


def test_traced_call_matches_untraced_and_counts_units(tmp_path):
    argv = [
        "simulate", "--scenario", "II_biased", "--n", "200", "--m", "400", "--reps", "3",
        "--seed", "4", "--methods", "INT,ORC,DBS,EFF", "--threads", "1",
        "--out-dir", str(tmp_path),
    ]
    run.call_cli(argv)
    plain = (tmp_path / "metrics_per_rep.csv").read_bytes()
    tracer = layers.Tracer()
    with tracer:
        rc, _, _ = run.call_cli(argv)
    assert rc == 0
    assert (tmp_path / "metrics_per_rep.csv").read_bytes() == plain
    names = Counter(s.name for s in tracer.spans)
    assert names["cli.main"] == 1
    assert names["sim.generate"] == 3
    assert {s.unit for s in tracer.spans} == {0, 1, 2, 3}
    assert names["debias.cv_tune"] == 3


def test_ridge_counter_counts_and_still_warns():
    from datafuse import _linalg, functionals

    tracer = layers.Tracer()
    with tracer, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        functionals.spd_solve(np.diag([1.0, 1e-14]), np.ones(2))
    assert tracer.events["ridge"] == 1
    assert any(str(w.message).startswith(layers.RIDGE_PREFIX) for w in caught)
    assert any(w.filename == _linalg.__file__ for w in caught)


def test_compare_uses_float64_tolerance():
    assert checks.compare({"a": ["1.0", 2.0]}, {"a": ["1.0000000000001", 2.0]}) == []
    assert checks.compare({"a": [1.0]}, {"a": [1.001]}) != []
    assert checks.compare(["INT", "0;1"], ["INT", "0"]) != []


def _simulate_tables(tmp_path, spec):
    run.call_cli([
        "simulate", "--scenario", spec["scenario"], "--n", "300", "--m", str(spec["m"]),
        "--reps", str(spec["reps"]), "--seed", "9", "--methods", ",".join(spec["methods"]),
        "--threads", "1", "--out-dir", str(tmp_path),
    ])
    return (checks.read_csv(tmp_path / "metrics.csv"),
            checks.read_csv(tmp_path / "metrics_per_rep.csv"))


SIM_I = {"scenario": "I", "m": 300, "methods": ("INT", "CRD", "EFF", "KNW"),
         "reps": 4, "tau": (1.0,), "level": 0.95}


def test_simulation_check_accepts_real_output(tmp_path):
    metrics, per_rep = _simulate_tables(tmp_path, SIM_I)
    assert checks.check_simulation(metrics, per_rep, SIM_I) == []


@pytest.mark.parametrize("column, value", [(5, "0.5"), (6, "1e-9"), (7, None)])
def test_simulation_check_rejects_a_wrong_replication(tmp_path, column, value):
    metrics, per_rep = _simulate_tables(tmp_path, SIM_I)
    row = per_rep[1 + 2 * SIM_I["reps"]]  # first EFF replication
    row[column] = value if value is not None else str(1 - int(row[column]))
    assert checks.check_simulation(metrics, per_rep, SIM_I) != []


def test_simulation_check_rejects_missing_rows(tmp_path):
    metrics, per_rep = _simulate_tables(tmp_path, SIM_I)
    assert checks.check_simulation(metrics[:-1], per_rep, SIM_I) != []
    assert checks.check_simulation(metrics, per_rep[:-1], SIM_I) != []
