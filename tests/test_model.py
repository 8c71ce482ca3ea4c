"""Data types, validation, and serialization round-trips."""

import importlib
import json
import pkgutil

import numpy as np
import pytest

import datafuse
from datafuse import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionResult,
    Method,
    SelectionResult,
    read_internal_csv,
    read_summary_json,
    summary_from_dict,
    summary_to_dict,
    validate_dataset,
    validate_summary,
    write_internal_csv,
    write_summary_json,
)
from datafuse.errors import (
    AsymmetricCovariance,
    DimensionMismatch,
    IoError,
    MalformedInput,
    MissingColumn,
    NonBinaryTreatment,
    NonFiniteValue,
    NotPSD,
    NotPositiveDefinite,
    RaggedColumns,
)
from datafuse.model import binding_width, expand_binding


# ---------------------------------------------------------------------------
# datasets


def test_validate_dataset_well_formed():
    data = validate_dataset(
        {"Y": [1.0, 2.0, 3.0, 4.0, 5.0], "T": [0, 1, 0, 1, 1], "X": [0.1, 0.2, 0.3, 0.4, 0.5]},
        outcome="Y",
        treatment="T",
        covariates=("X",),
    )
    assert data.n == 5
    assert data.names == ("Y", "T", "X")
    assert data.outcome == "Y" and data.treatment == "T" and data.covariates == ("X",)
    np.testing.assert_array_equal(data.column("T"), [0.0, 1.0, 0.0, 1.0, 1.0])
    with pytest.raises(MissingColumn):
        data.column("Z")


def test_validate_dataset_subset_keeps_roles():
    data = validate_dataset({"Y": [1.0, 2.0, 3.0], "T": [0, 1, 0]}, outcome="Y", treatment="T")
    sub = data.subset([2, 0])
    assert sub.n == 2
    assert sub.outcome == "Y" and sub.treatment == "T"
    np.testing.assert_array_equal(sub.column("Y"), [3.0, 1.0])


def test_validate_dataset_nonbinary_treatment():
    with pytest.raises(NonBinaryTreatment):
        validate_dataset({"T": [0, 1, 2]}, treatment="T")


def test_validate_dataset_ragged():
    with pytest.raises(RaggedColumns):
        validate_dataset({"A": [1.0] * 5, "B": [1.0] * 4})


def test_validate_dataset_empty_and_short():
    with pytest.raises(RaggedColumns):
        validate_dataset({})
    with pytest.raises(RaggedColumns):
        validate_dataset({"A": [1.0]})
    with pytest.raises(RaggedColumns):
        validate_dataset({"A": [[1.0, 2.0], [3.0, 4.0]]})


def test_validate_dataset_nonfinite():
    with pytest.raises(NonFiniteValue):
        validate_dataset({"A": [1.0, np.nan]})
    with pytest.raises(NonFiniteValue):
        validate_dataset({"A": [1.0, np.inf]})


def test_validate_dataset_missing_role():
    with pytest.raises(MissingColumn):
        validate_dataset({"A": [1.0, 2.0]}, outcome="B")
    with pytest.raises(MissingColumn):
        validate_dataset({"A": [1.0, 2.0]}, covariates=("C",))


def test_dataset_columns_read_only():
    data = validate_dataset({"A": [1.0, 2.0]})
    with pytest.raises(ValueError):
        data.column("A")[0] = 9.0


# ---------------------------------------------------------------------------
# functional descriptors


def test_descriptor_json_round_trip():
    desc = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X", "T"], "intercept": True},
    )
    again = FunctionalDescriptor.from_json(json.loads(json.dumps(desc.to_json())))
    assert again == desc
    assert desc.width() == 3


def test_descriptor_positional_args():
    desc = FunctionalDescriptor.from_json(
        {"functional": "marginal_ols", "args": ["Y", "X1"]}
    )
    assert desc.args == {"outcome": "Y", "regressor": "X1"}
    joint = FunctionalDescriptor.from_json(
        {"functional": "joint_ols", "args": ["Y", ["X"], False]}
    )
    assert joint.args == {"outcome": "Y", "regressors": ["X"], "intercept": False}
    assert joint.width() == 1


def test_descriptor_requires_functional_key():
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"kind": "mean", "args": {"column": "X"}})
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"functional": "spline", "args": {}})
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"functional": "mean", "args": 3})


def test_descriptor_arg_validation():
    with pytest.raises(MalformedInput):
        FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X", "rows": [1]})
    with pytest.raises(MalformedInput):
        FunctionalDescriptor(FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": []})
    with pytest.raises(MalformedInput):
        FunctionalDescriptor(
            FunctionalKind.MEAN, {"column": "X", "where": {"column": "T"}}
        )
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"functional": "mean", "args": []})


def test_descriptor_component_bounds():
    base = {"outcome": "Y", "regressors": ["A", "B"], "intercept": True}
    desc = FunctionalDescriptor(FunctionalKind.JOINT_OLS, base, component=2)
    assert desc.width() == 1
    assert desc.group_key() == FunctionalDescriptor(FunctionalKind.JOINT_OLS, base).group_key()
    with pytest.raises(MalformedInput):
        FunctionalDescriptor(FunctionalKind.JOINT_OLS, base, component=3)
    with pytest.raises(MalformedInput):
        FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"}, component=1)


def test_expand_binding_enumerates_components():
    joint = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"outcome": "Y", "regressors": ["A"], "intercept": True}
    )
    mean = FunctionalDescriptor(FunctionalKind.MEAN, {"column": "X"})
    pairs = expand_binding([joint, mean])
    assert [c for _, c in pairs] == [0, 1, 0]
    assert binding_width([joint, mean]) == 3
    only = expand_binding([joint.with_component(1)])
    assert only == [(joint.with_component(1), 1)]


# ---------------------------------------------------------------------------
# summary statistics


def _mean_binding(q):
    return [FunctionalDescriptor(FunctionalKind.MEAN, {"column": f"c{j}"}) for j in range(q)]


def test_validate_summary_well_formed():
    s = validate_summary([2.0], [[1.0]], 100, _mean_binding(1), source_id="ext")
    assert s.q == 1 and s.m == 100 and s.source_id == "ext"
    np.testing.assert_array_equal(s.beta, [2.0])


def test_validate_summary_scalar_sigma_promoted():
    s = validate_summary([2.0], 1.0, 100, _mean_binding(1))
    assert s.sigma1.shape == (1, 1)


def test_validate_summary_asymmetric():
    with pytest.raises(AsymmetricCovariance):
        validate_summary([1.0, 2.0], [[1.0, 0.5], [0.4, 1.0]], 50, _mean_binding(2))


def test_validate_summary_not_psd():
    with pytest.raises(NotPSD):
        validate_summary([1.0], [[-1.0]], 50, _mean_binding(1))


def test_validate_summary_shape_and_m_errors():
    with pytest.raises(DimensionMismatch):
        validate_summary([1.0, 2.0], [[1.0]], 50, _mean_binding(2))
    with pytest.raises(DimensionMismatch):
        validate_summary([1.0], [[1.0]], 0, _mean_binding(1))
    with pytest.raises(DimensionMismatch):
        validate_summary([1.0], [[1.0]], 1.5, _mean_binding(1))
    with pytest.raises(DimensionMismatch):
        validate_summary([1.0], [[1.0]], True, _mean_binding(1))
    with pytest.raises(DimensionMismatch):
        validate_summary([1.0, 2.0], np.eye(2), 50, _mean_binding(1))


def test_validate_summary_binding_and_finiteness():
    with pytest.raises(MalformedInput):
        validate_summary([1.0], [[1.0]], 50, [{"functional": "mean"}])
    with pytest.raises(NonFiniteValue):
        validate_summary([np.nan], [[1.0]], 50, _mean_binding(1))
    with pytest.raises(NonFiniteValue):
        validate_summary([1.0], [[np.inf]], 50, _mean_binding(1))


# ---------------------------------------------------------------------------
# fits and results


def test_functional_fit_rejects_uncentered_influence():
    good = FunctionalFit([1.0], np.array([[-1.0], [0.0], [1.0]]))
    assert good.n == 3 and good.p == 1
    with pytest.raises(DimensionMismatch):
        FunctionalFit([1.0], np.array([[1.0], [2.0], [3.0]]))


def test_functional_fit_shape_and_finite_checks():
    with pytest.raises(DimensionMismatch):
        FunctionalFit([1.0, 2.0], np.zeros((4, 1)))
    with pytest.raises(DimensionMismatch):
        FunctionalFit([1.0], np.zeros(4))
    with pytest.raises(NonFiniteValue):
        FunctionalFit([np.nan], np.zeros((4, 1)))


def _result(avar, se=None, estimate=None):
    p = np.asarray(avar).shape[0]
    est = np.asarray(estimate if estimate is not None else np.zeros(p), dtype=float)
    se_arr = np.asarray(se if se is not None else np.ones(p), dtype=float)
    return FusionResult(
        method=Method.INT,
        estimate=est,
        avar=np.asarray(avar, dtype=float),
        se=se_arr,
        gain=np.zeros((p, 0)),
        cross=np.zeros((p, 0)),
        gram=np.zeros((0, 0)),
        rho=0.0,
        ci=np.column_stack([est - se_arr, est + se_arr]),
        level=0.95,
        p_one_sided=np.full(p, 0.5),
    )


def test_fusion_result_rejects_bad_avar():
    _result(np.eye(2))
    with pytest.raises(DimensionMismatch):
        _result([[1.0, 0.5], [0.2, 1.0]])
    with pytest.raises(NotPositiveDefinite):
        _result([[1.0, 2.0], [2.0, 1.0]])


def test_fusion_result_json_dict():
    out = _result(np.eye(1), estimate=[2.5]).to_json_dict()
    assert out["method"] == "INT"
    assert out["estimate"] == [2.5]
    assert out["working_covariance"] is False
    assert json.dumps(out)


def test_selection_result_zero_set_consistency():
    sel = SelectionResult(b_hat=np.array([0.0, 1.5]), selected=(0,), lam=0.1, alpha=2.0)
    assert sel.to_json_dict()["lambda"] == 0.1
    assert sel.to_json_dict()["selected"] == [0]
    with pytest.raises(DimensionMismatch):
        SelectionResult(b_hat=np.array([0.0, 1.5]), selected=(1,), lam=0.1, alpha=2.0)
    with pytest.raises(DimensionMismatch):
        SelectionResult(b_hat=np.array([1e-14, 1.5]), selected=(0,), lam=0.1, alpha=2.0)


# ---------------------------------------------------------------------------
# serialization


def test_internal_csv_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    data = validate_dataset(
        {"Y": rng.standard_normal(9), "T": (rng.random(9) < 0.5).astype(float),
         "X": rng.standard_normal(9) * 1e-8},
        outcome="Y",
        treatment="T",
        covariates=("X",),
    )
    path = tmp_path / "internal.csv"
    write_internal_csv(data, path)
    back = read_internal_csv(path, outcome="Y", treatment="T", covariates=("X",))
    assert back.n == data.n and back.names == data.names
    for name in data.names:
        np.testing.assert_array_equal(back.column(name), data.column(name))


def test_internal_csv_errors(tmp_path):
    with pytest.raises(IoError):
        read_internal_csv(tmp_path / "missing.csv")
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(MalformedInput):
        read_internal_csv(empty)
    dup = tmp_path / "dup.csv"
    dup.write_text("A,A\n1,2\n3,4\n")
    with pytest.raises(MalformedInput):
        read_internal_csv(dup)
    text = tmp_path / "text.csv"
    text.write_text("A,B\n1,x\n")
    with pytest.raises(MalformedInput):
        read_internal_csv(text)
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("A,B\n1,2\n3\n")
    with pytest.raises(RaggedColumns):
        read_internal_csv(ragged)


def test_summary_json_round_trip(tmp_path):
    binding = [
        FunctionalDescriptor(
            FunctionalKind.JOINT_OLS,
            {"outcome": "Y", "regressors": ["X", "T"], "intercept": True},
        )
    ]
    s = validate_summary(
        [1.0 / 3.0, -2.0, 5e-17],
        np.diag([1.0, 2.0, 3.0]),
        250,
        binding,
        source_id="study-a",
    )
    path = tmp_path / "summary.json"
    write_summary_json(s, path)
    back = read_summary_json(path)
    np.testing.assert_array_equal(back.beta, s.beta)
    np.testing.assert_array_equal(back.sigma1, s.sigma1)
    assert back.m == s.m and back.source_id == s.source_id
    assert back.binding == s.binding


def test_summary_dict_requires_keys():
    with pytest.raises(MalformedInput):
        summary_from_dict({"beta": [1.0], "sigma1": [[1.0]], "m": 10})
    with pytest.raises(MalformedInput):
        summary_from_dict([1, 2, 3])
    with pytest.raises(MalformedInput):
        summary_from_dict(
            {"beta": [1.0], "sigma1": [[1.0]], "m": 10, "binding": "mean"}
        )
    ok = summary_from_dict(
        {
            "beta": [1.0],
            "sigma1": [[1.0]],
            "m": 10,
            "binding": [{"functional": "mean", "args": {"column": "X"}}],
        }
    )
    assert summary_to_dict(ok)["source_id"] == ""


def test_summary_json_io_errors(tmp_path):
    with pytest.raises(IoError):
        read_summary_json(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedInput):
        read_summary_json(bad)


# ---------------------------------------------------------------------------
# package surface


def test_every_exported_name_resolves():
    modules = [datafuse] + [
        importlib.import_module(f"datafuse.{info.name}")
        for info in pkgutil.iter_modules(datafuse.__path__)
    ]
    for module in modules:
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module.__name__}.__all__ names missing {name!r}"
