"""Data types, validation, and serialization round-trips."""

import csv
import importlib
import json
import os
import pkgutil
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import datafuse
import datafuse.model as model
from helpers import csv_files
from oracles import line_ends_by_count
from datafuse import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionResult,
    Method,
    SelectionResult,
    read_internal_csv,
    read_summary_json,
    validate_dataset,
    validate_summary,
    write_internal_csv,
    write_summary_json,
)
from datafuse.errors import (
    AsymmetricCovariance,
    DataFuseError,
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
from datafuse.model import (
    _ARGS,
    _CENSUS_WINDOW,
    _bool,
    _col,
    _cols,
    _line_ends,
    _read_columns_csv,
    _read_columns_fast,
    _summary_from_dict,
    _summary_to_dict,
    _where,
)


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
    np.testing.assert_array_equal(data.column("T"), [0.0, 1.0, 0.0, 1.0, 1.0])
    with pytest.raises(MissingColumn):
        data.column("Z")


def test_validate_dataset_subset_keeps_roles():
    data = validate_dataset({"Y": [1.0, 2.0, 3.0], "T": [0, 1, 0]}, outcome="Y", treatment="T")
    sub = data.subset([2, 0])
    assert sub.n == 2
    np.testing.assert_array_equal(sub.column("Y"), [3.0, 1.0])
    # each column is its own read-only float copy
    for name in ("Y", "T"):
        col = sub.column(name)
        assert col.dtype == float and not np.shares_memory(col, data.column(name))
        with pytest.raises(ValueError):
            col[0] = 9.0


def test_validate_dataset_nonbinary_treatment():
    with pytest.raises(NonBinaryTreatment):
        validate_dataset({"T": [0, 1, 2]}, treatment="T")


def test_validate_dataset_ragged():
    with pytest.raises(RaggedColumns):
        validate_dataset({"A": [1.0] * 5, "B": [1.0] * 4})


def test_validate_dataset_empty_and_short():
    with pytest.raises(RaggedColumns, match=r"^dataset has no columns$"):
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


@pytest.mark.parametrize("covariates", ["X2", b"X2"], ids=["str", "bytes"])
def test_validate_dataset_rejects_a_bare_string_of_covariates(covariates):
    # a string was read as a list of its characters (MissingColumn 'X')
    raw = {"Y": [1.0, 2.0, 3.0], "X2": [0.0, 1.0, 0.5]}
    with pytest.raises(MalformedInput, match="covariates must be a list of column names"):
        validate_dataset(raw, outcome="Y", covariates=covariates)
    assert validate_dataset(raw, outcome="Y", covariates=["X2"]).n == 3


@pytest.mark.parametrize(
    "roles",
    [{"outcome": {}}, {"outcome": b"Y"}, {"treatment": [1]}, {"treatment": 1.0},
     {"covariates": ["X2", {}]}, {"covariates": [None]}],
    ids=["empty-dict-outcome", "bytes-outcome", "list-treatment", "float-treatment",
         "dict-covariate", "none-covariate"],
)
def test_validate_dataset_rejects_a_role_that_is_not_a_string(roles):
    # an empty dict was dropped unchecked and a list raised a raw TypeError
    raw = {"Y": [1.0, 2.0, 3.0], "X2": [0.0, 1.0, 0.5]}
    with pytest.raises(MalformedInput, match="a role must be a column name"):
        validate_dataset(raw, **roles)


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
    # args are an object keyed by name; a list in the table's order was
    # read as one before
    for args in (["Y", "X1"], ("Y", "X1")):
        with pytest.raises(MalformedInput, match="args must be a mapping of names"):
            FunctionalDescriptor.from_json({"functional": "marginal_ols", "args": args})
    with pytest.raises(MalformedInput, match="args must be a mapping of names"):
        FunctionalDescriptor.from_json({"functional": "joint_ols", "args": ["Y", ["X"], False]})


def test_descriptor_requires_functional_key():
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"kind": "mean", "args": {"column": "X"}})
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"functional": "spline", "args": {}})
    with pytest.raises(MalformedInput):
        FunctionalDescriptor.from_json({"functional": "mean", "args": 3})


@pytest.mark.parametrize(
    "enum, value, message",
    [
        (FunctionalKind, "bogus", "unknown functional kind 'bogus'"),
        (FunctionalKind, None, "unknown functional kind None"),
        (Method, "xyz", "unknown method 'xyz'"),
    ],
)
def test_an_unknown_enum_value_is_malformed_input(enum, value, message):
    """The enums raise the package's own error on a value they do not hold,
    not the bare ValueError of Python's Enum."""
    with pytest.raises(MalformedInput) as caught:
        enum(value)
    assert str(caught.value) == message


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


_JOINT = {"functional": "joint_ols", "args": {"outcome": "Y", "regressors": ["X"]}}


@pytest.mark.parametrize(
    "obj, component",
    [
        ({"functional": "mean", "args": {"column": "Y", "where": None, "junk": 1}}, None),
        ({**_JOINT, "args": {**_JOINT["args"], "intercept": True, "junk": 1}}, None),
        ({"functional": "marginal_ols", "args": {"outcome": "Y", "regressor": "X", "junk": 1}},
         None),
        ({"functional": "aipw_ate",
          "args": {"outcome": "Y", "treatment": "T", "covariates": ["X"], "junk": 1}}, None),
        ({"functional": "glm_marginal", "args": {"outcome": "Y", "regressor": "X"}}, None),
        ({"functional": "mean", "args": {"column": "Y"}, "extra": 1}, None),
        ({**_JOINT, "componnet": 1}, None),
        ({**_JOINT, "component": True}, None),
        ({**_JOINT, "component": np.int64(1)}, 1),
    ],
    ids=["mean-extra", "joint-extra", "marginal-extra", "aipw-extra", "glm-kind",
         "unknown-key", "typo-key", "bool-component", "numpy-component"],
)
def test_descriptor_parse_rejects_malformed_input(obj, component):
    # component None: the input is malformed; else the component it reads as.
    # glm_marginal was marginal_ols under another name
    if component is None:
        with pytest.raises(MalformedInput):
            FunctionalDescriptor.from_json(obj)
        return
    desc = FunctionalDescriptor.from_json(obj)
    assert desc.component == component and type(desc.component) is int
    assert json.loads(json.dumps(desc.to_json()))["component"] == component


@pytest.mark.parametrize("obj", [{}, {"args": {"column": "Y"}}, None, ["mean"]])
def test_descriptor_without_functional_is_malformed(obj):
    with pytest.raises(MalformedInput, match=r"^descriptor must be an object with 'functional': "):
        FunctionalDescriptor.from_json(obj)


@pytest.mark.parametrize("value", [1, "yes", 0.0])
def test_intercept_that_is_not_a_boolean_is_malformed(value):
    args = {"outcome": "Y", "regressors": ["X"], "intercept": value}
    with pytest.raises(MalformedInput, match=r"^joint_ols 'intercept' must be a boolean$"):
        FunctionalDescriptor.from_json({"functional": "joint_ols", "args": args})


def test_group_key_is_the_canonical_json_made_once(monkeypatch):
    desc = FunctionalDescriptor(
        FunctionalKind.JOINT_OLS, {"regressors": ["X"], "outcome": "Y"}, component=0
    )
    dumps, calls = json.dumps, []

    def counted(*args, **kwargs):
        calls.append(args)
        return dumps(*args, **kwargs)

    monkeypatch.setattr(json, "dumps", counted)
    want = '{"args": {"outcome": "Y", "regressors": ["X"]}, "functional": "joint_ols"}'
    assert [desc.group_key() for _ in range(3)] == [want] * 3
    assert len(calls) == 1
    assert replace(desc, component=None).group_key() == want and len(calls) == 2


_NAMES = st.sampled_from(["Y", "X", "T", "Z1"])
_VALID = {
    _col: _NAMES,
    _cols: st.lists(_NAMES, min_size=1, max_size=3),
    _bool: st.booleans(),
    _where: st.none() | st.fixed_dictionaries(
        {"column": _NAMES, "equals": st.integers(-2, 2) | st.floats(-2.0, 2.0)}
    ),
}


@st.composite
def _descriptor_cases(draw):
    """(kind, valid values of its table arguments in the table's order, the
    number of them given, component or None)."""
    kind = draw(st.sampled_from(list(FunctionalKind)))
    required, spec = _ARGS[kind]
    values = [draw(_VALID[check]) for _, check in spec]
    count = draw(st.integers(required, len(spec)))
    width = 1
    if kind is FunctionalKind.JOINT_OLS:
        width = len(values[1]) + int(values[2] if count == 3 else True)
    component = draw(st.none() | st.integers(0, width - 1))
    return kind, values, count, component


@settings(max_examples=300, deadline=None)
@given(_descriptor_cases())
def test_keyed_args_read_the_table(case):
    kind, values, count, component = case
    names = [name for name, _ in _ARGS[kind][1]]
    extra = {} if component is None else {"component": component}
    keyed = {"functional": kind.value, "args": dict(zip(names, values[:count])), **extra}
    desc = FunctionalDescriptor.from_json(keyed)
    text = json.dumps(desc.to_json())
    again = FunctionalDescriptor.from_json(json.loads(text))
    assert again == desc and json.dumps(again.to_json()) == text
    assert again.group_key() == desc.group_key()
    required = _ARGS[kind][0]
    for bad in (values[: required - 1], values + ["junk"]):
        args = dict(zip(names + ["junk"], bad))
        with pytest.raises(MalformedInput):
            FunctionalDescriptor.from_json({"functional": kind.value, "args": args})


@pytest.mark.parametrize(
    "call",
    [
        lambda: FunctionalDescriptor(None),
        lambda: FunctionalDescriptor("mean", None),
        lambda: validate_summary([1.0], [[1.0]], 1, None),
    ],
    ids=["kind-None", "args-None", "binding-None"],
)
def test_descriptors_and_summaries_reject_objects_of_the_wrong_type(call):
    # a kind of None raised a raw ValueError, args or a binding of None a
    # raw TypeError
    with pytest.raises(MalformedInput):
        call()


@pytest.mark.parametrize("writer", [write_internal_csv, write_summary_json],
                         ids=lambda f: f.__name__)
def test_writers_reject_what_they_do_not_write(writer, tmp_path):
    # each raised a raw AttributeError on its first read of None
    with pytest.raises(MalformedInput, match="^(dataset|summary) must be"):
        writer(None, tmp_path / "out")
    assert not (tmp_path / "out").exists()


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
    # a 1 x 1 beta passes every other check
    with pytest.raises(DimensionMismatch, match="vector"):
        validate_summary([[1.0]], [[1.0]], 50, _mean_binding(1))


def test_validate_summary_binding_and_finiteness():
    with pytest.raises(MalformedInput):
        validate_summary([1.0], [[1.0]], 50, [{"functional": "mean"}])
    with pytest.raises(NonFiniteValue):
        validate_summary([np.nan], [[1.0]], 50, _mean_binding(1))
    with pytest.raises(NonFiniteValue):
        validate_summary([1.0], [[np.inf]], 50, _mean_binding(1))


# ---------------------------------------------------------------------------
# fits and results


def test_functional_fit_shape_and_finite_checks():
    with pytest.raises(DimensionMismatch):
        FunctionalFit([1.0, 2.0], np.zeros((4, 1)))
    with pytest.raises(DimensionMismatch):
        FunctionalFit([1.0], np.zeros(4))
    with pytest.raises(NonFiniteValue):
        FunctionalFit([np.nan], np.zeros((4, 1)))
    with pytest.raises(NonFiniteValue):
        FunctionalFit([0.0], np.array([[np.inf], [0.0]]))
    # finite values whose squares overflow are rejected where they are
    # calibrated (tests/test_fusion.py), not where the fit is built
    FunctionalFit([0.0], np.array([[1e200], [-1e200]]))


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
    for avar in ([[np.nan]], [[1.0, np.inf], [np.inf, 1.0]]):
        with pytest.raises(NonFiniteValue, match="avar"):
            _result(avar)


@pytest.mark.parametrize(
    "avar", [None, "ab", [["a"]], [[True]], [[1.0], [1.0, 2.0]]],
    ids=["None", "str", "str-entries", "bool", "ragged"],
)
def test_fusion_result_rejects_an_avar_that_is_not_numbers(avar):
    # None read as NaN and raised NonFiniteValue, "the influence moments
    # overflow"; a string raised numpy's ValueError
    base = _result(np.eye(1))
    with pytest.raises(MalformedInput, match="avar must be an array of numbers"):
        replace(base, avar=avar)


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


_SELECTION = {"b_hat": np.array([0.0, 1.5]), "selected": (0,), "lam": 0.1, "alpha": 2.0}


@pytest.mark.parametrize(
    "bad",
    [
        {"selected": None},
        {"selected": (0.0,)},
        {"b_hat": np.array([1.0, 0.0]), "selected": (True,)},
        {"lam": None},
        {"lam": float("nan")},
        {"alpha": "x"},
        {"b_hat": None},
        {"b_hat": [0.0, "x"]},
    ],
    ids=["selected-None", "selected-float", "selected-bool", "lam-None", "lam-nan", "alpha-str",
         "b_hat-None", "b_hat-str"],
)
def test_selection_result_rejects_malformed_arguments(bad):
    # at the parent selected=None and a b_hat with a string raised a raw
    # TypeError or ValueError, b_hat=None a DimensionMismatch, and the others
    # were accepted (a bool in selected was written to JSON as true)
    with pytest.raises(MalformedInput):
        SelectionResult(**{**_SELECTION, **bad})


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


def _csv_outcome(read, path):
    """What `read(path)` returns, or the type and message of its error."""
    try:
        return read(path)
    except DataFuseError as exc:
        return type(exc), str(exc)


def _same_columns(a, b) -> bool:
    return list(a) == list(b) and all(
        np.asarray(a[k], dtype=float).tobytes() == np.asarray(b[k], dtype=float).tobytes()
        for k in a
    )


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("csv") / "internal.csv"


@settings(max_examples=600, deadline=None)
@given(raw=csv_files())
def test_fast_csv_parse_gives_the_csv_loop_result(csv_path, raw):
    # on every file the loop accepts the loadtxt path gives the same bits (or
    # declines); it never accepts a file the loop rejects; and the reader
    # reports the loop's error otherwise
    csv_path.write_bytes(raw)
    fast = _read_columns_fast(csv_path)
    loop = _csv_outcome(_read_columns_csv, csv_path)
    if fast is not None:
        assert isinstance(loop, dict) and _same_columns(fast, loop)
    got = _csv_outcome(read_internal_csv, csv_path)
    want = _csv_outcome(lambda p: validate_dataset(_read_columns_csv(p)), csv_path)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert _same_columns(got.columns, want.columns)


def test_fast_csv_parse_takes_ordinary_files(tmp_path):
    rng = np.random.default_rng(11)
    data = validate_dataset({"X": rng.standard_normal(50) * 1e5, "T": np.tile([0.0, 1.0], 25)})
    path = tmp_path / "written.csv"
    write_internal_csv(data, path)
    crlf = path.read_bytes()
    lf = crlf.replace(b"\r\n", b"\n")
    for raw in (crlf, lf, lf.rstrip(b"\n"), crlf.rstrip(b"\r\n"), b"\xef\xbb\xbf" + lf):
        path.write_bytes(raw)
        fast = _read_columns_fast(path)
        assert fast is not None and _same_columns(fast, _read_columns_csv(path))
    # a blank line, a quoted cell or a lone \r line end leaves it to the loop
    for raw in (lf + b"\n", lf.replace(b",0\n", b',"0"\n', 1), lf.replace(b"\n", b"\r")):
        path.write_bytes(raw)
        assert _read_columns_fast(path) is None


_PIECES = st.sampled_from(
    [b"\n", b"\r", b"\r\n", b"\n\r", b"\r\r", b"1.5", b",", b"\x00", b"\xff"]
)


@st.composite
def _line_end_bytes(draw):
    """(raw, start): a repeated pattern of line ends and other bytes, short or
    one to three census windows long, with pieces written over it at random
    offsets and at the last byte of a window."""
    start = draw(st.integers(0, 4))
    long = st.integers(_CENSUS_WINDOW - 2, 3 * _CENSUS_WINDOW + 2)
    size = draw(st.one_of(st.integers(0, 40), long))
    pattern = b"".join(draw(st.lists(_PIECES, min_size=1, max_size=6)))
    raw = bytearray((pattern * (size // len(pattern) + 1))[:size])
    edges = st.sampled_from([start + k * _CENSUS_WINDOW - 1 for k in (1, 2, 3)])
    for _ in range(draw(st.integers(0, 8))):
        at = draw(st.one_of(st.integers(0, size), edges))
        piece = draw(_PIECES)
        raw[at : at + len(piece)] = piece
    return bytes(raw[:size]), start


@settings(max_examples=300, deadline=None)
@given(case=_line_end_bytes())
@example(case=(b"x" * (_CENSUS_WINDOW - 1) + b"\r\n" + b"x", 0))
@example(case=(b"ab" + b"x" * (_CENSUS_WINDOW - 1) + b"\r\n", 2))
@example(case=(b"x" * (_CENSUS_WINDOW - 1) + b"\r", 0))
def test_line_end_census_counts_as_bytes_count(case):
    raw, start = case
    assert _line_ends(raw, start) == line_ends_by_count(raw, start)


def _with_crlf_across_a_window_edge(crlf: bytes) -> bytes:
    """`crlf` with zeros before its first data cell, as many as put a \\r\\n
    across the edge of the census's first window."""
    start = crlf.index(b"\r\n") + 2
    before = crlf.rindex(b"\r", start, start + _CENSUS_WINDOW - 1)
    raw = crlf[:start] + b"0" * (start + _CENSUS_WINDOW - 1 - before) + crlf[start:]
    assert raw[start + _CENSUS_WINDOW - 1 : start + _CENSUS_WINDOW + 1] == b"\r\n"
    return raw


def test_fast_csv_parse_decides_as_with_bytes_count(tmp_path, monkeypatch):
    # the census leaves every accept/decline decision and every parsed bit
    # of the fast path as the three bytes.count scans gave them
    rng = np.random.default_rng(17)
    data = validate_dataset(
        {"T": np.tile([0.0, 1.0], 1500), "X": rng.standard_normal(3000) * 1e5}
    )
    path = tmp_path / "written.csv"
    write_internal_csv(data, path)
    crlf = path.read_bytes()  # about two census windows
    lf = crlf.replace(b"\r\n", b"\n")
    rows = lf.split(b"\n")
    taken = [
        crlf, lf, lf.rstrip(b"\n"), crlf.rstrip(b"\r\n"), b"\xef\xbb\xbf" + lf,
        _with_crlf_across_a_window_edge(crlf),
    ]
    edges = [
        lf.replace(b"\n", b"\r"),
        crlf.rstrip(b"\n"),
        lf + b"\n",
        b"\n".join(rows[:700] + [b""] + rows[700:]),
        *(lf.replace(b"\n", b"\n" + bytes([c]), 2) for c in range(0x1C, 0x20)),
        b"X\n1\n0." + b"0" * (csv.field_size_limit() + 1) + b"1\n",
    ]
    for i, raw in enumerate(taken + edges):
        path.write_bytes(raw)
        got = _read_columns_fast(path)
        with monkeypatch.context() as patched:
            patched.setattr(model, "_line_ends", line_ends_by_count)
            want = _read_columns_fast(path)
        assert got is not None or i >= len(taken), i
        assert (want is None) == (got is None) and (got is None or _same_columns(got, want)), i


def test_fast_csv_parse_holds_one_copy_of_the_file(tmp_path):
    # the bytes read and the parsed columns, not a decoded copy of the text
    rng = np.random.default_rng(13)
    data = validate_dataset({name: rng.standard_normal(20_000) for name in "YTXZ"})
    crlf = tmp_path / "crlf.csv"
    write_internal_csv(data, crlf)
    lf = tmp_path / "lf.csv"
    lf.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\n"))
    for path in (crlf, lf):
        tracemalloc.start()
        try:
            fast = _read_columns_fast(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fast is not None and _same_columns(fast, _read_columns_csv(path))
        assert peak <= 2.5 * path.stat().st_size, (path.name, peak, path.stat().st_size)


def test_csv_loop_streams_its_rows(tmp_path):
    # files the fast path declines (a quoted header, \r-only line ends) are
    # read by the csv loop, which holds no row after parsing it: the peak of
    # the whole read is the file's bytes (the fast path's attempt) or the
    # columns, not every row as strings and then as Python floats
    rng = np.random.default_rng(13)
    data = validate_dataset({name: rng.standard_normal(20_000) for name in "YTXZ"})
    crlf = tmp_path / "crlf.csv"
    write_internal_csv(data, crlf)
    header, body = crlf.read_bytes().split(b"\r\n", 1)
    quoted = tmp_path / "quoted.csv"
    quoted.write_bytes(b",".join(b'"%s"' % n for n in header.split(b",")) + b"\r\n" + body)
    cr = tmp_path / "cr.csv"
    cr.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\r"))
    for path in (quoted, cr):
        assert _read_columns_fast(path) is None
        tracemalloc.start()
        try:
            got = read_internal_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert _same_columns(got.columns, data.columns)
        assert peak <= 2.5 * path.stat().st_size, (path.name, peak, path.stat().st_size)


def test_csv_loop_raises_at_the_first_fault_it_meets(tmp_path):
    # a ragged row in an earlier 8 KiB chunk than a bad UTF-8 byte is met first
    path = tmp_path / "faults.csv"
    rows = [b"X,Y", b"1.0,2.0,3.0"] + [b"1.0,2.0"] * 5000 + [b"\xff,1.0"]
    path.write_bytes(b"\r".join(rows) + b"\r")
    with pytest.raises(RaggedColumns, match="row 2 has 3 fields"):
        read_internal_csv(path)
    # within one chunk, the decoder meets the bad byte before the rows
    path.write_bytes(b"X,Y\r1.0,2.0,3.0\r\xff,1.0\r")
    with pytest.raises(MalformedInput, match="not UTF-8"):
        read_internal_csv(path)


def test_csv_field_over_the_csv_limit_is_malformed_input(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("X\n1\n0." + "0" * 200_000 + "1\n")
    assert _read_columns_fast(path) is None
    with pytest.raises(MalformedInput, match="field larger than field limit"):
        read_internal_csv(path)


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
        _summary_from_dict({"beta": [1.0], "sigma1": [[1.0]], "m": 10})
    with pytest.raises(MalformedInput):
        _summary_from_dict([1, 2, 3])
    with pytest.raises(MalformedInput):
        _summary_from_dict(
            {"beta": [1.0], "sigma1": [[1.0]], "m": 10, "binding": "mean"}
        )
    ok = _summary_from_dict(
        {
            "beta": [1.0],
            "sigma1": [[1.0]],
            "m": 10,
            "binding": [{"functional": "mean", "args": {"column": "X"}}],
        }
    )
    assert _summary_to_dict(ok)["source_id"] == ""


def test_summary_source_id_null_and_non_string():
    base = {
        "beta": [1.0],
        "sigma1": [[1.0]],
        "m": 10,
        "binding": [{"functional": "mean", "args": {"column": "X"}}],
    }
    assert _summary_from_dict({**base, "source_id": None}).source_id == ""
    assert _summary_from_dict({**base, "source_id": "study-b"}).source_id == "study-b"
    for bad in (3, ["a"], {"id": "a"}, True):
        with pytest.raises(MalformedInput):
            _summary_from_dict({**base, "source_id": bad})


def test_summary_json_io_errors(tmp_path):
    with pytest.raises(IoError):
        read_summary_json(tmp_path / "nope.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(MalformedInput):
        read_summary_json(bad)


def test_writers_raise_io_error_on_a_directory(tmp_path):
    data = validate_dataset({"Y": [1.0, 2.0]})
    summary = validate_summary([1.0], [[1.0]], 10, _mean_binding(1))
    with pytest.raises(IoError, match="cannot write"):
        write_internal_csv(data, tmp_path)
    with pytest.raises(IoError, match="cannot write"):
        write_summary_json(summary, tmp_path)


def _io_case(tmp_path):
    """A dataset and a summary, each written to tmp_path, with their paths."""
    data = validate_dataset({"Y": [1.0, 2.0, 4.0], "X": [0.5, -1.0, 3.0]})
    summary = validate_summary(
        [1.0], [[1.0]], 10, [FunctionalDescriptor(FunctionalKind.MEAN, {"column": "Y"})]
    )
    csv_path, json_path = tmp_path / "internal.csv", tmp_path / "summary.json"
    write_internal_csv(data, csv_path)
    write_summary_json(summary, json_path)
    return data, summary, csv_path, json_path


@pytest.mark.parametrize("bad", [None, 3.5, "fd"])
@pytest.mark.parametrize("reader", ["csv", "json"])
def test_readers_take_only_paths(tmp_path, reader, bad):
    """A reader given anything but a str or os.PathLike raises
    MalformedInput: None and 3.5 reached open() as a raw TypeError, and an
    int was read as a file descriptor (here one open on the very file)."""
    _, _, csv_path, json_path = _io_case(tmp_path)
    read, path = {"csv": (read_internal_csv, csv_path), "json": (read_summary_json, json_path)}[
        reader
    ]
    fd = os.open(path, os.O_RDONLY)
    try:
        with pytest.raises(MalformedInput, match="path must be a path"):
            read(fd if bad == "fd" else bad)
        os.fstat(fd)  # still open
    finally:
        os.close(fd)


@pytest.mark.parametrize("bad", [None, True, 1, "fd"])
@pytest.mark.parametrize("writer", ["csv", "json"])
def test_writers_take_only_paths(tmp_path, writer, bad):
    """A writer given anything but a str or os.PathLike raises MalformedInput
    and leaves the file descriptor an int would name open and unwritten:
    open() took True and 1 as stdout's descriptor, wrote to it and closed it.
    Descriptor 1 is restored whatever happens."""
    data, summary, _, _ = _io_case(tmp_path)
    write, obj = {"csv": (write_internal_csv, data), "json": (write_summary_json, summary)}[writer]
    target = tmp_path / "target"
    fd = os.open(target, os.O_WRONLY | os.O_CREAT)
    stdout = os.dup(1)
    try:
        with pytest.raises(MalformedInput, match="path must be a path"):
            write(obj, fd if bad == "fd" else bad)
        os.fstat(1)  # stdout still open
        os.fstat(fd)
        assert target.stat().st_size == 0
    finally:
        os.dup2(stdout, 1)
        os.close(stdout)
        os.close(fd)


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
