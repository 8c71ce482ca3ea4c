"""Core data types: datasets, summary statistics, fits, and results.

Conventions used throughout the package:
  * all empirical second moments divide by n (never n-1), so moment
    algebra composes exactly across modules;
  * the covariance attached to an external summary is the covariance of
    the sqrt(m)-scaled estimator, i.e. it does not shrink with m;
  * machine-format output (CSV) prints floats with 17 significant digits;
    JSON uses Python's shortest round-trip representation.
Indices in machine formats are 0-based.
"""

import csv
import io
import json
import math
import os
from array import array
from dataclasses import dataclass, field, fields
from enum import Enum
from typing import Mapping, Optional, Sequence

import numpy as np

from ._linalg import AVAR_TOL, PSD_TOL, SYMMETRY_TOL, max_asymmetry, min_eigenvalue
from .errors import (
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

FLOAT_FMT = "%.17g"
_CENSUS_WINDOW = 1 << 16  # bytes per step of _line_ends


def _readonly(values) -> np.ndarray:
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _integer(name: str, value, low: int):
    """`value` if it is an integer (not a bool) of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
        raise MalformedInput(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def _real(name: str, value) -> float:
    """`value` as a float if it is a finite real number (not a bool)."""
    if not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an int beyond the float range
            pass
    raise MalformedInput(f"{name} must be a finite number, got {value!r}")


def _floats(name: str, values) -> np.ndarray:
    """`values` as a float array, MalformedInput if they are not numbers (a
    string, a ragged nesting); NaN and inf are kept."""
    try:
        return np.asarray(values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise MalformedInput(f"{name} must be an array of numbers, got {values!r}") from None


def _seed(value):
    """`value` if it is an integer >= 0 or a numpy SeedSequence."""
    return value if isinstance(value, np.random.SeedSequence) else _integer("seed", value, 0)


def _reals(name: str, values) -> tuple:
    """`values`, a list or tuple of real numbers, as a tuple of floats."""
    if not isinstance(values, (list, tuple)):
        raise MalformedInput(f"{name} must be a list of numbers, got {values!r}")
    return tuple(_real(name, v) for v in values)


def _check_type(name: str, value, kind: type, optional: bool = False) -> None:
    """MalformedInput unless `value` is a `kind` (or None, if `optional`)."""
    if not (isinstance(value, kind) or (optional and value is None)):
        also = " or None" if optional else ""
        raise MalformedInput(f"{name} must be a {kind.__name__}{also}, got {value!r}")


def _items(name: str, values, kind: type) -> tuple:
    """`values` as a tuple, if it is an iterable of `kind`s (a bool is not
    read as an int)."""
    try:
        found = tuple(values)
    except TypeError:
        found = None
    if found is None or not all(isinstance(v, kind) and not isinstance(v, bool) for v in found):
        raise MalformedInput(f"{name} must be a list of {kind.__name__}, got {values!r}")
    return found


def _config_keys(prefix: str, obj, cls: type) -> dict:
    """A copy of `obj` if it is a dict whose keys all name fields of the
    dataclass `cls`; `prefix` names the config in the messages."""
    if not isinstance(obj, dict):
        raise MalformedInput(f"{prefix} must be a table/object")
    extra = set(obj) - {f.name for f in fields(cls)}
    if extra:
        raise MalformedInput(f"unknown {prefix} keys {sorted(extra)}")
    return dict(obj)


# ---------------------------------------------------------------------------
# datasets


@dataclass(frozen=True)
class InternalDataset:
    """Validated named-column table of internal individual-level data."""

    columns: Mapping[str, np.ndarray]
    n: int

    def column(self, name: str) -> np.ndarray:
        try:
            return self.columns[name]
        except KeyError:
            raise MissingColumn(f"column {name!r} not in dataset") from None

    @property
    def names(self) -> tuple:
        return tuple(self.columns)

    def subset(self, idx) -> "InternalDataset":
        """Row subset (used by cross-validation folds); `idx` is a
        one-dimensional array of integer row indices, possibly empty."""
        try:
            rows = np.asarray(idx)
        except ValueError:  # ragged nesting
            rows = None
        if rows is not None and rows.ndim == 1 and rows.size == 0:
            rows = rows.astype(np.intp)  # [] is float64
        if rows is None or rows.ndim != 1 or rows.dtype.kind not in "iu":
            raise MalformedInput(f"idx must be a one-dimensional array of row indices, got {idx!r}")
        idx = rows
        cols = {name: arr[idx] for name, arr in self.columns.items()}  # new arrays
        for col in cols.values():
            col.setflags(write=False)
        return InternalDataset(columns=cols, n=int(idx.size))


def validate_dataset(
    raw: Mapping[str, Sequence[float]],
    outcome: Optional[str] = None,
    treatment: Optional[str] = None,
    covariates: Sequence[str] = (),
) -> InternalDataset:
    """Build an InternalDataset from raw columns, enforcing the contract.

    Columns must share a common length n >= 2 and contain only finite
    numbers. The roles are checked, not stored: each is a column name (a
    str) that must exist, and a declared treatment column must take values
    in {0, 1}.
    """
    if not isinstance(raw, Mapping):
        raise MalformedInput(f"raw must be a mapping of column names to values, got {raw!r}")
    if not raw:
        raise RaggedColumns("dataset has no columns")
    cols = {}
    n = None
    for name, values in raw.items():
        arr = _floats(f"column {name!r}", values)
        if arr.ndim != 1:
            raise RaggedColumns(f"column {name!r} is not one-dimensional")
        if n is None:
            n = arr.shape[0]
        elif arr.shape[0] != n:
            raise RaggedColumns(
                f"column {name!r} has length {arr.shape[0]}, expected {n}"
            )
        if not np.all(np.isfinite(arr)):
            raise NonFiniteValue(f"column {name!r} contains non-finite values")
        cols[name] = _readonly(arr)
    if n is None or n < 2:
        raise RaggedColumns(f"dataset needs at least 2 rows, got {n}")
    try:
        listed = None if isinstance(covariates, (str, bytes)) else list(covariates)
    except TypeError:  # not iterable
        listed = None
    if listed is None:
        raise MalformedInput(f"covariates must be a list of column names, got {covariates!r}")
    roles = [role for role in (outcome, treatment) if role is not None] + listed
    for role_name in roles:
        if not isinstance(role_name, str):
            raise MalformedInput(f"a role must be a column name, got {role_name!r}")
        if role_name not in cols:
            raise MissingColumn(f"role refers to missing column {role_name!r}")
    if treatment is not None:
        t = cols[treatment]
        if not np.all((t == 0.0) | (t == 1.0)):
            raise NonBinaryTreatment(
                f"treatment column {treatment!r} has values outside {{0, 1}}"
            )
    return InternalDataset(columns=cols, n=int(n))


# ---------------------------------------------------------------------------
# functional descriptors


class FunctionalKind(str, Enum):
    MEAN = "mean"
    JOINT_OLS = "joint_ols"
    MARGINAL_OLS = "marginal_ols"
    AIPW_ATE = "aipw_ate"

    @classmethod
    def _missing_(cls, value):
        raise MalformedInput(f"unknown functional kind {value!r}")


@dataclass(frozen=True, eq=True)
class FunctionalDescriptor:
    """Names a functional kind plus the column arguments it acts on.

    Each kind's arguments and which are required are in one table, `_ARGS`;
    their names are the keyword names of the kind's fitter. Unknown or
    missing arguments raise MalformedInput.
    `component` optionally restricts a multi-coefficient fit (joint OLS) to a
    single 0-based coefficient (an integer, not a bool): a summary then
    reports part of a fit, and a target estimates that one coefficient.
    """

    kind: FunctionalKind
    args: Mapping[str, object] = field(default_factory=dict)
    component: Optional[int] = None

    def __post_init__(self):
        kind = FunctionalKind(self.kind)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "args", _validate_args(kind, self.args))
        if self.component is not None:
            component = int(_integer("component", self.component, 0))
            width = self._base_width()
            if component >= width:
                raise MalformedInput(f"component {component!r} out of range for width {width}")
            object.__setattr__(self, "component", component)

    def _base_width(self) -> int:
        if self.kind is FunctionalKind.JOINT_OLS:
            intercept = bool(self.args.get("intercept", True))
            return len(self.args["regressors"]) + int(intercept)
        return 1

    def _coefficients(self) -> range:
        """The coefficients of this descriptor's fit that it reports: its
        component, or all of them."""
        if self.component is not None:
            return range(self.component, self.component + 1)
        return range(self._base_width())

    def width(self) -> int:
        """Number of summary coordinates this descriptor contributes."""
        return len(self._coefficients())

    def group_key(self) -> str:
        """Canonical key identifying the underlying fit (ignores component),
        computed on the first call and kept: the descriptor is frozen."""
        key = self.__dict__.get("_group_key")
        if key is None:
            key = json.dumps({"functional": self.kind.value, "args": self.args}, sort_keys=True)
            object.__setattr__(self, "_group_key", key)
        return key

    def to_json(self) -> dict:
        out = {"functional": self.kind.value, "args": dict(self.args)}
        if self.component is not None:
            out["component"] = self.component
        return out

    @classmethod
    def from_json(cls, obj) -> "FunctionalDescriptor":
        if not isinstance(obj, Mapping) or "functional" not in obj:
            raise MalformedInput(f"descriptor must be an object with 'functional': {obj!r}")
        extra = set(obj) - {"functional", "args", "component"}
        if extra:
            raise MalformedInput(f"unknown descriptor keys {sorted(extra)}")
        return cls(obj["functional"], obj.get("args", {}), obj.get("component"))


def _col(owner, key, value):
    if not isinstance(value, str):
        raise MalformedInput(f"{owner} requires string arg {key!r}")
    return value


def _cols(owner, key, value):
    if not (isinstance(value, (list, tuple)) and value and all(isinstance(v, str) for v in value)):
        raise MalformedInput(f"{owner} requires non-empty name list {key!r}")
    return list(value)


def _bool(owner, key, value):
    if not isinstance(value, bool):
        raise MalformedInput(f"{owner} {key!r} must be a boolean")
    return value


def _where(owner, key, where):
    if where is None:
        return None
    if (
        not isinstance(where, Mapping)
        or set(where) != {"column", "equals"}
        or not isinstance(where["column"], str)
    ):
        raise MalformedInput("mean 'where' must be {'column': name, 'equals': number}")
    return {"column": where["column"], "equals": _real("mean 'where' equals", where["equals"])}


# Each kind's arguments as (name, check), after the number of leading ones
# that are required. The names are the keyword names of the kind's fitter,
# which runs the same checks on its arguments; a check, given the name of the
# kind (or fitter) it serves, returns the canonical value or raises
# MalformedInput.
_ARGS = {
    FunctionalKind.MEAN: (1, (("column", _col), ("where", _where))),
    FunctionalKind.JOINT_OLS: (2, (("outcome", _col), ("regressors", _cols), ("intercept", _bool))),
    FunctionalKind.MARGINAL_OLS: (2, (("outcome", _col), ("regressor", _col))),
    FunctionalKind.AIPW_ATE: (3, (("outcome", _col), ("treatment", _col), ("covariates", _cols))),
}


def _validate_args(kind: FunctionalKind, args: Mapping) -> dict:
    """Canonical copy of `args` (in the caller's key order) checked against
    the kind's table entry; a missing required argument fails its check and
    an optional one whose check returns None is dropped."""
    required, spec = _ARGS[kind]
    if not isinstance(args, Mapping):
        raise MalformedInput(f"{kind.value} args must be a mapping of names, got {args!r}")
    extra = set(args) - {name for name, _ in spec}
    if extra:
        raise MalformedInput(f"{kind.value} got unexpected args {sorted(extra)}")
    out = dict(args)
    for i, (name, check) in enumerate(spec):
        if i < required or name in out:
            out[name] = check(kind.value, name, out.get(name))
            if out[name] is None:  # a null `where`, the same as none
                del out[name]
    return out


# ---------------------------------------------------------------------------
# summary statistics


@dataclass(frozen=True)
class SummaryStatistic:
    """External summary: estimate, sqrt(m)-scaled covariance, and binding."""

    beta: np.ndarray
    sigma1: np.ndarray
    m: int
    binding: tuple
    source_id: str = ""

    @property
    def q(self) -> int:
        return int(self.beta.shape[0])


def validate_summary(
    beta,
    sigma1,
    m: int,
    binding: Sequence[FunctionalDescriptor],
    source_id: str = "",
) -> SummaryStatistic:
    """Build a SummaryStatistic, enforcing symmetry/PSD/shape contracts."""
    try:
        beta = np.atleast_1d(np.asarray(beta, dtype=float))
        sigma1 = np.asarray(sigma1, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise MalformedInput(f"summary beta and sigma1 must be numeric arrays: {exc}") from None
    if sigma1.ndim == 0:
        sigma1 = sigma1.reshape(1, 1)
    if beta.ndim != 1:
        raise DimensionMismatch("beta must be a vector")
    q = beta.shape[0]
    if sigma1.shape != (q, q):
        raise DimensionMismatch(
            f"sigma1 shape {sigma1.shape} does not match beta length {q}"
        )
    if not np.all(np.isfinite(beta)) or not np.all(np.isfinite(sigma1)):
        raise NonFiniteValue("summary contains non-finite values")
    asymmetry = max_asymmetry(sigma1)
    if asymmetry > SYMMETRY_TOL:
        raise AsymmetricCovariance(f"sigma1 asymmetry {asymmetry:.3e} exceeds {SYMMETRY_TOL}")
    least = min_eigenvalue(sigma1)
    if least < PSD_TOL:
        raise NotPSD(f"sigma1 has eigenvalue {least:.3e} < {PSD_TOL}")
    if not isinstance(m, (int, np.integer)) or isinstance(m, bool) or m <= 0:
        raise DimensionMismatch(f"m must be a positive integer, got {m!r}")
    _real("m", m)  # an integer beyond the float range is malformed
    binding = _items("binding", binding, FunctionalDescriptor)
    width = sum(d.width() for d in binding)
    if width != q:
        raise DimensionMismatch(f"binding covers {width} coordinates, beta has {q}")
    return SummaryStatistic(
        beta=_readonly(beta),
        sigma1=_readonly(sigma1),
        m=int(m),
        binding=binding,
        source_id=str(source_id),
    )


# ---------------------------------------------------------------------------
# fits and results


@dataclass(frozen=True)
class FunctionalFit:
    """Point estimate plus per-observation influence columns.

    A non-finite estimate or influence raises NonFiniteValue, and influence
    whose shape does not match the estimate DimensionMismatch. Whether the
    columns are centered is checked where they enter a calibration
    (fusion.FusionInputs), which is the only consumer that needs it.
    """

    estimate: np.ndarray
    influence: np.ndarray
    label: str = ""
    # set on an aipw_ate fit to its propensity coefficient, which refits of
    # the same model on other rows start from; not part of the fit's value
    _propensity = None

    def __post_init__(self):
        try:
            estimate = np.atleast_1d(np.asarray(self.estimate, dtype=float))
            influence = np.asarray(self.influence, dtype=float)
        except (TypeError, ValueError, OverflowError):  # raised again, naming the argument
            estimate = np.atleast_1d(_floats("estimate", self.estimate))
            influence = _floats("influence", self.influence)
        if influence.ndim != 2 or influence.shape[1] != estimate.shape[0]:
            raise DimensionMismatch(
                f"influence shape {influence.shape} does not match "
                f"estimate length {estimate.shape[0]}"
            )
        if not (np.isfinite(estimate).all() and np.isfinite(influence).all()):
            raise NonFiniteValue(f"fit {self.label!r} has non-finite values")
        object.__setattr__(self, "estimate", _readonly(estimate))
        object.__setattr__(self, "influence", _readonly(influence))

    @property
    def n(self) -> int:
        return int(self.influence.shape[0])

    @property
    def p(self) -> int:
        return int(self.estimate.shape[0])


class Method(str, Enum):
    INT = "INT"
    CRD = "CRD"
    EFF = "EFF"
    KNW = "KNW"
    DBS = "DBS"
    ORC = "ORC"

    @classmethod
    def _missing_(cls, value):
        raise MalformedInput(f"unknown method {value!r}")


@dataclass(frozen=True)
class FusionResult:
    """Estimate, its plug-in avar, se, the calibration gain, and the Wald
    interval and one-sided p built from them. The influence moments behind
    the gain are not kept."""

    method: Method
    estimate: np.ndarray
    avar: np.ndarray
    se: np.ndarray
    gain: np.ndarray
    ci: np.ndarray
    level: float
    p_one_sided: np.ndarray
    warnings: tuple = ()

    def __post_init__(self):
        try:
            avar = np.asarray(self.avar)
        except ValueError:  # ragged nesting
            avar = None
        if avar is None or avar.dtype.kind not in "iuf":
            raise MalformedInput(f"avar must be an array of numbers, got {self.avar!r}")
        avar = np.asarray(avar, dtype=float)
        if not np.isfinite(avar).all():
            raise NonFiniteValue("avar is not finite: the influence moments overflow")
        scale = AVAR_TOL * (1.0 + (abs(avar).max() if avar.size else 0.0))
        if max_asymmetry(avar) > scale:
            raise DimensionMismatch("avar is not symmetric")
        if min_eigenvalue(avar) < -scale:
            raise NotPositiveDefinite("avar is not positive semidefinite")

    def to_json_dict(self) -> dict:
        return {
            "method": self.method.value,
            "estimate": self.estimate.tolist(),
            "se": self.se.tolist(),
            "ci": self.ci.tolist(),
            "p_one_sided": [_none_if_nan(p) for p in self.p_one_sided.tolist()],
            "avar": self.avar.tolist(),
            "gain": self.gain.tolist(),
            "warnings": list(self.warnings),
            "working_covariance": False,  # always false; bench/reference.json has the key
        }


@dataclass(frozen=True)
class SelectionResult:
    """Adaptive-lasso output: bias estimates and the selected (zero) set.

    `b_hat` is a vector of finite numbers, `lam` and `alpha` are finite
    numbers and `selected` is a list of int, else MalformedInput; a
    `selected` other than the exact zeros of `b_hat` is a DimensionMismatch.
    """

    b_hat: np.ndarray
    selected: tuple
    lam: float
    alpha: float
    cv_trace: tuple = ()

    def __post_init__(self):
        try:
            b = np.asarray(self.b_hat, dtype=float)
        except (TypeError, ValueError):  # not numbers, or ragged
            b = None
        if b is None or b.ndim != 1 or not np.isfinite(b).all():
            raise MalformedInput(f"b_hat must be a vector of finite numbers, got {self.b_hat!r}")
        _real("lam", self.lam)
        _real("alpha", self.alpha)
        zeros = tuple(int(j) for j in np.flatnonzero(b == 0.0))
        if _items("selected", self.selected, int) != zeros:
            raise DimensionMismatch(
                f"selected {self.selected} does not equal exact zeros {zeros}"
            )

    def to_json_dict(self) -> dict:
        return {
            "b_hat": np.asarray(self.b_hat, dtype=float).tolist(),
            "selected": list(self.selected),
            "lambda": self.lam,
            "alpha": self.alpha,
            "cv_trace": [[c, e] for c, e in self.cv_trace],
        }


def _none_if_nan(x):
    return None if (isinstance(x, float) and math.isnan(x)) else x


# ---------------------------------------------------------------------------
# serialization


def _path(path, name: str = "path") -> None:
    """Check that `path`, the argument `name`, is a str or os.PathLike:
    open() also takes an int (True among them) as a file descriptor, and
    closes it when done."""
    if not isinstance(path, (str, os.PathLike)):
        raise MalformedInput(f"{name} must be a path, got {path!r}")


def write_internal_csv(dataset: InternalDataset, path):
    """UTF-8 CSV with a header row; floats keep 17 significant digits."""
    _check_type("dataset", dataset, InternalDataset)
    _path(path)
    try:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(dataset.names)
            arrays = [dataset.columns[name] for name in dataset.names]
            for row in zip(*arrays):
                writer.writerow([FLOAT_FMT % v for v in row])
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_internal_csv(
    path,
    outcome: Optional[str] = None,
    treatment: Optional[str] = None,
    covariates: Sequence[str] = (),
) -> InternalDataset:
    """Dataset from a UTF-8 CSV with a header row of distinct names and one
    number per cell (anything Python's float() reads, then validated)."""
    _path(path)
    data = _read_columns_fast(path)
    if data is None:
        data = _read_columns_csv(path)
    return validate_dataset(data, outcome=outcome, treatment=treatment, covariates=covariates)


def _read_columns_fast(path):
    """The columns _read_columns_csv would return, parsed by np.loadtxt, or
    None when that parse might differ from it; the caller then runs it.

    Taken only when the header line has no quote character, the body is not
    empty, no run of bytes between two \\n is longer than the csv module's
    field limit, no byte is 0x1c-0x1f (whitespace to loadtxt, not to
    float()) and loadtxt returns one row of header width per line of the
    body: loadtxt skips blank lines, which the csv reader returns as empty
    (ragged) rows. Otherwise loadtxt reads a number exactly when float()
    does, to the same bits. The bytes read are the only copy of the file
    held: every check searches them in place or counts them a window at a
    time, and loadtxt decodes them line by line from a BytesIO that shares
    them.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        if any(sep in raw for sep in (b"\x1c", b"\x1d", b"\x1e", b"\x1f")):
            return None
        # a csv line, so each of its fields, lies between two \n: a window
        # of `limit` bytes after each \n found must hold another (or the end)
        limit, last = csv.field_size_limit(), -1
        while len(raw) - last > limit:
            last = raw.rfind(b"\n", last + 1, last + limit + 1)
            if last < 0:
                return None
        # line ends as the csv reader sees them: \n, \r and \r\n
        ends = [i for i in (raw.find(b"\n"), raw.find(b"\r")) if i >= 0]
        if not ends:
            return None
        end = min(ends)
        start = end + 1 + raw.startswith(b"\r\n", end)
        header_line = raw[:end].decode("utf-8")
        if '"' in header_line:
            return None
        header = next(csv.reader([header_line]))
        if not header or len(set(header)) != len(header):
            return None
        breaks, lines = _line_ends(raw, start)
        if breaks == len(raw) - start:  # loadtxt warns on finding no rows
            return None
        body = io.BytesIO(raw)
        body.seek(start)
        values = np.loadtxt(
            body, delimiter=",", comments=None, ndmin=2, dtype=float, encoding="utf-8"
        )
    except (OSError, ValueError, csv.Error):
        return None
    if values.shape != (lines, len(header)):
        return None
    return {name: values[:, j] for j, name in enumerate(header)}


def _line_ends(raw: bytes, start: int) -> tuple:
    """(breaks, lines) of raw[start:]: breaks counts its \\n and \\r bytes,
    lines the csv reader's lines (\\n, \\r and \\r\\n each end one, and an
    unterminated last line counts). One pass over fixed windows of the bytes,
    each reaching one byte into the next so that a \\r\\n across an edge is
    seen once; no array larger than a window is made."""
    buf = np.frombuffer(raw, np.uint8)
    breaks = pairs = 0
    for lo in range(start, len(raw), _CENSUS_WINDOW):
        window = buf[lo : lo + _CENSUS_WINDOW + 1]
        lf, cr = window == 10, window == 13
        breaks += np.count_nonzero((lf | cr)[:_CENSUS_WINDOW])
        pairs += np.count_nonzero(cr[:-1] & lf[1:])
    return breaks, breaks - pairs + (not raw.endswith((b"\n", b"\r")))


def _read_columns_csv(path) -> dict:
    """Columns of the CSV as float arrays, one csv row and float() per cell,
    streamed into one array('d') per column. The first fault met raises: the
    text is decoded a chunk at a time, before the chunk's rows are parsed."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            rows = csv.reader(fh)
            header = next(rows, None)
            if header is None:
                raise MalformedInput(f"{path}: empty file")
            if len(set(header)) != len(header):
                raise MalformedInput(f"{path}: duplicate column names")
            width = len(header)
            columns = [array("d") for _ in header]
            for i, row in enumerate(rows, start=2):
                if len(row) != width:
                    raise RaggedColumns(f"{path}: row {i} has {len(row)} fields, expected {width}")
                for name, column, cell in zip(header, columns, row):
                    try:
                        column.append(float(cell))
                    except ValueError:
                        raise MalformedInput(
                            f"{path}: row {i}, column {name!r}: not a number: {cell!r}"
                        ) from None
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise MalformedInput(f"{path}: {exc}") from None
    return {name: np.frombuffer(column) for name, column in zip(header, columns)}


def _summary_to_dict(summary: SummaryStatistic) -> dict:
    return {
        "beta": summary.beta.tolist(),
        "sigma1": summary.sigma1.tolist(),
        "m": summary.m,
        "binding": [d.to_json() for d in summary.binding],
        "source_id": summary.source_id,
    }


def _summary_from_dict(obj) -> SummaryStatistic:
    if not isinstance(obj, Mapping):
        raise MalformedInput("summary JSON must be an object")
    missing = {"beta", "sigma1", "m", "binding"} - set(obj)
    if missing:
        raise MalformedInput(f"summary JSON missing keys {sorted(missing)}")
    binding = obj["binding"]
    if not isinstance(binding, Sequence) or isinstance(binding, (str, bytes)):
        raise MalformedInput("summary 'binding' must be a list of descriptors")
    descs = [FunctionalDescriptor.from_json(entry) for entry in binding]
    source_id = obj.get("source_id")
    if source_id is None:
        source_id = ""
    elif not isinstance(source_id, str):
        raise MalformedInput(f"summary 'source_id' must be a string, got {source_id!r}")
    return validate_summary(obj["beta"], obj["sigma1"], obj["m"], descs, source_id)


def write_summary_json(summary: SummaryStatistic, path):
    _check_type("summary", summary, SummaryStatistic)
    _path(path)
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(_summary_to_dict(summary), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def read_summary_json(path) -> SummaryStatistic:
    _path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise MalformedInput(f"{path}: not UTF-8 text: {exc}") from None
    except (ValueError, RecursionError) as exc:  # JSONDecodeError, or beyond the int-digit limit
        raise MalformedInput(f"{path}: invalid JSON: {exc}") from exc
    return _summary_from_dict(obj)
