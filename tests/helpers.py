"""Shared builders for synthetic fusion instances used across test modules."""

import dataclasses

import numpy as np
from hypothesis import strategies as st

from datafuse import (
    FunctionalDescriptor,
    FunctionalFit,
    FunctionalKind,
    FusionInputs,
    InternalDataset,
    SummaryStatistic,
    evaluate_binding,
    functionals,
    validate_dataset,
    validate_summary,
)


def centered(rng, n, k):
    """Random n x k matrix with exactly mean-zero columns."""
    a = rng.standard_normal((n, k))
    return a - a.mean(axis=0)


def random_spd(rng, q, jitter=0.5):
    w = rng.standard_normal((q, q))
    return w @ w.T + jitter * np.eye(q)


def stack_of_one(kernel, *args, **kwargs):
    """`kernel`, a private kernel of datafuse that takes only stacks, on one
    input: each dataset, array or tuple of summaries among the arguments is
    passed as the stack of one (a list of one, or the array with a leading
    axis of length one), and the one entry of the result (of each part of a
    tuple result) is returned."""

    def one(arg):
        if isinstance(arg, InternalDataset) or (
            isinstance(arg, tuple) and all(isinstance(s, SummaryStatistic) for s in arg)
        ):
            return [arg]
        return arg[None] if isinstance(arg, np.ndarray) else arg

    out = kernel(*map(one, args), **{name: one(arg) for name, arg in kwargs.items()})
    return tuple(part[0] for part in out) if isinstance(out, tuple) else out[0]


def assert_same_bits(got, want, where="value"):
    """Assert that `got` is `want` bit for bit: arrays (and numpy scalars) by
    dtype, shape and bytes, so -0.0 is not 0.0 and a NaN equals itself;
    floats by their bytes; lists, tuples, dicts and dataclasses (every
    attribute, also those set after construction) part by part; anything
    else by ==. `where` names the part compared."""
    assert type(got) is type(want), f"{where}: {type(got)} is not {type(want)}"
    if isinstance(want, (np.ndarray, np.generic, float)):
        got, want = np.asarray(got), np.asarray(want)
        assert (got.dtype, got.shape, got.tobytes()) == (want.dtype, want.shape, want.tobytes()), (
            f"{where}: {got!r} is not {want!r}")
    elif isinstance(want, (list, tuple)):
        assert len(got) == len(want), where
        for i, (one, other) in enumerate(zip(got, want)):
            assert_same_bits(one, other, f"{where}[{i}]")
    elif isinstance(want, dict) or dataclasses.is_dataclass(want):
        got, want = (vars(got), vars(want)) if dataclasses.is_dataclass(want) else (got, want)
        assert list(got) == list(want), where
        for key in want:
            assert_same_bits(got[key], want[key], f"{where}.{key}")
    else:
        assert got == want, f"{where}: {got!r} != {want!r}"


def logistic_coef(data, response, covariates):
    """Logistic regression coefficients of `response` on an intercept and
    `covariates`, by the propensity Newton of the aipw_ate fitter (looked up
    at call time, so a patched one is used)."""
    design = stack_of_one(functionals._joint_design, data, covariates)
    newton = functionals._newton_logistic
    return stack_of_one(newton, design, data.column(response), f"logistic({response})")[0]


def mean_binding(q, prefix="c"):
    return tuple(
        FunctionalDescriptor(FunctionalKind.MEAN, {"column": f"{prefix}{j}"})
        for j in range(q)
    )


def synth_inputs(rng, n, p, q, splits=None, m_range=(50, 400)):
    """Synthetic FusionInputs with random influence columns and summaries.

    splits optionally partitions the q summary coordinates into several
    sources (a list of block widths summing to q).
    """
    tau_fit = FunctionalFit(rng.standard_normal(p), centered(rng, n, p), label="tau")
    beta_fit = FunctionalFit(rng.standard_normal(q), centered(rng, n, q), label="beta")
    splits = [q] if splits is None else list(splits)
    assert sum(splits) == q
    summaries = []
    at = 0
    for idx, qb in enumerate(splits):
        summaries.append(
            validate_summary(
                rng.standard_normal(qb),
                random_spd(rng, qb),
                int(rng.integers(*m_range)),
                mean_binding(qb, prefix=f"s{idx}_"),
                source_id=f"synthetic-{idx}",
            )
        )
        at += qb
    return FusionInputs(tau_fit=tau_fit, beta_fit=beta_fit, summaries=tuple(summaries))


_M, _J, _K, _A = (
    FunctionalKind.MEAN,
    FunctionalKind.JOINT_OLS,
    FunctionalKind.MARGINAL_OLS,
    FunctionalKind.AIPW_ATE,
)
# targets and bindings of the cross-validation fold tests, on columns Y, X1,
# X2, B and T
FOLD_TARGETS = (
    FunctionalDescriptor(_M, {"column": "Y"}),
    FunctionalDescriptor(_M, {"column": "Y", "where": {"column": "B", "equals": 1}}),
    FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "X1"}),
    FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "B"}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "X2", "B"]}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "B"]}, component=1),
    FunctionalDescriptor(_A, {"outcome": "Y", "treatment": "T", "covariates": ["X1"]}),
)
FOLD_BINDINGS = (
    FunctionalDescriptor(_M, {"column": "X1"}),
    FunctionalDescriptor(_M, {"column": "Y", "where": {"column": "B", "equals": 1}}),
    FunctionalDescriptor(_M, {"column": "X2", "where": {"column": "T", "equals": 0}}),
    FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "B"}),
    FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "X2"}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "B"]}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X2"], "intercept": False}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X1", "X2", "B"]}, component=2),
    FunctionalDescriptor(_A, {"outcome": "Y", "treatment": "T", "covariates": ["X1"]}),
)

# targets and bindings on the columns X, Z, T and Y of xz_dataset
PREPARE_TAUS = (
    FunctionalDescriptor(_A, {"outcome": "Y", "treatment": "T", "covariates": ["X", "Z"]}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X", "Z"]}),
    FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X"], "intercept": False}),
    FunctionalDescriptor(_M, {"column": "Y"}),
)
JOINT = FunctionalDescriptor(_J, {"outcome": "Y", "regressors": ["X", "Z"]})
PREPARE_BINDINGS = (
    (JOINT,),
    (FunctionalDescriptor(_J, JOINT.args, component=2),),
    tuple(FunctionalDescriptor(_K, {"outcome": "Y", "regressor": r}) for r in ("X", "Z")),
    (
        FunctionalDescriptor(_J, JOINT.args, component=1),
        FunctionalDescriptor(_M, {"column": "Y", "where": {"column": "T", "equals": 1.0}}),
        FunctionalDescriptor(_J, JOINT.args, component=0),
        FunctionalDescriptor(_K, {"outcome": "Y", "regressor": "Z"}),
    ),
)


def xz_dataset(rng, n, bad=None):
    """Columns X, Z, T and Y of n rows; bad="collinear" makes Z = 2 X, and
    bad="zero" makes Z zero."""
    x, z = rng.standard_normal(n), rng.standard_normal(n)
    if bad == "collinear":
        z = 2.0 * x
    elif bad == "zero":
        z = np.zeros(n)
    t = (rng.random(n) < 0.5).astype(float)
    t[:2] = 0.0, 1.0
    y = 1.0 + x - 0.5 * z + t + rng.standard_normal(n)
    return validate_dataset({"X": x, "Z": z, "T": t, "Y": y}, outcome="Y", treatment="T")


def xz_summary(rng, binding):
    """A summary of `binding` fitted on 500 external rows of xz_dataset."""
    beta, eta = evaluate_binding(xz_dataset(rng, 500), binding)
    return validate_summary(beta, eta.T @ eta / 500, 500, binding)


# Cells that float() and np.loadtxt may read differently: quotes, whitespace
# of every kind (float() strips only ASCII whitespace, loadtxt any Unicode
# whitespace), underscores, non-finite spellings, empty cells, a BOM,
# non-ASCII digits and separators that are line breaks only for some readers.
CSV_ODD_CELLS = (
    "nan", "-nan", "NaN", "inf", "-inf", "Infinity", "+infinity", "1e500", "-1e-400",
    "1_0", "1_000.5", " 1.5 ", "\t2", "1\u2003", "\u20031", "1\xa0", "1\x85", "1\x0c",
    "1\x1c", "\x1d1", "1\x1e", "1\x1f", "1\u3000", "\u205f1",
    "", " ", '"1.5"', '"1,5"', '"', "0x10", "\u0661", "+.5", "5.", "-0", "--1", "1d5",
    "1e", "\ufeff1", "#1", "1 2", "1\x00", "1\x0b", "1\u2028", "True",
)


def fuzz_rng(draw) -> np.random.Generator:
    """A numpy generator seeded from hypothesis, for a fuzz strategy that
    takes every choice and value from it. Hypothesis builds new examples by
    mutating earlier ones; with only the seed drawn from hypothesis, two
    examples differ whenever their seeds do. The seed comes from st.randoms:
    a seed from st.integers is 0 or next to its bounds far more often."""
    return np.random.default_rng(draw(st.randoms(use_true_random=False)).getrandbits(64))


def pick(rng, options):
    """One of `options`, uniformly."""
    return options[rng.integers(len(options))]


# finite doubles a uniform draw almost never gives
_FLOAT_EDGES = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                1.7976931348623157e308, -1.7976931348623157e308, 9007199254740992.0, 0.1)


def finite_float(rng) -> float:
    """Any finite double: an edge value, or one of uniformly random bits
    (every exponent about equally often)."""
    if rng.random() < 0.2:
        return pick(rng, _FLOAT_EDGES)
    while True:
        value = float(rng.integers(0, 2**64, dtype=np.uint64).view(np.float64))
        if np.isfinite(value):
            return value


def csv_bytes(rng, names=("X", "Y", "T"), max_rows=6) -> bytes:
    """Bytes of a small CSV: a header of `names` (sometimes altered) and rows
    of numbers in several spellings, with up to two odd cells, odd widths and
    blank lines mixed in; \n, \r\n or \r line ends (sometimes mixed), with
    or without a final one, sometimes a BOM or a byte that is not UTF-8.
    Every choice and value comes from `rng`."""
    header = list(names)
    if rng.random() < 0.2:
        options = ["X", "Y", "T", " X", "", "a b", '"Q"', '"a,b"']
        header = [pick(rng, options) for _ in range(rng.integers(0, 5))]

    def number():
        kind = rng.integers(4)
        if kind == 0:
            return repr(finite_float(rng))
        if kind == 1:
            return "%.17g" % rng.uniform(-1e3, 1e3)
        if kind == 2:
            digits = "".join(str(d) for d in rng.integers(0, 10, size=rng.integers(1, 21)))
            return str(int(digits) * pick(rng, (1, -1)))
        return pick(rng, ["0", "1", "0.0", "1.0"])

    rows = []
    for _ in range(rng.integers(0, max_rows + 1)):
        kind = rng.integers(12)
        width = len(header) if kind > 1 else rng.integers(0, len(header) + 2)
        rows.append([] if kind == 0 else [number() for _ in range(width)])
    for _ in range(rng.integers(0, 3)):
        row = rng.integers(0, len(rows) + 1)
        if row < len(rows) and rows[row]:
            rows[row][rng.integers(len(rows[row]))] = pick(rng, CSV_ODD_CELLS)
    ends = ["\n", "\r\n", "\r"]
    eol = pick(rng, ends)
    mixed = rng.random() < 1 / 6
    text = ",".join(header)
    for row in rows:
        text += (pick(rng, ends) if mixed else eol) + ",".join(row)
    text += pick(rng, ["", eol, eol, eol + eol])
    if rng.random() < 0.1:
        text = "\ufeff" + text
    raw = text.encode("utf-8")
    if rng.random() < 0.05:
        at = rng.integers(0, len(raw) + 1)
        raw = raw[:at] + b"\xff" + raw[at:]
    return raw


@st.composite
def csv_files(draw, names=("X", "Y", "T"), max_rows=6):
    """csv_bytes as a hypothesis strategy."""
    return csv_bytes(fuzz_rng(draw), names, max_rows)
