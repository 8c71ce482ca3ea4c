"""Monte Carlo harness: scenario generators, replication loop, tables.

Scenario I: covariate-dependent treatment assignment with a quadratic
treatment effect; the external source reports a joint least-squares fit of
the outcome on (1, X, T). Scenario II: two correlated regressors whose
marginal slopes are reported externally, optionally with the second
regressor measured with error (attenuating its slope, i.e. a biased
summary).

An external summary is computed as a study would report it, by the
package's own fitters: the external sample is fitted with the binding's
descriptors (functionals.evaluate_binding), and sigma1 is the second moment
E(eta eta') of those fits' influence columns, which for least squares is
the sandwich covariance of the sqrt(m)-scaled estimate.

Replications run in the calling thread in chunks of _CHUNK. Each draws
from its own substreams (spawned from a root seed) and builds its external
summary alone; the chunk's targets and binding fits are fitted together
(fusion._prepare: an aipw_ate target's propensities as one stacked Newton,
each least-squares fit as one stack of designs), and each method then runs
once for the whole chunk, with the chunk's cross-validation folds,
whitenings and fuses stacked along leading batch axes and its results
assembled per stack (debias._run_methods). A chunk whose stacked pass
raises a package error or warns runs again one replication at a time, so
every result, error and warning is the replication's own, in replication
order; the warnings are recorded and emitted again when the replications
are done, as one replication at a time emits them (_warn_again). Results
are therefore identical for any chunk size, any `threads` cap and any
method subset.
"""

import math
import sys
import warnings
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path
from typing import Optional

import numpy as np

from ._linalg import logistic

# The estimate_* and prepare_inputs names stay bound for bench/layers.py, which
# patches them here; estimators are called through debias._run_methods, and a
# chunk's inputs are built by fusion._prepare.
from .debias import DebiasConfig, _run_methods, estimate_dbs, estimate_orc  # noqa: F401
from .errors import (
    DataFuseError,
    ExcessiveFailures,
    MalformedInput,
    RankDeficientDesign,
)
from .model import (
    FunctionalDescriptor,
    FunctionalKind,
    InternalDataset,
    Method,
    SummaryStatistic,
    _check_type,
    _config_keys,
    _integer,
    _level,
    _path,
    _reals,
    _write_csv,
    validate_dataset,
    validate_summary,
)
from .fusion import _prepare, prepare_inputs  # noqa: F401
from .fusion import estimate_crude, estimate_eff, estimate_int, estimate_knw  # noqa: F401

__all__ = [
    "ScenarioConfig",
    "MetricsRow",
    "SimulationResult",
    "gen_scenario1",
    "gen_scenario2",
    "run_replications",
    "export_tables",
    "format_table",
]

SCENARIOS = ("I", "II_biased", "II_unbiased")
FAILURE_ABORT_RATE = 0.01
# replications per chunk (run_replications)
_CHUNK = 16
_MAX_SIZE = int(np.iinfo(np.intp).max)
# numpy sizes an array only when its byte count fits in intp. The widest
# float64 array of n or m rows that a scenario allocates holds ten values
# per row for each replication of a chunk: Scenario II's DBS moment
# features with the ones row, one buffer for the chunk (debias._fold_sums).
# The chunk's stacked designs, (_CHUNK, n, 3) at most, are narrower.
_MAX_ROWS = _MAX_SIZE // (8 * 10 * _CHUNK)


def _size(name: str, value, cap: int = _MAX_SIZE) -> None:
    """Check that `value` is an integer from 1 to `cap`: an array length
    numpy takes, or with cap=_MAX_ROWS a row count it can size arrays of."""
    if _integer(name, value, 1) > cap:
        raise MalformedInput(f"{name} must be at most {cap}, got {value!r}")


def _tau(value) -> tuple:
    """`value`, a list or tuple of two real numbers, as a tuple of floats."""
    tau = _reals("tau", value)
    if len(tau) != 2:
        raise MalformedInput("tau must have two components")
    return tau


def _check_draw(n, m, rng) -> None:
    """Check the sizes n and m and the numpy Generator of a generator call."""
    _size("n", n, _MAX_ROWS)
    _size("m", m, _MAX_ROWS)
    if not isinstance(rng, np.random.Generator):
        raise MalformedInput(f"rng must be a numpy Generator, got {rng!r}")


# ---------------------------------------------------------------------------
# generators


def _scenario1_draw(size: int, rng: np.random.Generator):
    x = rng.standard_normal(size)
    t = (rng.random(size) < logistic(1.0 - x)).astype(float)
    eps1 = 2.0 * rng.standard_normal(size)
    eps0 = rng.standard_normal(size)
    y = 1.0 + x + t * x * x + t * eps1 + (1.0 - t) * eps0
    return x, t, y


# Population least-squares coefficients of Y on (1, X, T) in Scenario I.
# With X standard normal, E[T | X] = expit(1 - X) and
# Y = 1 + X + T X^2 + noise, the normal equations E[V V'] b = E[V Y] for
# V = (1, X, T) read
#
#     [[1,   0,   t_0],       [1 + t_2,
#      [0,   1,   t_1],  b =   1 + t_3,
#      [t_0, t_1, t_0]]        t_0 + t_1 + t_2]
#
# in the moments t_k = E[X^k expit(1 - X)] = E[T X^k], k = 0..3 (t_0 is
# about 0.6967, the marginal treatment probability). The t_k have no closed
# form; these values are the solution of this system with the t_k by
# adaptive quadrature, to the last bit, and tests/test_sim.py derives them
# again.
_SCENARIO1_BETA_TRUE = (1.2308473257178896, 0.6065715380059552, 0.5931467625504476)


def gen_scenario1(n: int, m: int, rng: np.random.Generator):
    """Internal dataset, external joint-OLS summary, and the truth record.

    The internal sample is drawn before the external one, so with a fixed
    substream the internal data do not depend on m.
    """
    _check_draw(n, m, rng)
    x, t, y = _scenario1_draw(n, rng)
    internal = validate_dataset(
        {"X": x, "X2": x * x, "T": t, "Y": y},
        outcome="Y",
        treatment="T",
        covariates=("X", "X2"),
    )
    xe, te, ye = _scenario1_draw(m, rng)
    binding = (
        FunctionalDescriptor(
            FunctionalKind.JOINT_OLS,
            {"outcome": "Y", "regressors": ["X", "T"], "intercept": True},
        ),
    )
    try:
        summary = _external_summary(
            {"X": xe, "T": te, "Y": ye}, m, binding, "scenario1-external-ols"
        )
    except RankDeficientDesign as exc:
        # a small external sample can lack one arm or have too few rows
        raise RankDeficientDesign(f"scenario I external design: {exc}") from None
    truth = {
        "tau": np.array([1.0]),
        "beta": np.array(_SCENARIO1_BETA_TRUE),
        "unbiased": (0, 1, 2),
    }
    return internal, summary, truth


def gen_scenario2(
    n: int,
    m: int,
    biased: bool,
    rng: np.random.Generator,
    tau=(1.0, 1.0),
):
    """Marginal-slope summaries from a shared external sample.

    With biased=True the external copy of the second regressor carries
    additive N(0,1) measurement error, attenuating its marginal slope by
    1/2; the first summary coordinate stays unbiased.
    """
    _check_draw(n, m, rng)
    _check_type("biased", biased, bool)
    tau1, tau2 = _tau(tau)
    chol = np.array([[1.0, 0.0], [0.6, 0.8]])

    def draw(size):
        xs = rng.standard_normal((size, 2)) @ chol.T
        ys = xs[:, 0] * tau1 + xs[:, 1] * tau2 + 2.0 * rng.standard_normal(size)
        return xs, ys

    x_int, y_int = draw(n)
    internal = validate_dataset(
        {"X1": x_int[:, 0], "X2": x_int[:, 1], "Y": y_int},
        outcome="Y",
        covariates=("X1", "X2"),
    )
    x_ext, y_ext = draw(m)
    x2_obs = x_ext[:, 1] + rng.standard_normal(m) if biased else x_ext[:, 1]
    binding = (
        FunctionalDescriptor(FunctionalKind.MARGINAL_OLS, {"outcome": "Y", "regressor": "X1"}),
        FunctionalDescriptor(FunctionalKind.MARGINAL_OLS, {"outcome": "Y", "regressor": "X2"}),
    )
    summary = _external_summary(
        {"X1": x_ext[:, 0], "X2": x2_obs, "Y": y_ext}, m, binding, "scenario2-external-marginals"
    )
    beta_true = np.array([tau1 + 0.6 * tau2, tau2 + 0.6 * tau1])
    truth = {
        "tau": np.array([tau1, tau2]),
        "beta": beta_true,
        "unbiased": (0,) if biased else (0, 1),
        "b_star": np.array([0.0, -beta_true[1] / 2.0 if biased else 0.0]),
    }
    return internal, summary, truth


def _external_summary(columns: dict, m: int, binding, source_id: str) -> SummaryStatistic:
    """The summary an external study of the m generated rows `columns`
    reports: the package's fits of `binding` on them, and sigma1 =
    E(eta eta') of their influence, the covariance of the sqrt(m)-scaled
    estimates (the sandwich, for these least-squares fits)."""
    # resolved per call, as fusion._prepare does, so bench/layers.py traces it
    from .functionals import evaluate_binding

    beta, eta = evaluate_binding(InternalDataset(columns=columns, n=m), binding)
    return validate_summary(beta, eta.T @ eta / m, m, binding, source_id=source_id)


# ---------------------------------------------------------------------------
# configuration


_DEFAULT_METHODS = {
    "I": ("INT", "CRD", "EFF", "KNW"),
    "II_biased": ("INT", "ORC", "DBS", "EFF"),
    "II_unbiased": ("INT", "ORC", "DBS", "EFF"),
}


@dataclass(frozen=True)
class ScenarioConfig:
    """Replication-run settings; defaults mirror the reference tables."""

    scenario: str
    n: int = 1000
    m: int = 1000
    reps: int = 1000
    seed: int = 0
    methods: tuple = ()
    level: float = 0.95
    tau: tuple = (1.0, 1.0)
    debias: DebiasConfig = field(default_factory=DebiasConfig)
    out_dir: Optional[str] = None

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
            raise MalformedInput(
                f"scenario must be one of {SCENARIOS}, got {self.scenario!r}"
            )
        _size("n", self.n, _MAX_ROWS)
        _size("m", self.m, _MAX_ROWS)
        _size("reps", self.reps)
        _integer("seed", self.seed, 0)
        if not isinstance(self.methods, (list, tuple)):
            raise MalformedInput(f"methods must be a list of names, got {self.methods!r}")
        methods = tuple(self.methods) or _DEFAULT_METHODS[self.scenario]
        for name in methods:
            Method(name)  # MalformedInput unless the name of a method
        object.__setattr__(self, "methods", tuple(dict.fromkeys(methods)))
        _level(self.level)
        object.__setattr__(self, "tau", _tau(self.tau))
        _check_type("debias", self.debias, DebiasConfig)
        if self.out_dir is not None:
            _path(self.out_dir, "out_dir")

    @classmethod
    def from_dict(cls, obj) -> "ScenarioConfig":
        kwargs = _config_keys("config", obj, cls)
        if "debias" in kwargs:
            kwargs["debias"] = DebiasConfig.from_dict(kwargs["debias"])
        return cls(**kwargs)


@dataclass(frozen=True)
class MetricsRow:
    """Aggregated metrics for one (method, parameter) cell, scaled by 100."""

    scenario: str
    method: str
    m: int
    param: int
    bias: float
    rmse: float
    ase: float
    cp: float
    mc_se_bias: float
    mc_se_rmse: float
    mc_se_ase: float
    mc_se_cp: float
    reps: int


@dataclass(frozen=True)
class SimulationResult:
    config: ScenarioConfig
    rows: tuple
    records: tuple
    failures: int


# ---------------------------------------------------------------------------
# replication loop


def _tau_descriptor(scenario: str) -> FunctionalDescriptor:
    if scenario == "I":
        return FunctionalDescriptor(
            FunctionalKind.AIPW_ATE,
            {"outcome": "Y", "treatment": "T", "covariates": ["X", "X2"]},
        )
    return FunctionalDescriptor(
        FunctionalKind.JOINT_OLS,
        {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
    )


def _replicate(config: ScenarioConfig, rep_seeds) -> list:
    """The replications of `rep_seeds`, one chunk, each rep's pair of
    SeedSequences (data, folds): per rep (tau, {method: (estimate, se,
    covered, selected)}). Each rep draws from its own substreams and builds
    its external summary; the chunk's inputs are built by one
    fusion._prepare call, whose targets and binding fits are fitted
    together (an aipw_ate target's propensities by one stacked Newton, each
    least-squares fit as one stack, each fit as it is alone), and each
    method then runs on the inputs of every rep at once
    (debias._run_methods). Raises the first DataFuseError."""
    internals, summaries, truths = [], [], []
    for data_seed, _ in rep_seeds:
        rng = np.random.default_rng(data_seed)
        if config.scenario == "I":
            internal, summary, truth = gen_scenario1(config.n, config.m, rng)
        else:
            internal, summary, truth = gen_scenario2(
                config.n, config.m, config.scenario == "II_biased", rng, config.tau
            )
        internals.append(internal)
        summaries.append([summary])
        truths.append(truth)
    inputs = _prepare(internals, _tau_descriptor(config.scenario), summaries)
    outs = [{} for _ in rep_seeds]
    for name in config.methods:
        done = _run_methods(
            Method(name),
            inputs,
            config.level,
            beta_true=[truth["beta"] for truth in truths],
            unbiased=[truth["unbiased"] for truth in truths],
            debias=config.debias,
            seeds=[cv_seed for _, cv_seed in rep_seeds],
        )
        for out, truth, (result, selection) in zip(outs, truths, done):
            covered = (result.ci[:, 0] <= truth["tau"]) & (truth["tau"] <= result.ci[:, 1])
            selected = selection.selected if selection is not None else None
            out[name] = (result.estimate, result.se, covered, selected)
    return [(truth["tau"], out) for truth, out in zip(truths, outs)]


def _run_chunk(config: ScenarioConfig, rep_seeds, caught: list) -> list:
    """Per rep of `rep_seeds`: its replication, or the DataFuseError it fails
    with; `caught` records every warning. The reps run as one chunk
    (_replicate); should that raise a DataFuseError or warn, its warnings
    are dropped and the reps run again one at a time, so each rep's result,
    error and warnings are those it has alone, in rep order."""
    if len(rep_seeds) > 1:
        mark = len(caught)
        try:
            done = _replicate(config, rep_seeds)
        except DataFuseError:
            done = None
        if done is not None and len(caught) == mark:
            return done
        del caught[mark:]
    outcomes = []
    for rep_seed in rep_seeds:
        try:
            outcomes.append(_replicate(config, [rep_seed])[0])
        except DataFuseError as exc:
            outcomes.append(exc)
    return outcomes


def _warn_again(caught) -> None:
    """Emit the recorded warnings `caught` again, in order, as the modules
    that emitted them would: under the caller's filters and with each
    module's record of the warnings it has shown (Python's default filter
    shows a repeated warning once)."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for w in caught:
        module = modules.get(w.filename)
        found = module is not None
        warnings.warn_explicit(
            w.message,
            w.category,
            w.filename,
            w.lineno,
            module=module.__name__ if found else None,
            registry=module.__dict__.setdefault("__warningregistry__", {}) if found else None,
            module_globals=module.__dict__ if found else None,
        )


def run_replications(config: ScenarioConfig, threads: int = 1) -> SimulationResult:
    """Run the configured replications and aggregate the reference metrics.

    The replications run in chunks of _CHUNK in the calling thread, each
    chunk as one stacked pass; a chunk that raises or warns runs again one
    replication at a time (_run_chunk). Their warnings are recorded and
    emitted again when they are done, as one replication at a time emits
    them. A replication on which any method raises a
    package error is dropped from every method (paired comparisons stay
    paired) with a warning; if 1% or more of the replications fail, the
    whole run aborts. `threads` (an integer >= 1) caps the workers; one
    loop in the calling thread meets any cap, and ran faster than a thread
    pool.
    """
    _check_type("config", config, ScenarioConfig)
    _integer("threads", threads, 1)
    kept = []
    failures = []
    seeds = np.random.SeedSequence(config.seed).spawn(config.reps)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for start in range(0, config.reps, _CHUNK):
            # each rep's substreams, spawned once, so that a rep run again draws the same
            chunk = [seed.spawn(2) for seed in seeds[start : start + _CHUNK]]
            for rep, outcome in enumerate(_run_chunk(config, chunk, caught), start):
                if isinstance(outcome, DataFuseError):
                    failures.append((rep, outcome))
                else:
                    kept.append((rep, outcome))
    _warn_again(caught)

    if len(failures) >= FAILURE_ABORT_RATE * config.reps:
        raise ExcessiveFailures(
            f"{len(failures)}/{config.reps} replications failed; first: {failures[0][1]}"
        )
    if failures:
        warnings.warn(
            f"excluded {len(failures)} failed replication(s) from all methods: "
            f"first failure (rep {failures[0][0]}): {failures[0][1]}"
        )
    if len(kept) < 2:
        warnings.warn(
            "one replication: mc_se_bias, mc_se_rmse and mc_se_ase are sample "
            "deviations over replications, undefined here (NaN)"
        )
    tau_true = kept[0][1][0]
    p = tau_true.shape[0]
    rows = []
    records = []
    for name in config.methods:
        estimates = np.array([payload[1][name][0] for _, payload in kept])
        ses = np.array([payload[1][name][1] for _, payload in kept])
        covered = np.array([payload[1][name][2] for _, payload in kept])
        reps_used = estimates.shape[0]
        for j in range(p):
            err = estimates[:, j] - tau_true[j]
            sq = err * err
            rmse = math.sqrt(float(np.mean(sq)))
            bias = float(np.mean(err))
            mc_bias = _sample_sd(err) / math.sqrt(reps_used)
            mc_rmse = (
                _sample_sd(sq) / math.sqrt(reps_used) / (2.0 * rmse)
                if rmse > 0.0
                else 0.0
            )
            cov_rate = float(np.mean(covered[:, j]))
            rows.append(
                MetricsRow(
                    scenario=config.scenario,
                    method=name,
                    m=config.m,
                    param=j,
                    bias=100.0 * bias,
                    rmse=100.0 * rmse,
                    ase=100.0 * float(np.mean(ses[:, j])),
                    cp=100.0 * cov_rate,
                    mc_se_bias=100.0 * mc_bias,
                    mc_se_rmse=100.0 * mc_rmse,
                    mc_se_ase=100.0 * _sample_sd(ses[:, j]) / math.sqrt(reps_used),
                    mc_se_cp=100.0 * math.sqrt(cov_rate * (1.0 - cov_rate) / reps_used),
                    reps=reps_used,
                )
            )
        for rep, payload in kept:
            est, se, cov, selected = payload[1][name]
            for j in range(p):
                records.append(
                    {
                        "scenario": config.scenario,
                        "method": name,
                        "m": config.m,
                        "rep": rep,
                        "param": j,
                        "estimate": float(est[j]),
                        "se": float(se[j]),
                        "covered": int(cov[j]),
                        "selected": (
                            ";".join(str(s) for s in selected) if selected is not None else ""
                        ),
                    }
                )
    return SimulationResult(
        config=config, rows=tuple(rows), records=tuple(records), failures=len(failures)
    )


def _sample_sd(values) -> float:
    """Standard deviation with ddof=1; NaN for a single value."""
    return float(np.std(values, ddof=1)) if values.size > 1 else math.nan


# ---------------------------------------------------------------------------
# output


_LONG_COLUMNS = (
    "scenario", "method", "m", "rep", "param", "estimate", "se", "covered", "selected",
)


def export_tables(result: SimulationResult, path) -> tuple:
    """Write the aggregated metrics CSV at `path` plus a companion
    long-format CSV of per-replication estimates (suffix _per_rep.csv).
    Returns both paths."""
    _check_type("result", result, SimulationResult)
    _path(path)
    if not result.rows:
        raise MalformedInput("no metrics rows to export")
    path = Path(path)
    long_path = path.with_name(path.stem + "_per_rep" + (path.suffix or ".csv"))
    _write_csv(path, [f.name for f in fields(MetricsRow)], map(astuple, result.rows))
    long_rows = ([rec[col] for col in _LONG_COLUMNS] for rec in result.records)
    _write_csv(long_path, _LONG_COLUMNS, long_rows)
    return path, long_path


def format_table(rows) -> str:
    """Human-readable metrics table (values already scaled by 100) of a
    list or tuple of MetricsRow."""
    if not isinstance(rows, (list, tuple)) or not all(isinstance(r, MetricsRow) for r in rows):
        raise MalformedInput("rows must be a list or tuple of MetricsRow")
    header = f"{'method':<8}{'m':>8}{'param':>7}{'bias':>10}{'rmse':>10}{'ase':>10}{'cp':>8}"
    lines = [header, "-" * len(header)]
    for row in rows:
        lines.append(
            f"{row.method:<8}{row.m:>8}{row.param:>7}"
            f"{row.bias:>10.2f}{row.rmse:>10.2f}{row.ase:>10.2f}{row.cp:>8.1f}"
        )
    return "\n".join(lines)
