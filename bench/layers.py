"""Per-layer tracing of datafuse from outside the package.

`Tracer.install()` replaces each name listed in FUNCTION_SITES and
METHOD_SITES with a wrapper that records a span (layer name, call site,
unit id, parent span, start, end) and `Tracer.uninstall()` puts every
original object back. Names are patched where their callers resolve them:
`cli` and `sim` bind imported functions into their own namespaces at import
time, while `fusion.prepare_inputs` and `debias._fit_tau` import from
`datafuse.functionals` at call time, so both kinds of site are listed.

Spans stay in memory; `layer_metrics` turns them into per-unit counts and
times, where a unit is one replication (simulate) or one call (estimate).
"""

import gzip
import importlib
import time
import warnings
from collections import Counter

# (module, attribute, layer). One layer may be reached through several
# module namespaces; each is a separate site and all are patched.
FUNCTION_SITES = (
    ("datafuse.cli", "main", "cli.main"),
    ("datafuse.cli", "read_internal_csv", "model.read_internal_csv"),
    ("datafuse.cli", "read_summary_json", "model.read_summary_json"),
    ("datafuse.cli", "prepare_inputs", "fusion.prepare_inputs"),
    ("datafuse.cli", "estimate_int", "fusion.estimate_int"),
    ("datafuse.cli", "estimate_crude", "fusion.estimate_crude"),
    ("datafuse.cli", "estimate_eff", "fusion.estimate_eff"),
    ("datafuse.cli", "wald_inference", "fusion.wald_inference"),
    ("datafuse.cli", "estimate_dbs", "debias.estimate_dbs"),
    ("datafuse.cli", "run_replications", "sim.run_replications"),
    ("datafuse.cli", "export_tables", "sim.export_tables"),
    ("datafuse.model", "validate_dataset", "model.validate_dataset"),
    ("datafuse.sim", "gen_scenario1", "sim.generate"),
    ("datafuse.sim", "gen_scenario2", "sim.generate"),
    ("datafuse.sim", "validate_dataset", "model.validate_dataset"),
    ("datafuse.sim", "prepare_inputs", "fusion.prepare_inputs"),
    ("datafuse.sim", "estimate_int", "fusion.estimate_int"),
    ("datafuse.sim", "estimate_crude", "fusion.estimate_crude"),
    ("datafuse.sim", "estimate_eff", "fusion.estimate_eff"),
    ("datafuse.sim", "estimate_knw", "fusion.estimate_knw"),
    ("datafuse.sim", "estimate_orc", "debias.estimate_orc"),
    ("datafuse.sim", "estimate_dbs", "debias.estimate_dbs"),
    ("datafuse.debias", "cv_tune", "debias.cv_tune"),
    ("datafuse.debias", "kfold_indices", "debias.kfold_indices"),
    ("datafuse.debias", "whiten", "debias.whiten"),
    ("datafuse.debias", "adaptive_lasso", "debias.adaptive_lasso"),
    ("datafuse.debias", "select_unbiased", "debias.select_unbiased"),
    ("datafuse.debias", "prepare_inputs", "fusion.prepare_inputs"),
    ("datafuse.debias", "restrict_inputs", "fusion.restrict_inputs"),
    ("datafuse.debias", "estimate_eff", "fusion.estimate_eff"),
    ("datafuse.debias", "estimate_int", "fusion.estimate_int"),
    ("datafuse.debias", "inv_sqrt_spd", "linalg.inv_sqrt_spd"),
    ("datafuse.functionals", "fit_functional", "functionals.fit_functional"),
    ("datafuse.functionals", "evaluate_binding", "functionals.evaluate_binding"),
    ("datafuse.functionals", "spd_solve", "linalg.spd_solve"),
    ("datafuse.functionals", "check_full_rank", "linalg.check_full_rank"),
    ("datafuse.fusion", "spd_solve", "linalg.spd_solve"),
)

# (module, class, method, layer). Dataclass __init__ looks __post_init__ up
# on the class at call time, so patching the class attribute catches every
# FunctionalFit built anywhere in the package.
METHOD_SITES = (
    ("datafuse.model", "FunctionalFit", "__post_init__", "model.FunctionalFit"),
    ("datafuse.model", "InternalDataset", "subset", "model.subset"),
)

# Layers whose span starts a new unit: each `simulate` replication starts by
# generating its data, and each `estimate` call is one unit.
UNIT_LAYERS = frozenset({"cli.main", "sim.generate"})

ESTIMATORS = frozenset(
    {"fusion.estimate_int", "fusion.estimate_eff", "fusion.estimate_crude",
     "fusion.estimate_knw"}
)

# (metric, kind, layers, call site or None). kind is "calls" (count),
# "ms" (inclusive time of outermost spans) or "self_ms" (span time minus
# the time of its child spans). All are divided by the number of units.
LAYER_METRICS = (
    ("cli.self_ms", "self_ms", {"cli.main"}, None),
    ("model.read_internal_csv.ms", "ms", {"model.read_internal_csv"}, None),
    ("model.read_summary_json.ms", "ms", {"model.read_summary_json"}, None),
    ("model.validate_dataset.calls", "calls", {"model.validate_dataset"}, None),
    ("model.validate_dataset.ms", "ms", {"model.validate_dataset"}, None),
    ("model.FunctionalFit.calls", "calls", {"model.FunctionalFit"}, None),
    ("model.FunctionalFit.ms", "ms", {"model.FunctionalFit"}, None),
    ("model.subset.calls", "calls", {"model.subset"}, None),
    ("model.subset.ms", "ms", {"model.subset"}, None),
    ("functionals.fit_functional.calls", "calls", {"functionals.fit_functional"}, None),
    ("functionals.fit_functional.self_ms", "self_ms", {"functionals.fit_functional"}, None),
    ("functionals.evaluate_binding.calls", "calls", {"functionals.evaluate_binding"}, None),
    ("functionals.evaluate_binding.self_ms", "self_ms", {"functionals.evaluate_binding"}, None),
    ("functionals.spd_solve.calls", "calls", {"linalg.spd_solve"}, "datafuse.functionals"),
    ("fusion.prepare_inputs.calls", "calls", {"fusion.prepare_inputs"}, None),
    ("fusion.prepare_inputs.self_ms", "self_ms", {"fusion.prepare_inputs"}, None),
    ("fusion.estimators.calls", "calls", ESTIMATORS, None),
    ("fusion.estimators.self_ms", "self_ms", ESTIMATORS, None),
    ("fusion.restrict_inputs.calls", "calls", {"fusion.restrict_inputs"}, None),
    ("fusion.restrict_inputs.self_ms", "self_ms", {"fusion.restrict_inputs"}, None),
    ("debias.cv_tune.self_ms", "self_ms", {"debias.cv_tune"}, None),
    ("debias.whiten.calls", "calls", {"debias.whiten"}, None),
    ("debias.whiten.self_ms", "self_ms", {"debias.whiten"}, None),
    ("debias.adaptive_lasso.calls", "calls", {"debias.adaptive_lasso"}, None),
    ("debias.adaptive_lasso.ms", "ms", {"debias.adaptive_lasso"}, None),
    ("linalg.spd_solve.calls", "calls", {"linalg.spd_solve"}, None),
    ("linalg.spd_solve.ms", "ms", {"linalg.spd_solve"}, None),
    ("linalg.check_full_rank.calls", "calls", {"linalg.check_full_rank"}, None),
    ("linalg.check_full_rank.ms", "ms", {"linalg.check_full_rank"}, None),
    ("linalg.inv_sqrt_spd.calls", "calls", {"linalg.inv_sqrt_spd"}, None),
    ("sim.generate.self_ms", "self_ms", {"sim.generate"}, None),
    ("sim.run_replications.self_ms", "self_ms", {"sim.run_replications"}, None),
    ("sim.export_tables.ms", "ms", {"sim.export_tables"}, None),
)

# Metrics computed from events or from the run rather than from one layer's spans.
RATIO_METRICS = (
    "debias.cv_refit_ratio",
    "debias.empty_selection_frac",
    "linalg.spd_solve.ridge_frac",
    "trace.overhead_frac",
)

RIDGE_PREFIX = "ill-conditioned system"


class Span:
    __slots__ = ("name", "site", "unit", "parent", "start", "end")

    def __init__(self, name, site, unit, parent, start, end=0.0):
        self.name = name
        self.site = site
        self.unit = unit
        self.parent = parent
        self.start = start
        self.end = end


class _RidgeCounter:
    """Stands in for the `warnings` module inside datafuse._linalg, counting
    the ridge fallbacks of spd_solve and passing every warning on unchanged."""

    def __init__(self, events: Counter):
        self._events = events

    def warn(self, message, category=None, stacklevel=1, source=None):
        if str(message).startswith(RIDGE_PREFIX):
            self._events["ridge"] += 1
        warnings.warn(message, category, stacklevel + 1, source)

    def __getattr__(self, name):
        return getattr(warnings, name)


class Tracer:
    """Records spans at the layer boundaries listed above while installed."""

    def __init__(self):
        self.spans = []
        self.events = Counter()
        self.unit = -1
        self._stack = []
        self._saved = []

    def _wrap(self, fn, layer, site):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_unit = layer in UNIT_LAYERS

        def wrapper(*args, **kwargs):
            if starts_unit:
                self.unit += 1
            span = Span(layer, site, self.unit, stack[-1] if stack else -1, clock())
            stack.append(len(spans))
            spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", layer)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for mod_name, attr, layer in FUNCTION_SITES:
            mod = importlib.import_module(mod_name)
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._wrap(original, layer, mod_name))
        for mod_name, cls_name, attr, layer in METHOD_SITES:
            cls = getattr(importlib.import_module(mod_name), cls_name)
            original = cls.__dict__[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, layer, mod_name))
        linalg = importlib.import_module("datafuse._linalg")
        self._saved.append((linalg, "warnings", linalg.warnings))
        linalg.warnings = _RidgeCounter(self.events)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write every span as gzipped CSV (times in ns from the first span)."""
        t0 = self.spans[0].start if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("index,name,site,unit,parent,start_ns,end_ns\n")
            for i, s in enumerate(self.spans):
                fh.write(
                    f"{i},{s.name},{s.site},{s.unit},{s.parent},"
                    f"{round((s.start - t0) * 1e9)},{round((s.end - t0) * 1e9)}\n"
                )


def self_times(spans) -> list:
    """Duration of each span minus the summed durations of its children.

    Calls are synchronous, so children of one span never overlap and the
    time they cover is the sum of their durations.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def _has_ancestor(spans, span, names) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name in names:
            return True
        parent = spans[parent].parent
    return False


def layer_metrics(spans, events: Counter, units: int) -> dict:
    """Per-unit values of LAYER_METRICS plus cv_refit_ratio and ridge_frac."""
    selfs = self_times(spans)
    by_layer = {}
    for i, s in enumerate(spans):
        by_layer.setdefault(s.name, []).append(i)
    out = {}
    for metric, kind, layers, site in LAYER_METRICS:
        chosen = [
            i for layer in layers for i in by_layer.get(layer, ())
            if site is None or spans[i].site == site
        ]
        if kind == "calls":
            total = float(len(chosen))
        elif kind == "self_ms":
            total = 1e3 * sum(selfs[i] for i in chosen)
        else:
            total = 1e3 * sum(
                spans[i].end - spans[i].start for i in chosen
                if not _has_ancestor(spans, spans[i], layers)
            )
        out[metric] = total / units
    in_cv = [s for s in spans if _has_ancestor(spans, s, {"debias.cv_tune"})]
    lasso = sum(1 for s in in_cv if s.name == "debias.adaptive_lasso")
    refits = sum(1 for s in in_cv if s.name == "fusion.estimate_eff")
    out["debias.cv_refit_ratio"] = refits / lasso if lasso else 0.0
    solves = sum(1 for s in spans if s.name == "linalg.spd_solve")
    out["linalg.spd_solve.ridge_frac"] = events["ridge"] / solves if solves else 0.0
    return out


def metric_unit(metric: str) -> str:
    if metric in RATIO_METRICS:
        return "ratio"
    return "calls/rep" if metric.endswith(".calls") else "ms/rep"
