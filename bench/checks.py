"""Correctness checks on the outputs of the benchmarked datafuse calls.

Every measured call is checked on its own outputs: exit code, the rows of
metrics.csv, the per-replication CSV, the aggregates recomputed from it,
and the paper's exact in-sample orderings (EFF attains the efficiency
bound, so its variance is below INT's and CRD's and above KNW's; DBS equals
ORC, EFF or INT on the coordinate set it selects). A fixed reference case
per workload is also compared with outputs recorded from the first commit
that carried this benchmark (reference.json).

Floats are compared with TOL = sqrt(float64 eps), about 1.5e-8, relative
to max(1, |a|, |b|): loose enough for round-off from a reordered sum or a
different factorization, far tighter than any real change of result.
"""

import csv
import json
import math
from statistics import NormalDist

import numpy as np

TOL = math.sqrt(np.finfo(np.float64).eps)

METRICS_COLUMNS = [
    "scenario", "method", "m", "param", "bias", "rmse", "ase", "cp",
    "mc_se_bias", "mc_se_rmse", "mc_se_ase", "mc_se_cp", "reps",
]
PER_REP_COLUMNS = [
    "scenario", "method", "m", "rep", "param", "estimate", "se", "covered", "selected",
]


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def le(a: float, b: float, tol: float = TOL) -> bool:
    """a <= b up to round-off."""
    return a <= b + tol * max(1.0, abs(a), abs(b))


def _as_float(value):
    if isinstance(value, bool):
        return None
    if isinstance(value, (int, float)):
        return float(value)
    if isinstance(value, str):
        try:
            return float(value)
        except ValueError:
            return None
    return None


def compare(actual, expected, where: str = "") -> list:
    """Mismatches between two JSON-like trees; numbers within TOL."""
    if isinstance(expected, dict):
        if not isinstance(actual, dict) or set(actual) != set(expected):
            return [f"{where}: keys differ"]
        out = []
        for key in expected:
            out += compare(actual[key], expected[key], f"{where}.{key}")
        return out
    if isinstance(expected, list):
        if not isinstance(actual, list) or len(actual) != len(expected):
            return [f"{where}: length differs"]
        out = []
        for i, (a, e) in enumerate(zip(actual, expected)):
            out += compare(a, e, f"{where}[{i}]")
        return out
    fa, fe = _as_float(actual), _as_float(expected)
    if fa is not None and fe is not None:
        if math.isnan(fe):
            ok = math.isnan(fa)
        else:
            ok = close(fa, fe)
        return [] if ok else [f"{where}: {actual!r} != {expected!r}"]
    return [] if actual == expected else [f"{where}: {actual!r} != {expected!r}"]


def read_csv(path) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_simulation(metrics_rows, per_rep_rows, spec) -> list:
    """Errors found in one `simulate` call's two CSV tables.

    spec: scenario, m, methods (tuple), reps, tau (true values, one per
    parameter), level.
    """
    errors = []
    methods, reps, tau = spec["methods"], spec["reps"], spec["tau"]
    p = len(tau)
    if not metrics_rows or metrics_rows[0] != METRICS_COLUMNS:
        return ["metrics.csv header differs"]
    if not per_rep_rows or per_rep_rows[0] != PER_REP_COLUMNS:
        return ["metrics_per_rep.csv header differs"]
    body = metrics_rows[1:]
    expected_keys = [
        [spec["scenario"], meth, str(spec["m"]), str(j)] for meth in methods for j in range(p)
    ]
    if [row[:4] for row in body] != expected_keys:
        return [f"metrics.csv rows {[row[:4] for row in body]} != {expected_keys}"]
    if any(row[12] != str(reps) for row in body):
        errors.append("metrics.csv reps column differs from the replication count")

    long = per_rep_rows[1:]
    if len(long) != len(methods) * reps * p:
        return errors + [f"metrics_per_rep.csv has {len(long)} rows, expected "
                         f"{len(methods) * reps * p}"]
    est = {}
    se = {}
    covered = {}
    selected = {}
    for i, row in enumerate(long):
        meth, rep, j = methods[i // (reps * p)], (i // p) % reps, i % p
        if row[:5] != [spec["scenario"], meth, str(spec["m"]), str(rep), str(j)]:
            return errors + [f"metrics_per_rep.csv row {i + 1} is {row[:5]}"]
        try:
            est[meth, rep, j] = float(row[5])
            se[meth, rep, j] = float(row[6])
            covered[meth, rep, j] = int(row[7])
        except ValueError:
            return errors + [f"metrics_per_rep.csv row {i + 1} is not numeric"]
        selected[meth, rep] = row[8]
    if not all(math.isfinite(v) for v in est.values()):
        errors.append("non-finite estimate")
    if not all(math.isfinite(v) and v > 0.0 for v in se.values()):
        errors.append("standard error not finite and positive")
    if errors:
        return errors

    zcrit = NormalDist().inv_cdf(0.5 + spec["level"] / 2.0)
    for key, c in covered.items():
        half = zcrit * se[key]
        gap = abs(est[key] - tau[key[2]])
        if not close(gap, half) and c != int(gap <= half):
            errors.append(f"coverage flag of {key} disagrees with its interval")
            break

    for row in body:
        meth, j = row[1], int(row[3])
        err = np.array([est[meth, r, j] - tau[j] for r in range(reps)])
        ses = np.array([se[meth, r, j] for r in range(reps)])
        cov = np.array([covered[meth, r, j] for r in range(reps)], dtype=float)
        recomputed = {
            "bias": 100.0 * float(np.mean(err)),
            "rmse": 100.0 * math.sqrt(float(np.mean(err * err))),
            "ase": 100.0 * float(np.mean(ses)),
            "cp": 100.0 * float(np.mean(cov)),
        }
        for col, value in recomputed.items():
            if not close(float(row[METRICS_COLUMNS.index(col)]), value):
                errors.append(f"metrics.csv {meth}/{j} {col} differs from the per-rep values")

    errors += _paper_orderings(methods, reps, p, est, se, selected)
    return errors


def _paper_orderings(methods, reps, p, est, se, selected) -> list:
    """Exact in-sample relations between the methods of one replication."""
    errors = []
    chains = [
        ("KNW", "EFF"), ("EFF", "INT"), ("EFF", "CRD"), ("ORC", "INT"), ("DBS", "INT"),
    ]
    for lo, hi in chains:
        if lo in methods and hi in methods:
            for r in range(reps):
                for j in range(p):
                    if not le(se[lo, r, j], se[hi, r, j]):
                        errors.append(f"rep {r}: se {lo} > se {hi}")
    if "DBS" in methods:
        # DBS fuses exactly the coordinates it selects: all of them is EFF,
        # the known-unbiased set is ORC, none is INT.
        twin_of = {"": "INT", ";".join(str(j) for j in range(p)): "EFF"}
        if "ORC" in methods:
            twin_of["0"] = "ORC"
        for r in range(reps):
            sel = selected["DBS", r]
            if any(part not in {str(j) for j in range(p)} for part in sel.split(";") if sel):
                errors.append(f"rep {r}: DBS selected {sel!r} is not a coordinate set")
                continue
            twin = twin_of.get(sel)
            if twin in methods:
                for j in range(p):
                    if not (close(est["DBS", r, j], est[twin, r, j])
                            and close(se["DBS", r, j], se[twin, r, j])):
                        errors.append(f"rep {r}: DBS with selection {sel!r} differs from {twin}")
    return errors[:5]


def check_estimate(out: dict, n: int, tau_true: float, level: float) -> list:
    """Errors in the JSON of one `estimate --method dbs` call (one parameter)."""
    try:
        estimate = float(out["estimate"][0])
        se = float(out["se"][0])
        lo, hi = (float(v) for v in out["ci"][0])
        avar = float(out["avar"][0][0])
        z = float(out["test"]["z"][0])
        p_value = float(out["test"]["p"][0])
        sel = out["selection"]
        b_hat = [float(v) for v in sel["b_hat"]]
        cv_trace = [(float(c), float(e)) for c, e in sel["cv_trace"]]
        method = out["method"]
        selected = list(sel["selected"])
        lam = float(sel["lambda"])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"estimate output lacks a field: {exc!r}"]
    errors = []
    if method != "DBS":
        errors.append(f"method {method!r}")
    if not all(math.isfinite(v) for v in (estimate, se, lo, hi, avar)) or se <= 0.0:
        return errors + ["estimate or se not finite, or se not positive"]
    zcrit = NormalDist().inv_cdf(0.5 + level / 2.0)
    if not (close(lo, estimate - zcrit * se) and close(hi, estimate + zcrit * se)):
        errors.append("confidence interval is not estimate -/+ z se")
    if not close(se, math.sqrt(avar / n)):
        errors.append("se is not sqrt(avar / n)")
    if not close(z, estimate / se) or not close(p_value, NormalDist().cdf(-z)):
        errors.append("Wald z or p-value inconsistent")
    if selected != [j for j, b in enumerate(b_hat) if b == 0.0]:
        errors.append("selected set is not the exact zeros of b_hat")
    if cv_trace:
        best = min(range(len(cv_trace)), key=lambda g: (cv_trace[g][1], g))
        if not close(lam, cv_trace[best][0] / n):
            errors.append("lambda is not the cross-validated C times n^-1")
    # The target is the true average treatment effect; six standard errors
    # leave a false alarm probability near 2e-9 per dataset.
    if abs(estimate - tau_true) > 6.0 * se:
        errors.append(f"estimate {estimate} is more than 6 se from the truth {tau_true}")
    return errors


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)
