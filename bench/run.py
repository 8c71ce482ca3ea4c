"""datafuse benchmark: simulate throughput and estimate latency.

Usage, from the repository root:

    python3 bench/run.py --workload sim_I --seed 1 --seconds 25 --trace 0

Drives datafuse only through `datafuse.cli.main`, in process, with one
worker thread and BLAS pinned to one thread. `--trace 0` measures the
end-to-end metrics, with every timed sample scaled to a reference machine
speed (see calibrate); `--trace 1` alternates untraced and traced calls on
the same inputs and reports per-layer metrics (see layers.py). Every call's
outputs are checked (see checks.py). The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}. Spans and a full
record of each run, machine details included, go to .bench_out/.
"""

import os

# Pin BLAS before numpy loads: OpenBLAS's default threading made Scenario I
# up to 2.6x slower on a 2-core machine.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse
import contextlib
import csv
import ctypes
import glob
import hashlib
import io
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import checks
import layers

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

LEVEL = 0.95
REFERENCE_SEED = 20221001
# Fresh set-up processes per run, spread evenly through it.
SETUP_REPEATS = 11
# Time of the calibration kernel, in ms, on the machine the benchmark was
# defined on (2-core Intel Xeon VM, Python 3.11, numpy 2.4, one OpenBLAS
# thread) when that machine ran at its fast speed. Each timed sample is
# scaled by CALIBRATION_REF_MS over the mean time of the kernel runs just
# before and just after it (see calibrate), so the metrics read as ms or s
# on that machine at that speed.
CALIBRATION_REF_MS = 22.5
TAIL_GRID = (50.0, 75.0, 90.0)
TAIL_BEYOND = 10
# estimate_large cycles through this many datasets, each written from its
# own seed, so that a cache keyed on one input cannot serve every call.
ESTIMATE_DATASETS = 8

# A simulate call runs 200 replications, the batch ROADMAP's baselines were
# measured at; `reference_reps` is the smaller batch of the fixed reference
# case in reference.json.
WORKLOADS = {
    "sim_I": {
        "kind": "simulate", "scenario": "I", "n": 1000, "m": 1000,
        "methods": ("INT", "CRD", "EFF", "KNW"), "reps": 200, "reference_reps": 20,
        "tau": (1.0,),
    },
    "sim_II_biased": {
        "kind": "simulate", "scenario": "II_biased", "n": 1000, "m": 4000,
        "methods": ("INT", "ORC", "DBS", "EFF"), "reps": 200, "reference_reps": 8,
        "tau": (1.0, 1.0),
    },
    "estimate_large": {"kind": "estimate", "n": 20000, "m": 20000, "tau": (1.0,)},
}

SETUP_CODE = """\
import sys, time
t0, c0 = time.perf_counter(), time.process_time()
from datafuse import cli
rc = cli.main(sys.argv[1:])
print(repr(time.perf_counter() - t0), repr(time.process_time() - c0))
sys.exit(rc)
"""

TAU_DESCRIPTOR = json.dumps(
    {"functional": "aipw_ate",
     "args": {"outcome": "Y", "treatment": "T", "covariates": ["X", "X2"]}}
)


class SimulateWorkload:
    """`datafuse simulate` batches; a unit is one replication."""

    def __init__(self, name, spec, workdir: Path):
        self.name = name
        self.spec = dict(spec)
        self.units_per_call = spec["reps"]
        self.reference_units = spec["reference_reps"]
        self.out_dir = workdir / "out"

    def prepare(self, seed: int):
        self.rng = np.random.default_rng([seed, 1])

    def argv(self, seed: int, reps: int) -> list:
        s = self.spec
        return [
            "simulate", "--scenario", s["scenario"], "--n", str(s["n"]), "--m", str(s["m"]),
            "--reps", str(reps), "--seed", str(seed), "--methods", ",".join(s["methods"]),
            "--threads", "1", "--out-dir", str(self.out_dir),
        ]

    def setup_argv(self) -> list:
        return self.argv(0, 1)

    def next_argv(self) -> list:
        return self.argv(int(self.rng.integers(2**31)), self.units_per_call)

    def reference_argv(self) -> list:
        return self.argv(REFERENCE_SEED, self.spec["reference_reps"])

    def outputs(self, stdout: str) -> tuple:
        return (
            stdout,
            (self.out_dir / "metrics.csv").read_bytes(),
            (self.out_dir / "metrics_per_rep.csv").read_bytes(),
        )

    def parsed(self) -> dict:
        return {
            "metrics.csv": checks.read_csv(self.out_dir / "metrics.csv"),
            "metrics_per_rep.csv": checks.read_csv(self.out_dir / "metrics_per_rep.csv"),
        }

    def check(self) -> list:
        tables = self.parsed()
        spec = dict(self.spec, level=LEVEL)
        return checks.check_simulation(
            tables["metrics.csv"], tables["metrics_per_rep.csv"], spec
        )

    def empty_selections(self) -> tuple:
        """(replications whose DBS selection was empty, DBS replications)."""
        if "DBS" not in self.spec["methods"]:
            return 0, 0
        rows = self.parsed()["metrics_per_rep.csv"][1:]
        dbs = [row for row in rows if row[1] == "DBS" and row[4] == "0"]
        return sum(1 for row in dbs if row[8] == ""), len(dbs)


class EstimateWorkload:
    """`datafuse estimate --method dbs` on large CSVs; a unit is one call."""

    units_per_call = reference_units = 1

    def __init__(self, name, spec, workdir: Path):
        self.name = name
        self.spec = dict(spec)
        self.workdir = workdir
        self.out = workdir / "estimate.json"

    def _write_inputs(self, tag: str, n: int, m: int, seed) -> tuple:
        from datafuse import gen_scenario1, write_internal_csv, write_summary_json

        internal, summary, _ = gen_scenario1(n, m, np.random.default_rng(seed))
        csv_path = self.workdir / f"{tag}.csv"
        summary_path = self.workdir / f"{tag}_summary.json"
        write_internal_csv(internal, csv_path)
        write_summary_json(summary, summary_path)
        return csv_path, summary_path

    def prepare(self, seed: int):
        n, m = self.spec["n"], self.spec["m"]
        self.inputs = [
            self._write_inputs(f"data{k}", n, m, [seed, 2, k]) for k in range(ESTIMATE_DATASETS)
        ]
        self.small_inputs = self._write_inputs("small", 1000, 1000, [seed, 3])
        self.reference_inputs = self._write_inputs("reference", n, m, REFERENCE_SEED)
        self.calls = 0
        self.dataset = None
        self.first_output = {}

    def argv(self, inputs) -> list:
        csv_path, summary_path = inputs
        return [
            "estimate", "--internal", str(csv_path), "--summary", str(summary_path),
            "--tau", TAU_DESCRIPTOR, "--method", "dbs", "--out", str(self.out),
        ]

    def setup_argv(self) -> list:
        return self.argv(self.small_inputs)

    def next_argv(self) -> list:
        self.dataset = self.calls % len(self.inputs)
        self.calls += 1
        return self.argv(self.inputs[self.dataset])

    def reference_argv(self) -> list:
        return self.argv(self.reference_inputs)

    def outputs(self, stdout: str) -> tuple:
        return (stdout, self.out.read_bytes())

    def parsed(self) -> dict:
        return {"estimate.json": checks.load_json(self.out)}

    def check(self) -> list:
        raw = self.out.read_bytes()
        errors = checks.check_estimate(
            json.loads(raw), self.spec["n"], self.spec["tau"][0], LEVEL
        )
        # Every call on one dataset must give byte-identical output.
        first = self.first_output.setdefault(self.dataset, raw)
        if raw != first:
            errors.append(f"output differs from the first call on dataset {self.dataset}")
        return errors

    def empty_selections(self) -> tuple:
        out = checks.load_json(self.out)
        return int(not out["selection"]["selected"]), 1


def make_workload(name: str, workdir: Path):
    spec = WORKLOADS[name]
    cls = SimulateWorkload if spec["kind"] == "simulate" else EstimateWorkload
    return cls(name, spec, workdir)


# ---------------------------------------------------------------------------
# calls


def call_cli(argv) -> tuple:
    """Run `datafuse.cli.main(argv)` in process: (exit code, seconds, stdout).

    The exit code is None when the call raised instead of returning.
    """
    from datafuse import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed call, recorded, not fatal
            rc = None
            traceback.print_exc(file=err)
        seconds = time.perf_counter() - t0
    if rc != 0:
        sys.stderr.write(f"call {argv[:3]} exited {rc}: {err.getvalue()[-2000:]}\n")
    return rc, seconds, out.getvalue()


class Tally:
    """Attempted and failed units, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def record(self, units: int, errors: list):
        self.attempted += units
        if errors:
            self.fail(units, "; ".join(errors[:3]))

    def fail(self, units: int, message: str):
        """Count already attempted units as failed."""
        self.failed += units
        if len(self.messages) < 10:
            self.messages.append(message)


def checked_call(workload, argv, tally: Tally) -> tuple:
    """One call with its checks: (seconds, outputs or None)."""
    rc, seconds, stdout = call_cli(argv)
    if rc != 0:
        tally.record(workload.units_per_call, [f"exit code {rc}"])
        return seconds, None
    try:
        errors = workload.check()
        outputs = workload.outputs(stdout)
    except (OSError, ValueError, KeyError, IndexError, csv.Error) as exc:
        errors, outputs = [f"unreadable output: {exc!r}"], None
    tally.record(workload.units_per_call, errors)
    return seconds, outputs


def check_reference(workload, tally: Tally) -> list:
    """Run the fixed reference case and compare with reference.json."""
    expected = checks.load_json(REFERENCE)["cases"][workload.name]
    rc, _, _ = call_cli(workload.reference_argv())
    if rc != 0:
        errors = [f"reference call exited {rc}"]
    else:
        errors = checks.compare(workload.parsed(), expected, workload.name)
    tally.record(workload.reference_units, errors)
    return errors


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(samples: int) -> float:
    """Highest percentile of TAIL_GRID that leaves at least TAIL_BEYOND
    samples beyond it; 50 when none does."""
    best = TAIL_GRID[0]
    for p in TAIL_GRID:
        if samples * (100.0 - p) >= 100.0 * TAIL_BEYOND:
            best = p
    return best


def due(done: int, count: int, elapsed: float, seconds: float) -> bool:
    """Whether the next of `count` samples spread evenly over `seconds` is
    due, `done` samples having been taken after `elapsed` seconds."""
    return done < count and elapsed >= done * seconds / count


# ---------------------------------------------------------------------------
# machine speed


_CALIBRATION_RNG = np.random.default_rng(12345)
_CALIBRATION_X = _CALIBRATION_RNG.standard_normal((1000, 4))
_CALIBRATION_Y = _CALIBRATION_RNG.standard_normal(1000)


def calibrate() -> float:
    """Seconds taken by a fixed kernel that does not use datafuse.

    The kernel mixes what a datafuse call does: small matrix products and
    solves on 1000-row arrays, elementwise numpy, and interpreted Python
    loops. Other tenants' load on a shared VM slows it as it slows the
    calls, so the ratio of the two stays steady while each swings.
    """
    x, y = _CALIBRATION_X, _CALIBRATION_Y
    eye = np.eye(x.shape[1])
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(600):
        beta = np.linalg.solve(x.T @ x + eye, x.T @ y)
        acc += float(np.mean(1.0 / (1.0 + np.exp(-(x @ beta)))))
        acc += sum(i * 0.5 for i in range(200))
    seconds = time.perf_counter() - t0
    if not acc > 0.0:
        raise RuntimeError("calibration kernel gave a wrong result")
    return seconds


# ---------------------------------------------------------------------------
# set-up time


def measure_setup(workload) -> tuple:
    """(wall, CPU) seconds to import datafuse and finish a first small call
    in a fresh process. Interpreter start-up is not included."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE, *workload.setup_argv()],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process exited {proc.returncode}: {proc.stderr[-2000:]}")
    wall, cpu = proc.stdout.strip().splitlines()[-1].split()
    return float(wall), float(cpu)


# ---------------------------------------------------------------------------
# machine record


def _blas_threads():
    """Threads OpenBLAS will use, asked from the library numpy loaded."""
    lib_dirs = [Path(np.__file__).parent.parent / "numpy.libs", Path(np.__file__).parent / ".libs"]
    for lib_dir in lib_dirs:
        for path in sorted(glob.glob(str(lib_dir / "*openblas*"))):
            try:
                lib = ctypes.CDLL(path)
            except OSError:
                continue
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                           "openblas_get_num_threads"):
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    return int(fn())
    return None


def machine_record() -> dict:
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (TypeError, KeyError):
        blas_name = blas_version = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "datafuse").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads_pinned": BLAS_THREADS,
        "blas_threads_reported": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
    }


# ---------------------------------------------------------------------------
# runs


def run_plain(workload, seconds: float, tally: Tally) -> dict:
    """Untraced calls until `seconds` of call time have passed, with the
    set-up processes spread evenly between them. The calibration kernel
    runs before the first sample and after every sample, and each sample is
    scaled by the kernel runs on either side of it."""
    kernel = [calibrate()]
    times, setup, scaled_times, scaled_setup = [], [], [], []

    def scale() -> float:
        return CALIBRATION_REF_MS / (1e3 * (kernel[-2] + kernel[-1]) / 2.0)

    total = 0.0
    while total < seconds:
        while due(len(setup), SETUP_REPEATS, total, seconds):
            setup.append(measure_setup(workload))
            kernel.append(calibrate())
            scaled_setup.append(setup[-1][1] * scale())
        elapsed, _ = checked_call(workload, workload.next_argv(), tally)
        kernel.append(calibrate())
        times.append(elapsed)
        scaled_times.append(elapsed * scale())
        total += elapsed
    units = workload.units_per_call
    tail_p = tail_percentile(len(times))

    def summary(call_s, setup_s) -> dict:
        ms = 1e3 * np.asarray(call_s)
        return {
            "reps_per_s": units * len(call_s) / float(np.sum(call_s)),
            "latency_p50_ms": float(np.percentile(ms, 50.0)),
            "latency_tail_ms": float(np.percentile(ms, tail_p)),
            "setup_s": statistics.median(setup_s),
        }

    return {
        "calls": len(times),
        "units_per_call": units,
        "tail_percentile": tail_p,
        "call_s": times,
        "setup_wall_s": [w for w, _ in setup],
        "setup_cpu_s": [c for _, c in setup],
        "setup_scaled_s": scaled_setup,
        "calibration_ms": [1e3 * k for k in kernel],
        # As measured (set-up is CPU time), and scaled to the reference speed.
        "raw": summary(times, [c for _, c in setup]),
        "scaled": summary(scaled_times, scaled_setup),
    }


def run_traced(workload, seconds: float, tally: Tally, tracer) -> dict:
    """Pairs of untraced and traced calls on the same inputs, alternating
    which goes first; their outputs must be byte-identical."""
    plain_s = traced_s = 0.0
    pairs = empty = dbs = 0
    while plain_s + traced_s < seconds:
        argv = workload.next_argv()
        results = {}
        for traced in ((False, True) if pairs % 2 == 0 else (True, False)):
            with tracer if traced else contextlib.nullcontext():
                results[traced] = checked_call(workload, argv, tally)
            if traced and results[traced][1] is not None:
                e, d = workload.empty_selections()
                empty, dbs = empty + e, dbs + d
        plain_s += results[False][0]
        traced_s += results[True][0]
        outputs = (results[False][1], results[True][1])
        if None not in outputs and outputs[0] != outputs[1]:
            tally.fail(workload.units_per_call, "traced output differs from untraced")
        pairs += 1
    units = pairs * workload.units_per_call
    metrics = layers.layer_metrics(tracer.spans, tracer.events, units)
    metrics["debias.empty_selection_frac"] = empty / dbs if dbs else 0.0
    metrics["trace.overhead_frac"] = traced_s / plain_s - 1.0
    return {"pairs": pairs, "units": units, "spans": len(tracer.spans), "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    if not (SRC / "datafuse" / "__init__.py").is_file():
        print(f"error: datafuse sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        return _run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workdir: Path) -> int:
    workload = make_workload(args.workload, workdir)
    t0 = time.perf_counter()
    workload.prepare(args.seed)
    prepare_s = time.perf_counter() - t0
    tally = Tally()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "spec": WORKLOADS[args.workload], "prepare_s": prepare_s,
        "machine": machine_record(),
    }
    if args.trace == 0:
        # Warm-up: the first set-up process also compiles bytecode, and the
        # first in-process call finishes lazy set-up inside the package (the
        # cached quadrature); neither is timed, and the call is still checked.
        measure_setup(workload)
        checked_call(workload, workload.next_argv(), tally)
        plain = run_plain(workload, args.seconds, tally)
        record["plain"] = plain
        scaled = plain["scaled"]
        metrics = {
            "setup_s": (scaled["setup_s"], "s"),
            "reps_per_s": (scaled["reps_per_s"], "1/s"),
            "latency_p50_ms": (scaled["latency_p50_ms"], "ms"),
            "latency_tail_ms": (scaled["latency_tail_ms"], "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        tracer = layers.Tracer()
        checked_call(workload, workload.next_argv(), tally)
        traced = run_traced(workload, args.seconds, tally, tracer)
        spans_path = OUT / f"spans-{args.workload}-s{args.seed}.csv.gz"
        tracer.write(spans_path)
        record["traced"] = {k: v for k, v in traced.items() if k != "metrics"}
        record["spans_file"] = spans_path.name
        metrics = {
            name: (value, layers.metric_unit(name))
            for name, value in traced["metrics"].items()
        }

    reference_errors = check_reference(workload, tally)
    record.update(
        attempted=tally.attempted, failed=tally.failed,
        failed_frac=tally.failed / tally.attempted, failures=tally.messages,
        reference_errors=reference_errors[:10],
        metrics={name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    )
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("machine " + json.dumps(record["machine"], sort_keys=True))
    if args.trace == 0:
        plain = record["plain"]
        print(f"calls {plain['calls']} x {plain['units_per_call']} units; "
              f"tail = p{plain['tail_percentile']:g} of {plain['calls']} calls")
    else:
        print(f"traced pairs {record['traced']['pairs']}, spans {record['traced']['spans']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    if args.trace == 0:
        print(f"as measured (median calibration kernel "
              f"{statistics.median(plain['calibration_ms']):.4g} ms):")
        for name, value in plain["raw"].items():
            print(f"  {name:<40} {value:>14.6g}")
    print(f"  {'failed_frac':<40} {record['failed_frac']:>14.6g} "
          f"({tally.failed}/{tally.attempted} units)")
    for message in tally.messages:
        print(f"  failure: {message}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
