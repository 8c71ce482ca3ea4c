"""SHA-256 digests of the outputs of a fixed set of datafuse commands.

Usage, from the repository root:

    python3 tools/output_digest.py > digests.txt

Runs in process, through `datafuse.cli.main`, with BLAS pinned to one
thread:

- `simulate --reps 200 --seed 7` for scenarios I, II_biased and
  II_unbiased (other settings at their defaults): stdout, stderr,
  metrics.csv and metrics_per_rep.csv;
- `estimate --method int|crd|eff|dbs` on an n = 20000 Scenario I CSV that
  the script writes (external m = 20000), with the aipw_ate target of
  Scenario I: stdout and stderr;
- `estimate --method dbs` on two rewrites of that CSV: one with LF line
  ends and no final line end (the loadtxt path's other line-end branch),
  one with a quoted header (parsed by the csv loop instead of loadtxt):
  stdout and stderr, which must equal those of the unchanged file;
- `estimate --method dbs` on an n = 20000 Scenario II_biased CSV (external
  m = 80000), with the joint_ols target of Scenario II: stdout, which holds
  the cross-validation trace of folds read from moment sums, and stderr;
- `estimate --method dbs` on the same CSV and target with two summaries
  whose bindings share one fit and name its components: the first reports
  component 0 of the target's joint_ols(Y~X1+X2) fit and a marginal_ols
  slope of Y on X2 (shifted by 0.1, a bias), the second component 1 of the
  joint fit. Each is fitted on its own external Scenario II sample of
  m = 80000 rows. Its folds too are read from moment sums.

Prints one line per output, "<sha256>  <command>/<output>", and one for
each written CSV. In stderr the path of the source tree (where warnings name
their file) reads "<src>" and that of the temporary directory "<tmp>", so
runs from checkouts in different directories compare equal. A change that
claims to leave every output unchanged should leave this output unchanged:
diff it between the parent checkout and the change. The digests depend on
the numpy and BLAS build, so compare runs on one machine only. Exits 1 if
any command fails. `outputs` yields the outputs themselves, which
tools/compare_outputs.py compares number by number.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from datafuse import (  # noqa: E402
    FunctionalDescriptor,
    cli,
    evaluate_binding,
    gen_scenario1,
    gen_scenario2,
    validate_summary,
    write_internal_csv,
    write_summary_json,
)

SCENARIOS = ("I", "II_biased", "II_unbiased")
METHODS = ("int", "crd", "eff", "dbs")
SIM_ARGS = ("--reps", "200", "--seed", "7")
ESTIMATE_N = 20000
ESTIMATE_SEED = 7
TAU = json.dumps(
    {"functional": "aipw_ate",
     "args": {"outcome": "Y", "treatment": "T", "covariates": ["X", "X2"]}}
)
JOINT_II = {
    "functional": "joint_ols",
    "args": {"outcome": "Y", "regressors": ["X1", "X2"], "intercept": False},
}
TAU_II = json.dumps(JOINT_II)
# the bindings of the shared-fit summaries (write_component_summaries)
COMPONENT_BINDINGS = (
    [{**JOINT_II, "component": 0},
     {"functional": "marginal_ols", "args": {"outcome": "Y", "regressor": "X2"}}],
    [{**JOINT_II, "component": 1}],
)


def run(argv: list, tmp: Path) -> tuple:
    """(exit code, stdout, stderr) of `datafuse <argv>`, in process; `tmp`
    is the temporary directory the command writes to."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    # the source tree imported, which warnings name
    src = str(Path(cli.__file__).resolve().parent.parent)
    stderr = err.getvalue().replace(src, "<src>").replace(str(tmp), "<tmp>")
    return code, out.getvalue(), stderr


def digest(data) -> str:
    if isinstance(data, str):
        data = data.encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def command(name: str, argv: list, tmp: Path, failures: list, files=()):
    """Run `datafuse <argv>` and yield its stdout, its stderr and, if it
    succeeds, `files`, each as (name, output); if it fails, append `name`
    to `failures`."""
    code, stdout, stderr = run(argv, tmp)
    yield f"{name}/stdout", stdout
    yield f"{name}/stderr", stderr
    if code != 0:
        print(f"{name} exited {code}: {stderr.strip()}", file=sys.stderr)
        failures.append(name)
        return
    for path in files:
        yield f"{name}/{path.name}", path.read_bytes()


def outputs(tmp: Path, failures: list):
    """The command set, run in `tmp`: yields (name, output) for every output
    in order, a str or bytes, and appends each failing command's name to
    `failures`."""
    for scenario in SCENARIOS:
        out_dir = tmp / scenario
        argv = ["simulate", "--scenario", scenario, *SIM_ARGS, "--out-dir", str(out_dir)]
        files = (out_dir / "metrics.csv", out_dir / "metrics_per_rep.csv")
        yield from command(f"simulate-{scenario}", argv, tmp, failures, files)

    rng = np.random.default_rng(ESTIMATE_SEED)
    csv_path, summary_path = write_inputs(tmp, "", *gen_scenario1(ESTIMATE_N, ESTIMATE_N, rng))
    yield f"inputs/{csv_path.name}", csv_path.read_bytes()
    for method in METHODS:
        argv = [
            "estimate", "--internal", str(csv_path), "--summary", str(summary_path),
            "--tau", TAU, "--method", method,
        ]
        yield from command(f"estimate-{method}", argv, tmp, failures)
    rewrites = (("lf-no-final-newline", lf_no_final_end), ("quoted-header", quote_header))
    for name, rewrite in rewrites:
        path = tmp / f"internal_{name}.csv"
        path.write_bytes(rewrite(csv_path.read_bytes()))
        argv = [
            "estimate", "--internal", str(path), "--summary", str(summary_path),
            "--tau", TAU, "--method", "dbs",
        ]
        yield from command(f"estimate-dbs-{name}", argv, tmp, failures)

    rng = np.random.default_rng(ESTIMATE_SEED)
    inputs = gen_scenario2(ESTIMATE_N, 4 * ESTIMATE_N, True, rng)
    csv_path, summary_path = write_inputs(tmp, "_II", *inputs)
    yield f"inputs/{csv_path.name}", csv_path.read_bytes()
    argv = [
        "estimate", "--internal", str(csv_path), "--summary", str(summary_path),
        "--tau", TAU_II, "--method", "dbs",
    ]
    yield from command("estimate-II_biased-dbs", argv, tmp, failures)

    argv = ["estimate", "--internal", str(csv_path), "--tau", TAU_II, "--method", "dbs"]
    for path in write_component_summaries(tmp):
        argv += ["--summary", str(path)]
    yield from command("estimate-II_biased-dbs-components", argv, tmp, failures)


def main() -> int:
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, data in outputs(Path(tmp), failures):
            print(f"{digest(data)}  {name}")
    return 1 if failures else 0


def write_inputs(tmp: Path, suffix: str, internal, summary, _truth) -> tuple:
    """Write `internal` and `summary` to `tmp` and return the two paths."""
    csv_path = tmp / f"internal{suffix}.csv"
    summary_path = tmp / f"summary{suffix}.json"
    write_internal_csv(internal, csv_path)
    write_summary_json(summary, summary_path)
    return csv_path, summary_path


def lf_no_final_end(raw: bytes) -> bytes:
    """A CSV written with CRLF line ends, with LF ones and no final one."""
    return raw.replace(b"\r\n", b"\n").removesuffix(b"\n")


def quote_header(raw: bytes) -> bytes:
    """A CSV written with CRLF line ends, with each header name quoted."""
    header, body = raw.split(b"\r\n", 1)
    return b",".join(b'"%s"' % name for name in header.split(b",")) + b"\r\n" + body


def write_component_summaries(tmp: Path) -> list:
    """Write one summary per binding of COMPONENT_BINDINGS, each fitted on
    its own external Scenario II sample of 4 * ESTIMATE_N rows (sigma1 the
    second moment of its influence), the first with 0.1 added to its last
    coordinate; return their paths."""
    m = 4 * ESTIMATE_N
    paths = []
    for i, binding in enumerate(COMPONENT_BINDINGS):
        descs = [FunctionalDescriptor.from_json(obj) for obj in binding]
        rng = np.random.default_rng(ESTIMATE_SEED + 1 + i)
        external = gen_scenario2(m, m, False, rng)[0]
        beta, eta = evaluate_binding(external, descs)
        if i == 0:
            beta[-1] += 0.1
        sigma1 = eta.T @ eta / m
        summary = validate_summary(beta, (sigma1 + sigma1.T) / 2.0, m, descs, f"components-{i}")
        paths.append(tmp / f"summary_components_{i}.json")
        write_summary_json(summary, paths[-1])
    return paths


if __name__ == "__main__":
    sys.exit(main())
