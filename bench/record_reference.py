"""Record bench/reference.json: the outputs of each workload's fixed
reference case, against which every benchmark run compares.

Run from the repository root, on the commit whose outputs are the
reference:

    python3 bench/record_reference.py
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    cases = {}
    for name in run.WORKLOADS:
        workdir = Path(tempfile.mkdtemp(prefix=f"reference-{name}-", dir=run.OUT))
        try:
            workload = run.make_workload(name, workdir)
            workload.prepare(0)
            rc, _, _ = run.call_cli(workload.reference_argv())
            if rc != 0:
                print(f"{name}: reference call exited {rc}", file=sys.stderr)
                return 1
            cases[name] = workload.parsed()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    commit = subprocess.run(
        ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True
    ).stdout.strip()
    payload = {
        "recorded_from": commit,
        "reference_seed": run.REFERENCE_SEED,
        "tolerance": "sqrt(float64 eps) relative to max(1, |a|, |b|)",
        "cases": cases,
    }
    run.REFERENCE.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {run.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
