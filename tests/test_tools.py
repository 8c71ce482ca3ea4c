"""tools/compare_outputs.py: the verdict on one output of two checkouts;
tools/line_coverage.py: which lines that no test ran fail the run."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))
import compare_outputs  # noqa: E402
import line_coverage  # noqa: E402


def _estimate_json(z: float) -> str:
    p = 0.5 * math.erfc(z / math.sqrt(2.0))  # as datafuse.fusion computes an upper tail
    return json.dumps(
        {
            "method": "CRD",
            "estimate": [0.75],
            "p_one_sided": [p],
            "test": {"null": 0.0, "side": "upper", "z": [z], "p": [p]},
        },
        indent=2,
    )


def _reported(text: str) -> list:
    return [float(r) for r in re.findall(r"max rel diff (\S+)", text)]


def test_extreme_p_values_are_compared_by_their_normal_quantile():
    # z = 37.17 moved by 7.65e-15 relative moves its p of 1.04e-302 by about
    # z^2 times as much; the quantiles move as z did
    z = 37.17
    this, other = _estimate_json(z), _estimate_json(z * (1 + 7.65e-15))
    p_this, p_other = json.loads(this)["p_one_sided"][0], json.loads(other)["p_one_sided"][0]
    assert p_this < 1e-301 and abs(p_this - p_other) / p_this > 1e-11
    differs, text = compare_outputs.verdict(this, other)
    assert not differs
    numbers, p_values = _reported(text)
    assert 7e-15 < numbers < 8e-15  # z
    assert 7e-15 < p_values < 8e-15, text
    assert text.endswith("over 2")


def test_p_values_that_differ_are_still_reported():
    this = _estimate_json(1.5)
    differs, text = compare_outputs.verdict(this, _estimate_json(2.0))
    assert not differs and _reported(text)[1] > 0.1
    obj = json.loads(this)
    obj["test"]["p"] = [None]
    assert compare_outputs.verdict(this, json.dumps(obj, indent=2))[0]
    # text that is not JSON is compared token by token, as before
    assert compare_outputs.verdict("a,1.0\n", "a,1.5\n") == (False, "max rel diff 0.333 over 1 numbers")
    assert compare_outputs.verdict("a,1.0\n", "b,1.0\n")[0]


_GUARDED = """import sys
try:
    import tomllib
except ModuleNotFoundError:
    import tomli as tomllib


def main(x):
    if x < 0:
        raise ValueError(x)
    return 0


if __name__ == "__main__":
    sys.exit(main())
"""


def test_only_allowed_lines_may_go_unrun():
    lines, missing = line_coverage.unrun("guarded.py", _GUARDED, set())
    assert lines == missing == [1, 2, 3, 4, 5, 8, 9, 10, 11, 14, 15]
    ran = {("guarded.py", line) for line in (1, 2, 3, 8, 9, 11, 14)}
    lines, missing = line_coverage.unrun("guarded.py", _GUARDED, ran)
    # the tomli fallback and the script entry are allowed by their text, the
    # guard's raise is not
    assert missing == [4, 5, 10, 15]
    assert line_coverage.blocking(_GUARDED, missing) == [10]
    assert line_coverage.blocking(_GUARDED, [4, 5, 15]) == []
    # the allow-list keys on the text, not the line number
    shifted = "\n" + _GUARDED.replace("    return 0", "    return 0\n    return 1")
    assert line_coverage.blocking(shifted, [5, 6, 13, 17]) == [13]


def test_a_run_that_leaves_lines_of_src_unrun_fails(tmp_path):
    # the tests pass, but none imports the package: every line of src/ goes
    # unrun, and the run exits 1
    (tmp_path / "test_nothing.py").write_text("def test_nothing():\n    pass\n")
    env = dict(os.environ, PYTHONPATH=str(TOOLS))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "line_coverage", "-p", "no:cacheprovider",
         "test_nothing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 passed" in run.stdout and "line_coverage: FAILED" in run.stdout
