"""Number-by-number comparison of the outputs of tools/output_digest.py's
commands between this checkout and another one, such as a parent commit's.

Usage, from the repository root:

    python3 tools/compare_outputs.py PATH/TO/OTHER/CHECKOUT

Runs the command set of this checkout's tools/output_digest.py (its
`outputs`) twice, each time in a subprocess with BLAS pinned to one thread:
on this checkout's src/ and on the other checkout's src/. Then it prints
one line per output, "<command>/<output>: <verdict>", where the verdict is

- "identical" when the two outputs are the same text;
- "max rel diff <r> over <k> numbers" when they differ only in numbers with
  a decimal point or an exponent, r the largest |a - b| / max(|a|, |b|).
  In a JSON output the p-values ("p_one_sided" and the "test" entry's "p")
  are compared apart, by their normal quantiles z = NormalDist().inv_cdf(p),
  and any that differ are reported after "; p-values by normal quantile:"
  in the same form: a tail p's relative error is about z^2 times that of z,
  so round-off in an extreme p, such as 9.29e-303 at z = -37.17, would hide
  every other move;
- "DIFFERS at token <i>: <this> != <other>" otherwise: in the text between
  numbers (a header, a method name, a warning) or in an integer (a selected
  set, a coverage flag, a count, a line number).

Exits 1 if any output DIFFERS, if one side has an output the other lacks,
or if a command fails on either side; else 0. Like the digests, the
numbers depend on the numpy and BLAS build, so compare on one machine only.
"""

import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from statistics import NormalDist

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def collect(src: str, out: str) -> int:
    """Run output_digest's command set on the package under `src` and write
    its outputs to `out` as a JSON list of [name, text]."""
    sys.path.insert(0, src)
    import datafuse  # noqa: F401  (the tree under `src`, before output_digest adds its own)

    sys.path.insert(0, str(TOOLS))
    import output_digest

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        found = [
            [name, data.decode("utf-8") if isinstance(data, bytes) else data]
            for name, data in output_digest.outputs(Path(tmp), failures)
        ]
    Path(out).write_text(json.dumps(found), encoding="utf-8")
    return 1 if failures else 0


def run_side(checkout: Path, out: Path) -> tuple:
    """(exit code, outputs) of the command set on `checkout`'s src/. The
    child writes no bytecode, so both checkouts are left as they were: a
    __pycache__ written into a checkout's src/ changes how fast it imports."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    argv = [sys.executable, __file__, "--collect", str(checkout / "src"), str(out)]
    code = subprocess.run(argv, env=env, check=False).returncode
    found = json.loads(out.read_text(encoding="utf-8")) if out.exists() else []
    return code, dict(found)


def verdict(this: str, other: str) -> tuple:
    """(differs, text) for one output on the two sides."""
    if this == other:
        return False, "identical"
    a_p, this = _split_p_values(this)
    b_p, other = _split_p_values(other)
    differs, text = _number_verdict(this, other)
    if differs or not (a_p or b_p):
        return differs, text
    if len(a_p) != len(b_p) or any((a is None) != (b is None) for a, b in zip(a_p, b_p)):
        return True, f"DIFFERS in p-values: {a_p} != {b_p}"
    worst, count = 0.0, 0
    for a, b in zip(a_p, b_p):
        if a != b:
            worst = max(worst, _rel_diff(_quantile(a), _quantile(b)))
            count += 1
    if count == 0:
        return False, text
    return False, f"{text}; p-values by normal quantile: max rel diff {worst:.3g} over {count}"


def _split_p_values(text: str) -> tuple:
    """(p-values, rest of the text) of an output that is a JSON object:
    its "p_one_sided" list and the "test" entry's "p" list, and the object
    without them, dumped as estimate dumps it. Other text comes back whole."""
    try:
        obj = json.loads(text)
    except ValueError:
        return [], text
    if not isinstance(obj, dict):
        return [], text
    p_values = list(obj.pop("p_one_sided", []))
    if isinstance(obj.get("test"), dict):
        p_values += obj["test"].pop("p", [])
    return p_values, json.dumps(obj, indent=2)


def _quantile(p: float) -> float:
    """NormalDist().inv_cdf(p), or p itself at 0 and 1, where it is infinite."""
    return NormalDist().inv_cdf(p) if 0.0 < p < 1.0 else p


def _number_verdict(this: str, other: str) -> tuple:
    """verdict's token by token comparison of two texts."""
    worst, count = 0.0, 0
    a_parts, b_parts = NUMBER.split(this), NUMBER.split(other)
    a_nums, b_nums = NUMBER.findall(this), NUMBER.findall(other)
    tokens = zip(_interleave(a_parts, a_nums), _interleave(b_parts, b_nums))
    for i, ((a, a_is_num), (b, b_is_num)) in enumerate(tokens):
        if a == b:
            continue
        if a_is_num and b_is_num and (_is_float(a) or _is_float(b)):
            x, y = float(a), float(b)
            if math.isfinite(x) and math.isfinite(y):
                worst = max(worst, _rel_diff(x, y))
                count += 1
                continue
        return True, f"DIFFERS at token {i}: {a!r} != {b!r}"
    if len(a_nums) != len(b_nums):
        return True, f"DIFFERS: {len(a_nums)} numbers != {len(b_nums)}"
    return False, f"max rel diff {worst:.3g} over {count} numbers"


def _rel_diff(x: float, y: float) -> float:
    return 0.0 if x == y else abs(x - y) / max(abs(x), abs(y))


def _interleave(parts: list, numbers: list):
    """(token, is_number) pairs in text order: re.split leaves one more part
    than there are numbers."""
    for part, number in zip(parts, numbers):
        yield part, False
        yield number, True
    yield parts[-1], False


def _is_float(token: str) -> bool:
    return any(c in token for c in ".eE")


def main(argv: list) -> int:
    if len(argv) == 3 and argv[0] == "--collect":
        return collect(argv[1], argv[2])
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        this_code, this = run_side(ROOT, Path(tmp) / "this.json")
        other_code, other = run_side(Path(argv[0]).resolve(), Path(tmp) / "other.json")
    bad = this_code != 0 or other_code != 0
    for name in list(this) + [name for name in other if name not in this]:
        if name not in this or name not in other:
            print(f"{name}: DIFFERS: only in {'this' if name in this else 'the other'} checkout")
            bad = True
            continue
        differs, text = verdict(this[name], other[name])
        print(f"{name}: {text}")
        bad |= differs
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
