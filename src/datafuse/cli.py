"""Command-line interface: `datafuse estimate` and `datafuse simulate`.

Results go to stdout (JSON by default). A failing command writes nothing
to stdout and one line to stderr, {"error": {"kind": ..., "detail": ...}};
Python warnings raised on the way are shown only when the command succeeds.
Exit codes: 0 success, 2 input validation error, 3 numerical failure.
DATAFUSE_SEED serves as a fallback seed when --seed is absent.
"""

import argparse
import functools
import json
import os
import sys
import warnings
from dataclasses import replace
from pathlib import Path

# The estimate_* names stay bound for bench/layers.py, which patches them here;
# estimators are called through debias._run_methods, on a list of one input.
from .debias import DebiasConfig, _run_methods, estimate_dbs  # noqa: F401
from .errors import DataFuseError, IoError, MalformedInput, ZeroStandardError
from .model import (
    FunctionalDescriptor,
    Method,
    _real,
    read_internal_csv,
    read_summary_json,
)
from .fusion import estimate_crude, estimate_eff, estimate_int  # noqa: F401
from .fusion import prepare_inputs, wald_inference
from .sim import ScenarioConfig, export_tables, format_table, run_replications

_EST_METHODS = ("int", "crd", "eff", "dbs")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise MalformedInput(message)


@functools.cache  # one parser per process: parse_args keeps no state in it
def _build_parser() -> _Parser:
    parser = _Parser(prog="datafuse", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    est = sub.add_parser("estimate", help="fuse an internal dataset with summaries")
    est.add_argument("--internal", required=True, help="internal data CSV")
    est.add_argument(
        "--summary", action="append", required=True,
        help="summary statistic JSON (repeat for several sources)",
    )
    est.add_argument(
        "--tau", required=True,
        help="target functional descriptor: inline JSON or a path to a JSON file",
    )
    est.add_argument("--method", choices=_EST_METHODS, default="eff")
    est.add_argument("--level", type=float, default=0.95)
    est.add_argument("--null", type=float, default=0.0)
    est.add_argument("--side", choices=("upper", "lower", "two_sided"), default="upper")
    est.add_argument("--debias-config", default=None, help="DebiasConfig JSON file")
    est.add_argument("--seed", type=int, default=None)
    est.add_argument("--format", choices=("json", "table"), default="json")
    est.add_argument("--out", default=None, help="write output here instead of stdout")

    simp = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    simp.add_argument("--config", default=None, help="ScenarioConfig JSON/TOML file")
    simp.add_argument("--scenario", choices=("I", "II_biased", "II_unbiased"), default=None)
    simp.add_argument("--n", type=int, default=None)
    simp.add_argument("--m", type=int, default=None)
    simp.add_argument("--reps", type=int, default=None)
    simp.add_argument("--seed", type=int, default=None)
    simp.add_argument("--methods", default=None, help="comma-separated method names")
    simp.add_argument("--level", type=float, default=None)
    simp.add_argument("--tau", default=None, help="scenario II coefficients, e.g. '1,1'")
    simp.add_argument("--out-dir", default=None, help="directory for the CSV tables")
    simp.add_argument("--threads", type=int, default=1)
    return parser


def _env_seed():
    raw = os.environ.get("DATAFUSE_SEED")
    if raw is None:
        return None
    try:
        return int(raw)
    except ValueError:
        raise MalformedInput(f"DATAFUSE_SEED must be an integer, got {raw!r}") from None


def _parse_descriptor(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        pass
    except (ValueError, RecursionError) as exc:  # JSON beyond the int-digit or nesting limit
        raise MalformedInput(f"--tau value: invalid JSON: {exc}") from exc
    try:
        is_file = Path(text).exists()
    except OSError:  # not a usable path, e.g. a name too long for the file system
        is_file = False
    if is_file:
        return _load_config_file(text, toml=False)
    raise MalformedInput(f"--tau value is neither JSON nor an existing file: {text!r}")


def _roles_from_tau(desc: FunctionalDescriptor) -> dict:
    return {k: v for k, v in desc.args.items() if k in ("outcome", "treatment", "covariates")}


def _cmd_estimate(args) -> tuple:
    tau_desc = FunctionalDescriptor.from_json(_parse_descriptor(args.tau))
    data = read_internal_csv(args.internal, **_roles_from_tau(tau_desc))
    summaries = [read_summary_json(p) for p in args.summary]

    null = _real("--null", args.null)
    seed = args.seed if args.seed is not None else _env_seed()
    inputs = prepare_inputs(data, tau_desc, summaries)
    method = Method(args.method.upper())
    debias_cfg = _debias_config(args.debias_config, seed) if method is Method.DBS else None
    result, selection = _run_methods(method, [inputs], args.level, debias=debias_cfg)[0]

    out = result.to_json_dict()
    try:
        z, p, _ = wald_inference(result, null=null, side=args.side)
        out["test"] = {
            "null": null,
            "side": args.side,
            "z": z.tolist(),
            "p": p.tolist(),
        }
    except ZeroStandardError:
        out["warnings"].append("zero standard error: test skipped")
    if selection is not None:
        out["selection"] = selection.to_json_dict()

    if args.format == "table":
        text = _estimate_table(out)
    else:
        text = json.dumps(out, indent=2)
    if args.out is None:
        return text, None
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise IoError(f"cannot write {args.out}: {exc}") from exc
    return None, None


def _debias_config(path, seed) -> DebiasConfig:
    """DebiasConfig from a JSON file (defaults without one), seed overriding."""
    debias_cfg = DebiasConfig()
    if path is not None:
        debias_cfg = DebiasConfig.from_dict(_load_config_file(path, toml=False))
    if seed is not None:
        debias_cfg = replace(debias_cfg, seed=seed)
    return debias_cfg


def _estimate_table(out: dict) -> str:
    lines = [f"{'method':<8}{'param':>6}{'estimate':>14}{'se':>12}{'p_one_sided':>13}"]
    test_p = out.get("test", {}).get("p")
    for j, est in enumerate(out["estimate"]):
        p = test_p[j] if test_p is not None else out["p_one_sided"][j]
        p_txt = f"{p:>13.4f}" if p is not None else f"{'NA':>13}"
        lines.append(
            f"{out['method']:<8}{j:>6}{est:>14.6f}{out['se'][j]:>12.6f}{p_txt}"
        )
    return "\n".join(lines)


def _load_config_file(path: str, toml: bool = True):
    """The content of a JSON file, or of a TOML file if `toml` and the name
    ends in .toml. A file that does not parse, is not UTF-8 or holds an
    integer beyond the interpreter's digit limit (all ValueError, as is
    tomllib.TOMLDecodeError) raises MalformedInput."""
    fmt = "TOML" if toml and Path(path).suffix.lower() == ".toml" else "JSON"
    try:
        if fmt == "TOML":
            try:
                import tomllib
            except ModuleNotFoundError:
                import tomli as tomllib
            with open(path, "rb") as fh:
                return tomllib.load(fh)
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        raise MalformedInput(f"{path}: invalid {fmt}: {exc}") from exc


def _cmd_simulate(args) -> tuple:
    cfg = _load_config_file(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise MalformedInput(f"{args.config}: simulate config must be a table/object")
    if args.scenario is not None:
        cfg["scenario"] = args.scenario
    if "scenario" not in cfg:
        raise MalformedInput("simulate needs --scenario or a config file naming one")
    for key in ("n", "m", "reps", "level"):
        value = getattr(args, key)
        if value is not None:
            cfg[key] = value
    if args.methods is not None:
        cfg["methods"] = tuple(s.strip() for s in args.methods.split(",") if s.strip())
    if args.tau is not None:
        try:
            cfg["tau"] = tuple(float(v) for v in args.tau.split(","))
        except ValueError:
            raise MalformedInput(f"--tau must be comma-separated numbers: {args.tau!r}") from None
    seed = args.seed if args.seed is not None else _env_seed()
    if seed is not None:
        cfg["seed"] = seed
    if args.out_dir is not None:
        cfg["out_dir"] = args.out_dir

    config = ScenarioConfig.from_dict(cfg)
    result = run_replications(config, threads=args.threads)
    if config.out_dir is None:
        return format_table(result.rows), None
    out_dir = Path(config.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise IoError(f"cannot create {out_dir}: {exc}") from exc
    paths = export_tables(result, out_dir / "metrics.csv")
    return format_table(result.rows), f"wrote {paths[0]} and {paths[1]}"


def main(argv=None) -> int:
    """Run one command. Its output, and the warnings raised while it ran, are
    written only if it succeeds: stdout text, then on stderr the warnings (as
    Python would have shown them) and the command's note."""
    with warnings.catch_warnings(record=True) as held:
        try:
            args = _build_parser().parse_args(argv)
            command = _cmd_estimate if args.command == "estimate" else _cmd_simulate
            text, note = command(args)
        except DataFuseError as exc:
            payload = {"error": {"kind": exc.kind, "detail": str(exc)}}
            print(json.dumps(payload), file=sys.stderr)
            return exc.exit_code
    if text is not None:
        print(text)
    for w in held:
        warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    if note is not None:
        print(note, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
