"""The package's public surface, checked with the standard library only.

- `datafuse.__all__` is exactly the names below, each resolves, and names
  removed from the API stay removed.
- No module of the package imports a name it never uses, except on an
  import statement marked `# noqa: F401` (names kept bound for callers
  outside the module).
"""

import ast
import importlib
from pathlib import Path

import datafuse

PUBLIC = {
    "DataFuseError",
    "DebiasConfig",
    "FunctionalDescriptor",
    "FunctionalFit",
    "FunctionalKind",
    "FusionInputs",
    "FusionResult",
    "InternalDataset",
    "IoError",
    "Method",
    "MetricsRow",
    "NumericalError",
    "ScenarioConfig",
    "SelectionResult",
    "SimulationResult",
    "SummaryStatistic",
    "ValidationError",
    "adaptive_lasso",
    "cv_tune",
    "efficiency_bound",
    "estimate_crude",
    "estimate_dbs",
    "estimate_eff",
    "estimate_int",
    "estimate_knw",
    "estimate_orc",
    "evaluate_binding",
    "export_tables",
    "fit_aipw_ate",
    "fit_functional",
    "fit_joint_ols",
    "fit_marginal_ols",
    "fit_mean",
    "format_table",
    "gen_scenario1",
    "gen_scenario2",
    "kfold_indices",
    "prepare_inputs",
    "read_internal_csv",
    "read_summary_json",
    "restrict_inputs",
    "run_replications",
    "select_unbiased",
    "validate_dataset",
    "validate_summary",
    "wald_inference",
    "whiten",
    "write_internal_csv",
    "write_summary_json",
}

REMOVED = (
    "assemble_external",
    "binding_width",
    "empirical_moments",
    "expand_binding",
    "fit_logistic",
    "scenario1_beta_true",
    "summary_from_dict",
    "summary_to_dict",
)

PACKAGE = Path(datafuse.__file__).resolve().parent


def test_all_is_the_public_api():
    assert len(datafuse.__all__) == len(set(datafuse.__all__)) == 49
    assert set(datafuse.__all__) == PUBLIC
    for name in datafuse.__all__:
        assert getattr(datafuse, name) is not None, name


def test_removed_names_stay_removed():
    stems = sorted(path.stem for path in PACKAGE.glob("*.py") if path.stem != "__init__")
    for module in [datafuse] + [importlib.import_module(f"datafuse.{stem}") for stem in stems]:
        for name in REMOVED:
            assert not hasattr(module, name), f"{module.__name__}.{name}"


def _unused_imports(source: str) -> list:
    """Names bound by the import statements of `source` that nothing else in
    it reads, outside statements whose first line says noqa: F401."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if "noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a name listed in __all__ is used by being exported
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {elt.value for elt in node.value.elts}
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def test_modules_import_only_what_they_use():
    for path in sorted(PACKAGE.glob("*.py")):
        assert _unused_imports(path.read_text(encoding="utf-8")) == [], path.name


def test_unused_import_check_sees_an_unused_name():
    source = "import os\nfrom json import dumps, loads  # noqa: F401\nimport sys\nprint(sys)\n"
    assert _unused_imports(source) == ["line 1: os"]
