"""Fusion of internal individual-level data with external summary statistics.

The package estimates a target functional from an internal dataset while
borrowing strength from external model summaries, with comparators that
quantify what the borrowing buys and a debiased variant that survives
biased external sources.
"""

from .debias import (
    DebiasConfig,
    adaptive_lasso,
    cv_tune,
    estimate_dbs,
    estimate_orc,
    kfold_indices,
    select_unbiased,
    whiten,
)
from .errors import (
    DataFuseError,
    IoError,
    NumericalError,
    ValidationError,
)
from .functionals import (
    FunctionalFit,
    evaluate_binding,
    fit_aipw_ate,
    fit_functional,
    fit_joint_ols,
    fit_marginal_ols,
    fit_mean,
)
from .fusion import (
    FusionInputs,
    efficiency_bound,
    estimate_crude,
    estimate_eff,
    estimate_int,
    estimate_knw,
    prepare_inputs,
    restrict_inputs,
    wald_inference,
)
from .model import (
    FunctionalDescriptor,
    FunctionalKind,
    FusionResult,
    InternalDataset,
    Method,
    SelectionResult,
    SummaryStatistic,
    read_internal_csv,
    read_summary_json,
    validate_dataset,
    validate_summary,
    write_internal_csv,
    write_summary_json,
)
from .sim import (
    MetricsRow,
    ScenarioConfig,
    SimulationResult,
    export_tables,
    format_table,
    gen_scenario1,
    gen_scenario2,
    run_replications,
)

__version__ = "0.1.0"

__all__ = [
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
]
