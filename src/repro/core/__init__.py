"""The epidemiological workflows (the paper's primary contribution)."""

from .accounting import (
    WorkflowAccounting,
    account_workflow,
    raw_bytes_per_simulation,
    summary_bytes_per_simulation,
    table_i,
)
from .calibration_wf import (
    CalibrationWorkflowResult,
    align_onset,
    run_calibration_workflow,
    run_iterative_calibration,
)
from .counterfactual_wf import (
    EconomicWorkflowResult,
    ScenarioOutcome,
    run_economic_workflow,
)
from .cellconfig import (
    CellConfig,
    configs_from_design,
    read_config_bundle,
    write_config_bundle,
)
from .designs import (
    Cell,
    ExperimentDesign,
    calibration_design,
    case_study_space,
    economic_design,
    factorial_cells,
    lhs_cells,
    prediction_design,
)
from .engine import WorkflowEngine, WorkflowError, WorkflowRun
from .national import NationalRun, run_national
from .parallel import (
    InstanceOutcome,
    InstanceSpec,
    gather_ensemble,
    run_instances,
    specs_for_design,
)
from .orchestrator import (
    NightlyReport,
    orchestrate_night,
    weekly_timeline,
)
from .prediction_wf import (
    PredictionWorkflowResult,
    run_prediction_workflow,
    what_if_expansion,
)
from .report import WeeklyReport, generate_weekly_report
from .review import (
    ReviewFinding,
    ReviewOutcome,
    calibrate_predict_review_loop,
    review_prediction,
)
from .runner import (
    RegionAssets,
    build_interventions,
    confirmed_series,
    execute_spec,
    load_region_assets,
    observed_series,
    run_instance,
)
from .tasks import HOME, REMOTE, DataArtifact, TaskRun, WorkflowTask

__all__ = [
    "WeeklyReport",
    "generate_weekly_report",
    "ReviewFinding",
    "ReviewOutcome",
    "calibrate_predict_review_loop",
    "review_prediction",
    "InstanceOutcome",
    "InstanceSpec",
    "gather_ensemble",
    "run_instances",
    "specs_for_design",
    "run_iterative_calibration",
    "CellConfig",
    "configs_from_design",
    "read_config_bundle",
    "write_config_bundle",
    "NationalRun",
    "run_national",
    "Cell",
    "CalibrationWorkflowResult",
    "DataArtifact",
    "EconomicWorkflowResult",
    "ExperimentDesign",
    "HOME",
    "NightlyReport",
    "PredictionWorkflowResult",
    "REMOTE",
    "RegionAssets",
    "ScenarioOutcome",
    "TaskRun",
    "WorkflowAccounting",
    "WorkflowEngine",
    "WorkflowError",
    "WorkflowRun",
    "WorkflowTask",
    "account_workflow",
    "align_onset",
    "build_interventions",
    "calibration_design",
    "case_study_space",
    "confirmed_series",
    "economic_design",
    "execute_spec",
    "factorial_cells",
    "lhs_cells",
    "load_region_assets",
    "observed_series",
    "orchestrate_night",
    "prediction_design",
    "raw_bytes_per_simulation",
    "run_calibration_workflow",
    "run_economic_workflow",
    "run_instance",
    "run_prediction_workflow",
    "summary_bytes_per_simulation",
    "table_i",
    "weekly_timeline",
    "what_if_expansion",
]
