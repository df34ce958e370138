"""The epidemiological workflows (the paper's primary contribution).

Every name below resolves on first access (PEP 562), so importing this
package, or one of its modules, loads only what that module imports.
"""

import importlib

_EXPORTS = {
    "accounting": (
        "WorkflowAccounting", "account_workflow",
        "raw_bytes_per_simulation", "table_i"),
    "calibration_wf": (
        "CalibrationWorkflowResult", "align_onset",
        "run_calibration_workflow", "run_iterative_calibration"),
    "counterfactual_wf": (
        "EconomicWorkflowResult", "ScenarioOutcome", "run_economic_workflow"),
    "cellconfig": (
        "CellConfig", "configs_from_design", "read_config_bundle",
        "write_config_bundle"),
    "designs": (
        "Cell", "ExperimentDesign", "calibration_design", "case_study_space",
        "economic_design", "factorial_cells", "lhs_cells",
        "prediction_design"),
    "engine": ("WorkflowEngine", "WorkflowError", "WorkflowRun"),
    "national": ("NationalRun", "run_national"),
    "parallel": (
        "InstanceOutcome", "InstanceSpec", "gather_ensemble",
        "run_instances"),
    "orchestrator": ("NightlyReport", "orchestrate_night", "weekly_timeline"),
    "prediction_wf": (
        "PredictionWorkflowResult", "run_prediction_workflow",
        "what_if_expansion"),
    "report": ("WeeklyReport", "generate_weekly_report"),
    "review": (
        "ReviewFinding", "ReviewOutcome", "calibrate_predict_review_loop",
        "review_prediction"),
    "runner": (
        "RegionAssets", "build_interventions", "confirmed_series",
        "execute_spec", "load_region_assets", "observed_series",
        "run_instance"),
    "tasks": ("HOME", "REMOTE", "DataArtifact", "TaskRun", "WorkflowTask"),
}

_SUBMODULE = {name: module for module, names in _EXPORTS.items()
              for name in names}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_SUBMODULE[name]}", __name__),
                    name)
    globals()[name] = value
    return value
