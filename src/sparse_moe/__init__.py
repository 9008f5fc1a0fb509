"""Regularized mixture-of-experts classifier with embedded feature and
expert selection, trained by EM over L1-constrained least-squares steps."""

from .data import (
    ClusterSpec,
    Dataset,
    Scaler,
    SynthSpec,
    fit_scaler,
    generate_synthetic,
    load_dataset,
    preset_spec,
    save_dataset,
    train_test_split,
)
from .errors import (
    ConfigError,
    DataError,
    DimensionError,
    SolverError,
    TrainingError,
)
from .model import (
    ExpertParams,
    ExpertSelector,
    GateParams,
    Hyperparams,
    MixtureModel,
    enumerate_subsets,
    expert_forward,
    gate_forward,
    load_model,
    predict_proba,
    prepare_inputs,
    save_model,
)
from .solver import (
    SolveReport,
    WlsProblem,
    project_l1_ball,
    solve,
    unconstrained_wls,
)
from .trainer import (
    FitReport,
    Responsibilities,
    TraceRecord,
    analytic_gate_gradient,
    analytic_selector_gradient,
    build_expert_targets,
    build_gate_targets,
    e_step,
    evaluate,
    fit,
    instance_loss,
    m_step_experts,
    m_step_selector_norm0,
    m_step_selector_norm1,
    predict_proba_batch,
    to_model_classes,
)

# The names imported above, without the submodules that importing them binds.
__all__ = [
    # data
    "ClusterSpec", "Dataset", "Scaler", "SynthSpec", "fit_scaler", "generate_synthetic",
    "load_dataset", "preset_spec", "save_dataset", "train_test_split",
    # errors
    "ConfigError", "DataError", "DimensionError", "SolverError", "TrainingError",
    # model
    "ExpertParams", "ExpertSelector", "GateParams", "Hyperparams", "MixtureModel",
    "enumerate_subsets", "expert_forward", "gate_forward", "load_model", "predict_proba",
    "prepare_inputs", "save_model",
    # solver
    "SolveReport", "WlsProblem", "project_l1_ball", "solve", "unconstrained_wls",
    # trainer
    "FitReport", "Responsibilities", "TraceRecord", "analytic_gate_gradient",
    "analytic_selector_gradient", "build_expert_targets", "build_gate_targets", "e_step",
    "evaluate", "fit", "instance_loss", "m_step_experts", "m_step_selector_norm0",
    "m_step_selector_norm1", "predict_proba_batch", "to_model_classes",
]
__version__ = "0.1.0"
