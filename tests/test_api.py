import sparse_moe

# The package's public names, as ``from sparse_moe import *`` binds them.
# Adding or removing one is a deliberate edit of this list.  The submodules
# (data, errors, model, solver, trainer) are not among them.
PUBLIC = [
    "ClusterSpec", "ConfigError", "DataError", "Dataset", "DimensionError", "ExpertParams",
    "ExpertSelector", "FitReport", "GateParams", "Hyperparams", "MixtureModel",
    "Responsibilities", "Scaler", "SolveReport", "SolverError", "SynthSpec", "TraceRecord",
    "TrainingError", "WlsProblem", "analytic_gate_gradient", "analytic_selector_gradient",
    "build_expert_targets", "build_gate_targets", "e_step", "enumerate_subsets",
    "evaluate", "expert_forward", "fit", "fit_scaler", "gate_forward",
    "generate_synthetic", "instance_loss", "load_dataset", "load_model", "m_step_experts",
    "m_step_selector_norm0", "m_step_selector_norm1", "predict_proba",
    "predict_proba_batch", "prepare_inputs", "preset_spec", "project_l1_ball", "save_dataset",
    "save_model", "solve", "to_model_classes", "train_test_split", "unconstrained_wls",
]


def test_public_names():
    assert sorted(sparse_moe.__all__) == sorted(PUBLIC)
    assert len(set(sparse_moe.__all__)) == len(sparse_moe.__all__)


def test_star_import_binds_no_submodule():
    namespace = {}
    exec("from sparse_moe import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(PUBLIC)
