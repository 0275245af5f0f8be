"""Gaussian message-passing detection for large multi-user MIMO.

Iterative detectors (plain and successively relaxed Gaussian message
passing), exact baselines (MMSE, matched filter, inverse filter, block
Gaussian estimation), classical affine iterations (Jacobi, Richardson) on
the MMSE normal equations, closed-form convergence/MSE analysis, and a
seeded Monte-Carlo harness with a CLI.
"""
from .analysis import (
    THRESHOLD_BETA,
    ConvergenceReport,
    RmtMse,
    convergence_check,
    gmpid_mean_convergence_report,
    rmt_mmse_mse,
    sagmpid_convergence_report,
    spectral_radius,
)
from .classic import (
    AffineIteration,
    iterate,
    jacobi_for_mmse,
    richardson_for_mmse,
)
from .gmpid import (
    MessagePassingOutput,
    MessageState,
    VarianceFixedPoint,
    gmpid_detect,
    message_state,
    sum_node_update,
    variable_node_update,
    variance_fixed_point,
    variance_recursion,
)
from .harness import (
    AggregateRecord,
    ComplexityRecord,
    ConfigError,
    ExperimentConfig,
    MsetRow,
    TableRecord,
    TrialRecord,
    aggregate_records,
    emit_csv,
    run_complexity,
    run_convergence_table,
    run_detector,
    run_experiment,
    run_mset_trace,
)
from .model import (
    Realization,
    SourcePrior,
    SystemDims,
    SystemInstance,
    assemble_realization,
    build_instance,
    derive_trial_seeds,
    generate_channel,
    mse,
    realize,
)
from .reference import (
    gmp_block_detect,
    inverse_filter_detect,
    matched_filter_detect,
    mmse_detect,
)
from .results import DetectionResult, IterationTrace, Termination
from .sagmpid import (
    RelaxationChoice,
    auto_relaxation,
    relaxation_iteration_matrix,
    relaxation_system_matrix,
    sagmpid_detect,
)

__version__ = "0.1.0"

__all__ = [
    "THRESHOLD_BETA",
    "AffineIteration",
    "AggregateRecord",
    "ComplexityRecord",
    "ConfigError",
    "ConvergenceReport",
    "DetectionResult",
    "ExperimentConfig",
    "IterationTrace",
    "MessagePassingOutput",
    "MessageState",
    "MsetRow",
    "Realization",
    "RelaxationChoice",
    "RmtMse",
    "SourcePrior",
    "SystemDims",
    "SystemInstance",
    "TableRecord",
    "Termination",
    "TrialRecord",
    "VarianceFixedPoint",
    "aggregate_records",
    "assemble_realization",
    "auto_relaxation",
    "build_instance",
    "convergence_check",
    "derive_trial_seeds",
    "emit_csv",
    "generate_channel",
    "gmp_block_detect",
    "gmpid_detect",
    "gmpid_mean_convergence_report",
    "inverse_filter_detect",
    "iterate",
    "jacobi_for_mmse",
    "matched_filter_detect",
    "message_state",
    "mmse_detect",
    "mse",
    "realize",
    "relaxation_iteration_matrix",
    "relaxation_system_matrix",
    "richardson_for_mmse",
    "rmt_mmse_mse",
    "run_complexity",
    "run_convergence_table",
    "run_detector",
    "run_experiment",
    "run_mset_trace",
    "sagmpid_convergence_report",
    "sagmpid_detect",
    "spectral_radius",
    "sum_node_update",
    "variable_node_update",
    "variance_fixed_point",
    "variance_recursion",
    "__version__",
]
