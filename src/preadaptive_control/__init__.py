"""Model-reference adaptive control with a learnable preadaptation mechanism.

The package simulates a plant with matched parametric uncertainty under an
LQR-based MRAC loop, detects disturbance onsets from the output error, and
reinitializes the parameter estimate with a small neural network trained
online through forward-sensitivity gradients.
"""

from .attention import AttentionConfig, AttentionState, detect_events, update_velocity
from .controller import (
    ControllerConfig,
    adaptation_derivative,
    control_input,
    lqr_gain,
    solve_lyapunov,
    solve_lyapunov_rhs,
)
from .dynamics import (
    PlantConfig,
    ReferenceConfig,
    ThetaSchedule,
    plant_derivative,
    reference_derivative,
    rk4_step,
    theta_at,
)
from .errors import ConfigError, DivergenceError, LearnerError, SolverError
from .learner import (
    GradientMode,
    SensitivityState,
    close_phase,
    grad_weights,
    pi_hat,
    pi_matrix,
    sensitivity_derivative,
    update_weights,
)
from .preadapt import PreadaptNet, apply_preadaptation, sigmoid, theta_init
from .simengine import (
    PreadaptSettings,
    RunConfig,
    RunResult,
    build_b747,
    build_controller,
    compare,
    compare_results,
    default_config,
    grad_check,
    phases_by_jump,
    run,
    scenario_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "AttentionState",
    "ConfigError",
    "ControllerConfig",
    "DivergenceError",
    "GradientMode",
    "LearnerError",
    "PlantConfig",
    "PreadaptNet",
    "PreadaptSettings",
    "ReferenceConfig",
    "RunConfig",
    "RunResult",
    "SensitivityState",
    "SolverError",
    "ThetaSchedule",
    "adaptation_derivative",
    "apply_preadaptation",
    "build_b747",
    "build_controller",
    "close_phase",
    "compare",
    "compare_results",
    "control_input",
    "default_config",
    "detect_events",
    "grad_check",
    "grad_weights",
    "lqr_gain",
    "phases_by_jump",
    "pi_hat",
    "pi_matrix",
    "plant_derivative",
    "reference_derivative",
    "rk4_step",
    "run",
    "scenario_schedule",
    "sensitivity_derivative",
    "sigmoid",
    "solve_lyapunov",
    "solve_lyapunov_rhs",
    "theta_at",
    "theta_init",
    "update_velocity",
    "update_weights",
]
