"""Simulator and control library for a collision-resilient foldable quadrotor."""

from .arm import (ContactResult, ContactTimeoutError, DisplacementTrace, FitResult,
                  SpringParams, analytic_response, fit_spring_params, simulate_contact)
from .collision import (CollisionEvent, ContactMode, Foldable, Rigid, Wall,
                        contact_constrained_step, detect_contact,
                        impact_force_estimate, resolve_rigid)
from .control import (ControllerConfig, ControllerState, attitude_moment, position_loop,
                      recovery_setpoint, step_controller)
from .dynamics import (StateBlowUpError, VehicleParams, body_state, control_input, hover,
                       integrate_step)
from .scenario import (ComparisonReport, ScenarioConfig, SweepRow, compare_modes,
                       find_start_gap, run_scenario, sweep_velocities)
from .simlog import COLUMNS, Metrics, SimLog, compute_metrics

__all__ = [
    "COLUMNS", "CollisionEvent",
    "ComparisonReport", "ContactMode", "ContactResult", "ContactTimeoutError",
    "ControllerConfig", "ControllerState", "DisplacementTrace",
    "FitResult", "Foldable", "Metrics", "Rigid", "ScenarioConfig",
    "SimLog", "SpringParams", "StateBlowUpError", "SweepRow", "VehicleParams",
    "Wall", "analytic_response", "attitude_moment", "body_state", "compare_modes",
    "compute_metrics", "contact_constrained_step", "control_input", "detect_contact",
    "find_start_gap", "fit_spring_params", "hover", "impact_force_estimate",
    "integrate_step", "position_loop", "recovery_setpoint", "resolve_rigid",
    "run_scenario", "simulate_contact", "step_controller", "sweep_velocities",
]
