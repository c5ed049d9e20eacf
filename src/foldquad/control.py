"""Recovery-setpoint generation and the cascaded flight controller.

Outer loop: P on position feeding a PID on velocity, interpreted as a
commanded specific force; inner loop: geometric attitude feedback on SO(3).
The attitude loop runs faster than the position loop, whose outputs are held
between its ticks.
"""
from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .dynamics import E3, BodyState, ControlInput, VehicleParams, as_vec3, cross3, vee

_THRUST_DIR_EPS = 1e-6


@dataclass
class ControllerConfig:
    """Gains, recovery tuning parameters and loop rates."""

    k_p: float = 1.0
    k_v: float = 2.2
    k_vi: float = 0.02
    k_vd: float = 0.01
    k_r: float = 1.5
    k_omega: float = 0.25
    gamma1: float = 0.5
    gamma2: float = 0.5
    attitude_rate: float = 150.0
    position_rate: float = 100.0
    max_thrust: float = 35.0
    integral_limit: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) <= 0:
                raise ValueError(f"{f.name} must be positive")
        if self.attitude_rate < self.position_rate:
            raise ValueError("attitude_rate must be >= position_rate")


@dataclass
class Setpoint:
    x_d: np.ndarray
    yaw_d: float = 0.0

    def __post_init__(self):
        self.x_d = as_vec3(self.x_d, "x_d")
        self.yaw_d = float(self.yaw_d)


@dataclass
class AttitudeSetpoint:
    R_d: np.ndarray


@dataclass
class ControllerState:
    """Loop memory owned by a single simulation loop."""

    integral: np.ndarray = field(default_factory=lambda: np.zeros(3))
    prev_e_v: np.ndarray | None = None
    held_f: float = 0.0
    held_att: AttitudeSetpoint | None = None
    prev_R_d: np.ndarray | None = None
    next_pos_t: float | None = None


def recovery_setpoint(x_tc, v_c_xy, cfg: ControllerConfig, yaw_d=0.0) -> Setpoint:
    """One-shot post-collision position target.

    Displaces the horizontal target opposite the approach direction by
    gamma_i * |v_ci| per axis; the altitude target is the altitude at the
    collision instant, copied bit-exactly.
    """
    x_tc = as_vec3(x_tc, "x_tc")
    v1, v2 = float(v_c_xy[0]), float(v_c_xy[1])
    x_d = np.array([
        x_tc[0] - cfg.gamma1 * v1,
        x_tc[1] - cfg.gamma2 * v2,
        x_tc[2],
    ])
    return Setpoint(x_d=x_d, yaw_d=yaw_d)


def rotation_from_thrust_dir(b3, yaw):
    """Assemble R_d with third body axis b3 and decoupled heading yaw."""
    b3 = b3 / np.linalg.norm(b3)
    b1c = np.array([np.cos(yaw), np.sin(yaw), 0.0])
    b2 = np.array(cross3(b3, b1c))
    n2 = np.linalg.norm(b2)
    if n2 < 1e-8:  # thrust direction parallel to heading; use the other axis
        b1c = np.array([-np.sin(yaw), np.cos(yaw), 0.0])
        b2 = np.array(cross3(b3, b1c))
        n2 = np.linalg.norm(b2)
    b2 = b2 / n2
    b1 = cross3(b2, b3)
    return np.column_stack([b1, b2, b3])


def position_loop(s: BodyState, sp: Setpoint, cs: ControllerState,
                  cfg: ControllerConfig, p: VehicleParams, dt: float):
    """One position-loop tick: thrust magnitude plus attitude setpoint.

    v_d = k_p e_x; the velocity PID output is a commanded acceleration whose
    matching specific-force vector fixes the desired body-z axis; thrust is
    that vector projected on the current body-z, clamped to [0, max_thrust].
    """
    e_x = sp.x_d - s.x
    v_d = cfg.k_p * e_x
    e_v = v_d - s.v
    integral = np.clip(cs.integral + e_v * dt,
                       -cfg.integral_limit, cfg.integral_limit)
    d_e_v = np.zeros(3) if cs.prev_e_v is None else (e_v - cs.prev_e_v) / dt
    a_cmd = cfg.k_v * e_v + cfg.k_vi * integral + cfg.k_vd * d_e_v

    f_vec = p.g * E3 - a_cmd  # desired specific force along body-z
    norm = float(np.linalg.norm(f_vec))
    if norm < _THRUST_DIR_EPS:
        R_d = np.eye(3) if cs.prev_R_d is None else cs.prev_R_d
    else:
        R_d = rotation_from_thrust_dir(f_vec / norm, sp.yaw_d)
    f = p.m * float(f_vec @ (s.R @ E3))
    f = float(np.clip(f, 0.0, cfg.max_thrust))

    att = AttitudeSetpoint(R_d=R_d)
    cs2 = replace(cs, integral=integral, prev_e_v=e_v.copy(),
                  held_f=f, held_att=att, prev_R_d=R_d)
    return f, att, cs2


def attitude_errors(R, omega, asp: AttitudeSetpoint):
    """Rotation error e_R = 0.5 vee(R_d^T R - R^T R_d) and rate error
    e_Omega = Omega (the setpoint has no angular-rate feedforward)."""
    R_d = asp.R_d
    e_R = 0.5 * vee(R_d.T @ R - R.T @ R_d, tol=np.inf)
    return e_R, omega


def attitude_moment(e_R, e_omega, omega, p: VehicleParams, cfg: ControllerConfig):
    """Body moment tau = -k_R e_R - k_Omega e_Omega + Omega x J Omega."""
    return -cfg.k_r * e_R - cfg.k_omega * e_omega + cross3(omega, p.J @ omega)


def step_controller(s: BodyState, sp: Setpoint, cs: ControllerState,
                    cfg: ControllerConfig, p: VehicleParams, t: float):
    """One attitude-rate controller tick at time t.

    Re-evaluates the position loop only when its scheduled tick is due,
    otherwise reuses the held thrust and attitude setpoint.
    """
    pos_dt = 1.0 / cfg.position_rate
    if cs.next_pos_t is None or t >= cs.next_pos_t - 1e-12:
        _, _, cs = position_loop(s, sp, cs, cfg, p, pos_dt)
        next_t = t + pos_dt if cs.next_pos_t is None else cs.next_pos_t + pos_dt
        cs = replace(cs, next_pos_t=next_t)
    e_R, e_omega = attitude_errors(s.R, s.omega, cs.held_att)
    tau = attitude_moment(e_R, e_omega, s.omega, p, cfg)
    return ControlInput(f=cs.held_f, tau=tau), cs
