"""Recovery-setpoint generation and the cascaded flight controller.

Outer loop: P on position feeding a PID on velocity, interpreted as a
commanded specific force; inner loop: geometric attitude feedback on SO(3).
The attitude loop runs faster than the position loop, whose outputs are held
between its ticks; `scenario.run_scenario` schedules both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .dynamics import (BodyState, ControlInput, VehicleParams, as_vec3, cross3,
                       quaternion_to_rotation)

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
            if not getattr(self, f.name) > 0:  # NaN fails too
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
class ControllerState:
    """Loop memory owned by a single simulation loop, in floats; R_d is row-major."""

    integral: tuple = (0.0, 0.0, 0.0)
    prev_e_v: tuple | None = None
    held_f: float = 0.0
    held_R_d: tuple = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # identity before a tick


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
    """R_d, as a row-major 9-tuple, with unit third body axis b3 and decoupled heading yaw."""
    b2 = cross3(b3, (math.cos(yaw), math.sin(yaw), 0.0))
    n2 = math.hypot(*b2)
    if n2 < 1e-8:  # thrust direction parallel to heading; use the other axis
        b2 = cross3(b3, (-math.sin(yaw), math.cos(yaw), 0.0))
        n2 = math.hypot(*b2)
    b2 = [c / n2 for c in b2]
    b1 = cross3(b2, b3)
    return (b1[0], b2[0], b3[0], b1[1], b2[1], b3[1], b1[2], b2[2], b3[2])


def position_loop(s: BodyState, sp: Setpoint, cs: ControllerState,
                  cfg: ControllerConfig, p: VehicleParams, dt: float) -> ControllerState:
    """One position-loop tick: the new state, with thrust held_f and attitude setpoint held_R_d.

    v_d = k_p e_x; the velocity PID output is a commanded acceleration whose
    matching specific-force vector fixes the desired body-z axis; thrust is
    that vector projected on the current body-z, clamped to [0, max_thrust].
    A vanishing specific force keeps the held R_d.
    """
    lim = cfg.integral_limit
    e_v = [cfg.k_p * (xd - x) - v for xd, x, v in zip(sp.x_d.tolist(), s.y[:3], s.y[3:6])]
    integral = tuple(min(max(i + e * dt, -lim), lim) for i, e in zip(cs.integral, e_v))
    d_e_v = (0.0, 0.0, 0.0) if cs.prev_e_v is None else [
        (e - q) / dt for e, q in zip(e_v, cs.prev_e_v)]
    a0, a1, a2 = (cfg.k_v * e + cfg.k_vi * i + cfg.k_vd * d
                  for e, i, d in zip(e_v, integral, d_e_v))
    f_vec = (-a0, -a1, p.g - a2)  # desired specific force g e3 - a_cmd along body-z
    norm = math.hypot(*f_vec)
    R_d = cs.held_R_d if norm < _THRUST_DIR_EPS else rotation_from_thrust_dir(
        [c / norm for c in f_vec], sp.yaw_d)
    r02, r12, r22 = quaternion_to_rotation(s.y[6:10])[2::3]  # body-z is the third column of R
    f = min(max(p.m * (f_vec[0] * r02 + f_vec[1] * r12 + f_vec[2] * r22), 0.0), cfg.max_thrust)
    return ControllerState(integral=integral, prev_e_v=tuple(e_v), held_f=f, held_R_d=R_d)


def _rotation_error(r, d):
    """e_R = 0.5 vee(A - A^T) with A = R_d^T R, for row-major 9-float R and R_d."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = d
    return (0.5 * ((d02 * r01 + d12 * r11 + d22 * r21) - (d01 * r02 + d11 * r12 + d21 * r22)),
            0.5 * ((d00 * r02 + d10 * r12 + d20 * r22) - (d02 * r00 + d12 * r10 + d22 * r20)),
            0.5 * ((d01 * r00 + d11 * r10 + d21 * r20) - (d00 * r01 + d10 * r11 + d20 * r21)))


def attitude_moment(e_R, e_omega, omega, p: VehicleParams, cfg: ControllerConfig):
    """Body moment tau = -k_R e_R - k_Omega e_Omega + Omega x J Omega, as a 3-tuple."""
    J, (w0, w1, w2) = p.J_flat, omega
    gyro = cross3(omega, [J[i] * w0 + J[i + 1] * w1 + J[i + 2] * w2 for i in (0, 3, 6)])
    return tuple(-cfg.k_r * e - cfg.k_omega * eo + g for e, eo, g in zip(e_R, e_omega, gyro))


def step_controller(s: BodyState, cs: ControllerState, cfg: ControllerConfig,
                    p: VehicleParams) -> ControlInput:
    """One attitude tick: the held thrust, and the moment that tracks the held R_d."""
    omega = s.y[10:]
    R = quaternion_to_rotation(s.y[6:10])
    tau = attitude_moment(_rotation_error(R, cs.held_R_d), omega, omega, p, cfg)
    return ControlInput._trusted(cs.held_f, tau)
