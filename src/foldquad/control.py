"""Recovery-setpoint generation and the cascaded flight controller.

Outer loop: P on position feeding a PID on velocity, interpreted as a
commanded specific force; inner loop: geometric attitude feedback on SO(3).
The attitude loop runs faster than the position loop, whose outputs are held
between its ticks; `scenario.run_scenario` schedules both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .dynamics import VehicleParams, as_vec3, cross3, quaternion_to_rotation

_THRUST_DIR_EPS = 1e-6


@dataclass(frozen=True)
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
            if not 0.0 < getattr(self, f.name) < math.inf:  # NaN fails too
                raise ValueError(f"{f.name} must be positive and finite")
        if self.attitude_rate < self.position_rate:
            raise ValueError("attitude_rate must be >= position_rate")


@dataclass
class ControllerState:
    """Loop memory owned by a single simulation loop, in floats; R_d is row-major."""

    integral: tuple = (0.0, 0.0, 0.0)
    prev_e_v: tuple | None = None
    held_f: float = 0.0
    held_R_d: tuple = (1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0)  # identity before a tick


def recovery_setpoint(x_tc, v_c_xy, cfg: ControllerConfig) -> tuple:
    """One-shot post-collision position target x_d, as 3 floats.

    Displaces the horizontal target opposite the approach direction by
    gamma_i * |v_ci| per axis; the altitude target is the altitude at the
    collision instant, copied bit-exactly.
    """
    x0, x1, x2 = as_vec3(x_tc, "x_tc")
    v1, v2 = float(v_c_xy[0]), float(v_c_xy[1])
    return (x0 - cfg.gamma1 * v1, x1 - cfg.gamma2 * v2, x2)


def _clamp(x, lo, hi):
    """min(max(x, lo), hi) for lo <= hi, bit for bit (NaN and -0.0 too), but cheaper."""
    return lo if lo > x else (hi if hi < x else x)


def rotation_from_thrust_dir(b3, yaw):
    """R_d, as a row-major 9-tuple, with unit third body axis b3 and decoupled heading yaw."""
    b2 = cross3(b3, (math.cos(yaw), math.sin(yaw), 0.0))
    n2 = math.hypot(*b2)
    if n2 < 1e-8:  # thrust direction parallel to heading; use the other axis
        b2 = cross3(b3, (-math.sin(yaw), math.cos(yaw), 0.0))
        n2 = math.hypot(*b2)
    y0, y1, y2 = b2[0] / n2, b2[1] / n2, b2[2] / n2
    (x0, x1, x2), (z0, z1, z2) = cross3((y0, y1, y2), b3), b3
    return (x0, y0, z0, x1, y1, z1, x2, y2, z2)


def position_loop(s: tuple, x_d: tuple, yaw_d: float, cs: ControllerState,
                  cfg: ControllerConfig, p: VehicleParams, dt: float) -> ControllerState:
    """One position-loop tick toward x_d at heading yaw_d: the new state, with thrust held_f
    and attitude setpoint held_R_d.

    v_d = k_p e_x; the velocity PID output is a commanded acceleration whose
    matching specific-force vector fixes the desired body-z axis; thrust is
    that vector projected on the current body-z, clamped to [0, max_thrust].
    A vanishing specific force keeps the held R_d.
    """
    lim, k_p, k_v, k_vi, k_vd = cfg.integral_limit, cfg.k_p, cfg.k_v, cfg.k_vi, cfg.k_vd
    (x0, x1, x2, v0, v1, v2), (xd0, xd1, xd2), (i0, i1, i2) = s[:6], x_d, cs.integral
    e0, e1, e2 = k_p * (xd0 - x0) - v0, k_p * (xd1 - x1) - v1, k_p * (xd2 - x2) - v2
    i0, i1, i2 = (_clamp(i0 + e0 * dt, -lim, lim), _clamp(i1 + e1 * dt, -lim, lim),
                  _clamp(i2 + e2 * dt, -lim, lim))
    prev = cs.prev_e_v  # None before the first tick: no derivative term
    d0, d1, d2 = (0.0, 0.0, 0.0) if prev is None else (
        (e0 - prev[0]) / dt, (e1 - prev[1]) / dt, (e2 - prev[2]) / dt)
    f0 = -(k_v * e0 + k_vi * i0 + k_vd * d0)  # desired specific force g e3 - a_cmd along body-z
    f1 = -(k_v * e1 + k_vi * i1 + k_vd * d1)
    f2 = p.g - (k_v * e2 + k_vi * i2 + k_vd * d2)
    norm = math.hypot(f0, f1, f2)
    R_d = cs.held_R_d if norm < _THRUST_DIR_EPS else rotation_from_thrust_dir(
        (f0 / norm, f1 / norm, f2 / norm), yaw_d)
    r02, r12, r22 = quaternion_to_rotation(s[6:10])[2::3]  # body-z is the third column of R
    f = _clamp(p.m * (f0 * r02 + f1 * r12 + f2 * r22), 0.0, cfg.max_thrust)
    return ControllerState(integral=(i0, i1, i2), prev_e_v=(e0, e1, e2), held_f=f, held_R_d=R_d)


def _rotation_error(r, d):
    """e_R = 0.5 vee(A - A^T) with A = R_d^T R, for row-major 9-float R and R_d."""
    r00, r01, r02, r10, r11, r12, r20, r21, r22 = r
    d00, d01, d02, d10, d11, d12, d20, d21, d22 = d
    return (0.5 * ((d02 * r01 + d12 * r11 + d22 * r21) - (d01 * r02 + d11 * r12 + d21 * r22)),
            0.5 * ((d00 * r02 + d10 * r12 + d20 * r22) - (d02 * r00 + d12 * r10 + d22 * r20)),
            0.5 * ((d01 * r00 + d11 * r10 + d21 * r20) - (d00 * r01 + d10 * r11 + d20 * r21)))


def attitude_moment(e_R, omega, p: VehicleParams, cfg: ControllerConfig):
    """Body moment tau = -k_R e_R - k_Omega Omega + Omega x J Omega, as a 3-tuple: no rate
    feedforward, so the rate error is the body rate Omega."""
    (j0, j1, j2), (w0, w1, w2) = p.J, omega
    g0, g1, g2 = cross3(omega, (j0 * w0, j1 * w1, j2 * w2))
    (e0, e1, e2), k_r, k_omega = e_R, cfg.k_r, cfg.k_omega
    return (-k_r * e0 - k_omega * w0 + g0, -k_r * e1 - k_omega * w1 + g1,
            -k_r * e2 - k_omega * w2 + g2)


def step_controller(s: tuple, cs: ControllerState, cfg: ControllerConfig,
                    p: VehicleParams) -> tuple:
    """One attitude tick: the input (f, tau0, tau1, tau2), of the held thrust f and the
    moment tau that tracks the held R_d."""
    omega, R = s[10:], quaternion_to_rotation(s[6:10])
    tau = attitude_moment(_rotation_error(R, cs.held_R_d), omega, p, cfg)
    return (cs.held_f, *tau)
