"""Rigid-body quadrotor model with a unit-quaternion attitude and a fixed-step RK4 integrator.

Frame convention: the inertial third axis points DOWN, so altitude is a
negative third coordinate and gravity acts along +e3. Positive thrust f
accelerates the vehicle along -R @ e3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_ROT_ORTHO_TOL = 1e-6  # loose bound on max|R^T R - I| of a given R, and on ||q| - 1| after RK4


class StateBlowUpError(RuntimeError):
    """Raised when a step yields a non-finite state, or an attitude quaternion whose
    norm is off 1 by more than _ROT_ORTHO_TOL: a body rate that turns the vehicle
    too far in one step (about 0.46 rad, or 460 rad/s at dt = 1 ms)."""


def as_vec3(v, name="vector"):
    """Coerce to a finite (3,) float array."""
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components: {a}")
    return a


def cross3(a, b):
    """a x b of two 3-sequences as a tuple; bit-equal to np.cross, minus its overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def rotation_to_quaternion(r):
    """Unit quaternion (w, x, y, z), w >= 0, as floats, from a rotation's 9 row-major entries."""
    tr = r[0] + r[4] + r[8]
    if tr > 0:
        s = math.sqrt(tr + 1.0) * 2.0
        q = [0.25 * s, (r[7] - r[5]) / s, (r[2] - r[6]) / s, (r[3] - r[1]) / s]
    else:
        i = max(range(3), key=lambda k: r[4 * k])  # the first largest, as np.argmax
        j, k = (i + 1) % 3, (i + 2) % 3
        s = math.sqrt(1.0 + r[4 * i] - r[4 * j] - r[4 * k]) * 2.0
        q = [(r[3 * k + j] - r[3 * j + k]) / s, 0.0, 0.0, 0.0]
        q[1 + i] = 0.25 * s
        q[1 + j] = (r[3 * j + i] + r[3 * i + j]) / s
        q[1 + k] = (r[3 * k + i] + r[3 * i + k]) / s
    if q[0] < 0:
        q = [-c for c in q]
    n = math.sqrt(q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3])
    return tuple(c / n for c in q)


def quaternion_to_rotation(q):
    """The rotation's 9 row-major entries, as floats, from a unit quaternion (w, x, y, z)."""
    w, x, y, z = q
    ww, xx, yy, zz = w * w, x * x, y * y, z * z  # a homogeneous diagonal: R nearer orthonormal
    return ((ww + xx) - (yy + zz), 2.0 * (x * y - w * z), 2.0 * (x * z + w * y),
            2.0 * (x * y + w * z), (ww + yy) - (xx + zz), 2.0 * (y * z - w * x),
            2.0 * (x * z - w * y), 2.0 * (y * z + w * x), (ww + zz) - (xx + yy))


@dataclass
class VehicleParams:
    """Mass, inertia and geometry of the vehicle."""

    m: float = 1.112
    J: np.ndarray = field(default_factory=lambda: np.diag([0.0034, 0.0034, 0.0053]))
    g: float = 9.81
    l_arm: float = 0.11      # nominal arm length (m); its travel limit is SpringParams.l_max
    r_contact: float = 0.145  # contact envelope radius (m)

    def __post_init__(self):
        self.J = np.asarray(self.J, dtype=float).reshape(3, 3)
        if self.m <= 0:
            raise ValueError("mass must be positive")
        if np.max(np.abs(self.J - self.J.T)) > 1e-12 or np.any(np.linalg.eigvalsh(self.J) <= 0):
            raise ValueError("inertia must be symmetric positive-definite")
        if not (0.0 < self.l_arm < self.r_contact):
            raise ValueError("geometry must satisfy 0 < l_arm < r_contact")
        self.J_inv = np.linalg.inv(self.J)
        # plain floats for the scalar equations of motion
        self.J_flat, self.J_inv_flat = (tuple(M.ravel().tolist()) for M in (self.J, self.J_inv))


@dataclass
class ControlInput:
    """Total thrust (N, along -R e3) and body moment (N m) as a 3-tuple of floats."""

    f: float = 0.0
    tau: tuple = (0.0, 0.0, 0.0)

    def __post_init__(self):
        self.f = float(self.f)
        self.tau = tuple(as_vec3(self.tau, "tau").tolist())
        if not 0.0 <= self.f < math.inf:
            raise ValueError(f"thrust must be finite and non-negative, not {self.f}")

    @classmethod
    def _trusted(cls, f, tau):
        """Build without validation; `integrate_step` rejects what a non-finite f or tau yields."""
        u = object.__new__(cls)
        u.f, u.tau = f, tau
        return u


class BodyState:
    """Position, inertial velocity, body->inertial attitude, body rate.

    The one home of the state is `y`, a tuple of 13 Python floats
    (x, v, q, omega) with the unit attitude quaternion q = (w, x, y, z),
    w >= 0, which every layer of the simulation loop reads. `x`, `v`, `R`
    (built from q) and `omega` are read-only and build a fresh array on each
    access, so writing into one does not change the state. The constructor
    and `hover` validate finite vectors and an R within _ROT_ORTHO_TOL of
    orthonormal with det(R) > 0, and convert R to q once. The integrators
    (`integrate_step`, `contact_constrained_step`) build their results with
    `_trusted(y)`, unvalidated, after checking in the step that the state is
    finite and q normalized, or raising StateBlowUpError.
    """

    __slots__ = ("y",)

    def __init__(self, x, v, R, omega):
        x, v, omega = as_vec3(x, "x"), as_vec3(v, "v"), as_vec3(omega, "omega")
        R = np.asarray(R, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(R)):
            raise ValueError("R has non-finite entries")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ROT_ORTHO_TOL or np.linalg.det(R) < 0.0:
            raise ValueError("R is not a rotation (orthonormal with det +1)")
        self.y = (*x.tolist(), *v.tolist(), *rotation_to_quaternion(R.ravel().tolist()),
                  *omega.tolist())

    x = property(lambda s: np.array(s.y[:3]))
    v = property(lambda s: np.array(s.y[3:6]))
    R = property(lambda s: np.array(quaternion_to_rotation(s.y[6:10])).reshape(3, 3))
    omega = property(lambda s: np.array(s.y[10:]))

    @classmethod
    def hover(cls, x, yaw=0.0):
        c, s, zero = np.cos(yaw), np.sin(yaw), (0.0, 0.0, 0.0)
        return cls(x=x, v=zero, R=[[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], omega=zero)

    def with_translation(self, x, v):
        """This state moved to position x and velocity v (validated as in the
        constructor); the attitude and body rate are carried bit for bit."""
        return BodyState._trusted((*as_vec3(x, "x").tolist(), *as_vec3(v, "v").tolist(),
                                   *self.y[6:]))

    @classmethod
    def _trusted(cls, y):
        """Build from a 13-tuple of floats, unvalidated; the caller checked it."""
        s = object.__new__(cls)
        s.y = y
        return s


def _deriv(qw, qx, qy, qz, w0, w1, w2, a, g, tau, J, J_inv):
    """The equations of motion on scalars: (vdot, qdot, omegadot) as 10 floats at attitude q,
    rate omega, thrust acceleration a = f/m, gravity g, moment tau, row-major J and J^-1.
    vdot = g e3 - a R(q) e3 and qdot = q (x) (0, omega) / 2; a stage off the sphere is fine."""
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = J
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = J_inv
    h0 = j00 * w0 + j01 * w1 + j02 * w2  # J omega
    h1 = j10 * w0 + j11 * w1 + j12 * w2
    h2 = j20 * w0 + j21 * w1 + j22 * w2
    t0 = tau[0] - (w1 * h2 - w2 * h1)  # tau - omega x J omega
    t1 = tau[1] - (w2 * h0 - w0 * h2)
    t2 = tau[2] - (w0 * h1 - w1 * h0)
    a2 = 2.0 * a
    return (-a2 * (qx * qz + qw * qy), -a2 * (qy * qz - qw * qx),
            g - a * ((qw * qw + qz * qz) - (qx * qx + qy * qy)),
            -0.5 * (qx * w0 + qy * w1 + qz * w2), 0.5 * (qw * w0 + qy * w2 - qz * w1),
            0.5 * (qw * w1 + qz * w0 - qx * w2), 0.5 * (qw * w2 + qx * w1 - qy * w0),
            i00 * t0 + i01 * t1 + i02 * t2, i10 * t0 + i11 * t1 + i12 * t2,
            i20 * t0 + i21 * t1 + i22 * t2)


def integrate_step(s: BodyState, u: ControlInput, p: VehicleParams, dt: float) -> BodyState:
    """One classical RK4 step on named scalars, then the quaternion rescaled to unit norm.
    Stages a, b, c, d hold (vdot, qdot, omegadot); a stage's xdot is its v. Identical inputs
    give bit-identical outputs: finite, with a unit q, w >= 0, or StateBlowUpError."""
    if not (0.0 < dt <= 0.01):
        raise ValueError("dt must be in (0, 0.01] s")
    x0, x1, x2, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2 = s.y
    acc, g, tau, J, Ji, h, k = u.f / p.m, p.g, u.tau, p.J_flat, p.J_inv_flat, 0.5 * dt, dt / 6.0
    av0, av1, av2, aqw, aqx, aqy, aqz, aw0, aw1, aw2 = _deriv(
        qw, qx, qy, qz, w0, w1, w2, acc, g, tau, J, Ji)
    bv0, bv1, bv2, bqw, bqx, bqy, bqz, bw0, bw1, bw2 = _deriv(
        qw + h * aqw, qx + h * aqx, qy + h * aqy, qz + h * aqz,
        w0 + h * aw0, w1 + h * aw1, w2 + h * aw2, acc, g, tau, J, Ji)
    cv0, cv1, cv2, cqw, cqx, cqy, cqz, cw0, cw1, cw2 = _deriv(
        qw + h * bqw, qx + h * bqx, qy + h * bqy, qz + h * bqz,
        w0 + h * bw0, w1 + h * bw1, w2 + h * bw2, acc, g, tau, J, Ji)
    dv0, dv1, dv2, dqw, dqx, dqy, dqz, dw0, dw1, dw2 = _deriv(
        qw + dt * cqw, qx + dt * cqx, qy + dt * cqy, qz + dt * cqz,
        w0 + dt * cw0, w1 + dt * cw1, w2 + dt * cw2, acc, g, tau, J, Ji)
    y = (
        x0 + k * (v0 + 2.0 * (v0 + h * av0) + 2.0 * (v0 + h * bv0) + (v0 + dt * cv0)),
        x1 + k * (v1 + 2.0 * (v1 + h * av1) + 2.0 * (v1 + h * bv1) + (v1 + dt * cv1)),
        x2 + k * (v2 + 2.0 * (v2 + h * av2) + 2.0 * (v2 + h * bv2) + (v2 + dt * cv2)),
        v0 + k * (av0 + 2.0 * bv0 + 2.0 * cv0 + dv0), v1 + k * (av1 + 2.0 * bv1 + 2.0 * cv1 + dv1),
        v2 + k * (av2 + 2.0 * bv2 + 2.0 * cv2 + dv2), qw + k * (aqw + 2.0 * bqw + 2.0 * cqw + dqw),
        qx + k * (aqx + 2.0 * bqx + 2.0 * cqx + dqx), qy + k * (aqy + 2.0 * bqy + 2.0 * cqy + dqy),
        qz + k * (aqz + 2.0 * bqz + 2.0 * cqz + dqz), w0 + k * (aw0 + 2.0 * bw0 + 2.0 * cw0 + dw0),
        w1 + k * (aw1 + 2.0 * bw1 + 2.0 * cw1 + dw1), w2 + k * (aw2 + 2.0 * bw2 + 2.0 * cw2 + dw2))
    if not all(map(math.isfinite, y)):
        raise StateBlowUpError("non-finite state after integration step")
    qw, qx, qy, qz = y[6:10]
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if not abs(n - 1.0) <= _ROT_ORTHO_TOL:
        raise StateBlowUpError(f"attitude quaternion norm {n!r} after integration step: "
                               "the body rate turns too far in one step")
    n = math.copysign(n, qw)  # w >= 0; -q is the same rotation, with bit-identical derivatives
    return BodyState._trusted((*y[:6], qw / n, qx / n, qy / n, qz / n, *y[10:]))
