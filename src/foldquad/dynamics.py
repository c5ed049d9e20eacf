"""Rigid-body quadrotor model with a unit-quaternion attitude and a fixed-step RK4 integrator.

Frame convention: the inertial third axis points DOWN, so altitude is a
negative third coordinate and gravity acts along +e3. Positive thrust f
accelerates the vehicle along -R @ e3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

MAX_DT = 0.01  # s: the longest physics step, and so the longest arm step
MIN_DT = 2.2250738585072014e-308  # s: the least normal float; below it, dt/6 underflows
MAX_STEPS = 10_000_000  # the most physics or arm steps one run or contact may take
_ROT_ORTHO_TOL = 1e-6  # loose bound on max|R^T R - I| of a given R, and on ||q| - 1| after RK4


class StateBlowUpError(RuntimeError):
    """Raised when a step yields a non-finite state, or an attitude quaternion whose
    norm is off 1 by more than _ROT_ORTHO_TOL: a body rate that turns the vehicle
    too far in one step (about 0.46 rad, or 460 rad/s at dt = 1 ms)."""


def as_vec3(v, name="vector"):
    """Coerce to a 3-tuple of finite floats."""
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components: {a}")
    return tuple(a.tolist())


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


@dataclass(frozen=True)
class VehicleParams:
    """Mass, inertia and geometry of the vehicle. The body axes are principal axes, so the
    inertia J is its three positive moments, as floats; J_inv holds their reciprocals."""

    m: float = 1.112
    J: tuple = (0.0034, 0.0034, 0.0053)
    g: float = 9.81
    r_contact: float = 0.145  # contact envelope radius (m)

    def __post_init__(self):
        J = np.asarray(self.J, dtype=float)
        if not 0.0 < self.m < math.inf:
            raise ValueError("mass must be positive and finite")
        if J.shape != (3,) or not all(0.0 < j < math.inf for j in J.tolist()):
            raise ValueError(f"inertia must be three positive principal moments, each finite, "
                             f"not {J.tolist()}")
        if not math.isfinite(self.g):
            raise ValueError("gravity must be finite")
        if not 0.0 < self.r_contact < math.inf:
            raise ValueError("contact radius must be positive and finite")
        object.__setattr__(self, "J", tuple(J.tolist()))  # not vars(self).update: it slows reads
        object.__setattr__(self, "J_inv", tuple(1.0 / j for j in self.J))


def body_state(x, v, R, omega):
    """The body state as its 13 floats (x, v, q, omega): position, inertial velocity, the
    unit attitude quaternion q = (w, x, y, z), w >= 0, of the body->inertial rotation R,
    and body rate. x, v and omega must be finite, and R within _ROT_ORTHO_TOL of
    orthonormal with det(R) > 0; R is converted to q once."""
    x, v, omega = as_vec3(x, "x"), as_vec3(v, "v"), as_vec3(omega, "omega")
    R = np.asarray(R, dtype=float).reshape(3, 3)
    if not np.all(np.isfinite(R)):
        raise ValueError("R has non-finite entries")
    if np.max(np.abs(R.T @ R - np.eye(3))) > _ROT_ORTHO_TOL or np.linalg.det(R) < 0.0:
        raise ValueError("R is not a rotation (orthonormal with det +1)")
    return (*x, *v, *rotation_to_quaternion(R.ravel().tolist()), *omega)


def hover(x, yaw=0.0, v=(0.0, 0.0, 0.0)):
    """The level state at position x, heading yaw and velocity v, with no body rate."""
    c, s = np.cos(yaw), np.sin(yaw)
    return body_state(x, v, [[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], (0.0, 0.0, 0.0))


def control_input(f=0.0, tau=(0.0, 0.0, 0.0)):
    """The control input as its 4 floats (f, tau0, tau1, tau2): total thrust (N, along -R e3),
    finite and non-negative, and the body moment (N m), finite."""
    f, tau = float(f), as_vec3(tau, "tau")
    if not 0.0 <= f < math.inf:
        raise ValueError(f"thrust must be finite and non-negative, not {f}")
    return (f, *tau)


def integrate_step(s: tuple, u: tuple, p: VehicleParams, dt: float) -> tuple:
    """One classical RK4 step of the 13-float state s under the 4-float input u = (f, tau) on
    named scalars, then the quaternion rescaled to unit norm; the result is a new tuple.
    Stages a, b, c, d hold (vdot, qdot, omegadot) at attitude q and body rate omega, in the
    principal axes: vdot = g e3 - (f/m) R(q) e3, qdot = q (x) (0, omega) / 2 and Euler's
    equations in coefficient form, omegadot_k = tau_k/J_k + g_k omega_{k+1} omega_{k+2},
    g_k = (J_{k+1} - J_{k+2})/J_k. tau/J, the g_k, -2f/m and the step sizes h/2, dt/2 (= h)
    and k/2, which carry qdot's 1/2 and its w entry's minus, are computed once per step.
    xdot is v, so x takes RK4's closed form x + (dt v + (dt^2/6)(a + b + c)); the rest are
    weighted (a + d) + 2(b + c). A stage off the unit sphere is fine. Identical inputs give
    bit-identical outputs: finite, unit q, w >= 0, or StateBlowUpError."""
    if not (MIN_DT <= dt <= MAX_DT):
        raise ValueError(f"dt must be in [{MIN_DT:g}, {MAX_DT:g}] s")
    x0, x1, x2, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2 = s
    (j0, j1, j2), (i0, i1, i2), (f, t0, t1, t2) = p.J, p.J_inv, u
    acc, g, h, k = f / p.m, p.g, 0.5 * dt, dt / 6.0
    a2, hh, kh, kk = -2.0 * acc, 0.5 * h, 0.5 * k, dt * k
    e0, e1, e2 = t0 * i0, t1 * i1, t2 * i2  # tau/J, and Euler's coefficients g_k
    g0, g1, g2 = (j1 - j2) * i0, (j2 - j0) * i1, (j0 - j1) * i2
    av0, av1 = a2 * (qx * qz + qw * qy), a2 * (qy * qz - qw * qx)
    av2 = g - acc * ((qw * qw + qz * qz) - (qx * qx + qy * qy))
    aqw, aqx = qx * w0 + qy * w1 + qz * w2, qw * w0 + qy * w2 - qz * w1  # 2 qdot, w negated
    aqy, aqz = qw * w1 + qz * w0 - qx * w2, qw * w2 + qx * w1 - qy * w0
    aw0, aw1, aw2 = e0 + g0 * (w1 * w2), e1 + g1 * (w2 * w0), e2 + g2 * (w0 * w1)
    pw, px, py, pz = qw - hh * aqw, qx + hh * aqx, qy + hh * aqy, qz + hh * aqz
    r0, r1, r2 = w0 + h * aw0, w1 + h * aw1, w2 + h * aw2
    bv0, bv1 = a2 * (px * pz + pw * py), a2 * (py * pz - pw * px)
    bv2 = g - acc * ((pw * pw + pz * pz) - (px * px + py * py))
    bqw, bqx = px * r0 + py * r1 + pz * r2, pw * r0 + py * r2 - pz * r1
    bqy, bqz = pw * r1 + pz * r0 - px * r2, pw * r2 + px * r1 - py * r0
    bw0, bw1, bw2 = e0 + g0 * (r1 * r2), e1 + g1 * (r2 * r0), e2 + g2 * (r0 * r1)
    pw, px, py, pz = qw - hh * bqw, qx + hh * bqx, qy + hh * bqy, qz + hh * bqz
    r0, r1, r2 = w0 + h * bw0, w1 + h * bw1, w2 + h * bw2
    cv0, cv1 = a2 * (px * pz + pw * py), a2 * (py * pz - pw * px)
    cv2 = g - acc * ((pw * pw + pz * pz) - (px * px + py * py))
    cqw, cqx = px * r0 + py * r1 + pz * r2, pw * r0 + py * r2 - pz * r1
    cqy, cqz = pw * r1 + pz * r0 - px * r2, pw * r2 + px * r1 - py * r0
    cw0, cw1, cw2 = e0 + g0 * (r1 * r2), e1 + g1 * (r2 * r0), e2 + g2 * (r0 * r1)
    pw, px, py, pz = qw - h * cqw, qx + h * cqx, qy + h * cqy, qz + h * cqz
    r0, r1, r2 = w0 + dt * cw0, w1 + dt * cw1, w2 + dt * cw2
    dv0, dv1 = a2 * (px * pz + pw * py), a2 * (py * pz - pw * px)
    dv2 = g - acc * ((pw * pw + pz * pz) - (px * px + py * py))
    dqw, dqx = px * r0 + py * r1 + pz * r2, pw * r0 + py * r2 - pz * r1
    dqy, dqz = pw * r1 + pz * r0 - px * r2, pw * r2 + px * r1 - py * r0
    dw0, dw1, dw2 = e0 + g0 * (r1 * r2), e1 + g1 * (r2 * r0), e2 + g2 * (r0 * r1)
    x0, x1, x2, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2 = (
        x0 + (dt * v0 + kk * ((av0 + bv0) + cv0)), x1 + (dt * v1 + kk * ((av1 + bv1) + cv1)),
        x2 + (dt * v2 + kk * ((av2 + bv2) + cv2)), v0 + k * ((av0 + dv0) + 2.0 * (bv0 + cv0)),
        v1 + k * ((av1 + dv1) + 2.0 * (bv1 + cv1)), v2 + k * ((av2 + dv2) + 2.0 * (bv2 + cv2)),
        qw - kh * ((aqw + dqw) + 2.0 * (bqw + cqw)), qx + kh * ((aqx + dqx) + 2.0 * (bqx + cqx)),
        qy + kh * ((aqy + dqy) + 2.0 * (bqy + cqy)), qz + kh * ((aqz + dqz) + 2.0 * (bqz + cqz)),
        w0 + k * ((aw0 + dw0) + 2.0 * (bw0 + cw0)), w1 + k * ((aw1 + dw1) + 2.0 * (bw1 + cw1)),
        w2 + k * ((aw2 + dw2) + 2.0 * (bw2 + cw2)))
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    # one test unless it fails: a NaN or inf in q fails the norm, one elsewhere the sum
    if not (abs(n - 1.0) <= _ROT_ORTHO_TOL
            and math.isfinite(x0 + x1 + x2 + v0 + v1 + v2 + w0 + w1 + w2)):
        if not all(map(math.isfinite, (x0, x1, x2, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2))):
            raise StateBlowUpError("non-finite state after integration step")
        if not abs(n - 1.0) <= _ROT_ORTHO_TOL:
            raise StateBlowUpError(f"attitude quaternion norm {n!r} after integration step: "
                                   "the body rate turns too far in one step")
    n = math.copysign(n, qw)  # w >= 0; -q is the same rotation, with bit-identical derivatives
    return (x0, x1, x2, v0, v1, v2, qw / n, qx / n, qy / n, qz / n, w0, w1, w2)
