"""Rigid-body quadrotor model on SO(3) with a fixed-step RK4 integrator.

Frame convention: the inertial third axis points DOWN, so altitude is a
negative third coordinate and gravity acts along +e3. Positive thrust f
accelerates the vehicle along -R @ e3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

_ROT_ORTHO_TOL = 1e-6  # loose bound on max|R^T R - I| of any stored rotation


class StateBlowUpError(RuntimeError):
    """Raised when a step yields a non-finite state or a rotation it cannot renormalize."""


def as_vec3(v, name="vector"):
    """Coerce to a finite (3,) float array."""
    a = np.asarray(v, dtype=float).reshape(3)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"{name} has non-finite components: {a}")
    return a


def hat(v):
    """Skew-symmetric cross-product matrix: hat(v) @ w == np.cross(v, w)."""
    x, y, z = as_vec3(v)
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def cross3(a, b):
    """a x b of two 3-sequences as a tuple; bit-equal to np.cross, minus its overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def _polar(r):
    """renormalize_rotation on the row-major floats r of rows a, b, c; returns 9 floats."""
    for i in range(21):  # at most 20 Newton steps
        a0, a1, a2, b0, b1, b2, c0, c1, c2 = r
        p0, p1, p2 = b1 * c2 - b2 * c1, b2 * c0 - b0 * c2, b0 * c1 - b1 * c0  # b x c
        det = a0 * p0 + a1 * p1 + a2 * p2
        if not 0.0 < det < math.inf:  # Newton iterates keep the sign of det(R)
            raise ValueError(f"det(R) = {det}: rotation state is corrupted")
        err = max(abs(a0 * a0 + b0 * b0 + c0 * c0 - 1.0), abs(a1 * a1 + b1 * b1 + c1 * c1 - 1.0),
                  abs(a2 * a2 + b2 * b2 + c2 * c2 - 1.0), abs(a0 * a1 + b0 * b1 + c0 * c1),
                  abs(a0 * a2 + b0 * b2 + c0 * c2), abs(a1 * a2 + b1 * b2 + c1 * c2))
        if err < 1e-15 or i == 20 and err <= _ROT_ORTHO_TOL:  # err = max|X^T X - I|
            return r
        cof = (p0, p1, p2, c1 * a2 - c2 * a1, c2 * a0 - c0 * a2, c0 * a1 - c1 * a0,
               a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)  # c x a, a x b
        r = [0.5 * (x + y / det) for x, y in zip(r, cof)]
    raise ValueError("R did not converge to a rotation: input is ill-conditioned")


def renormalize_rotation(R):
    """Project onto the nearest rotation matrix (orthogonal polar factor).

    Uses the Newton iteration X <- (X + X^-T) / 2, which converges
    quadratically to the polar factor and is idempotent on inputs that are
    already orthonormal. For rows a, b, c of X, X^-T is the cofactor matrix
    (rows b x c, c x a, a x b) over det = a . (b x c). Raises ValueError if
    det(R) is not positive and finite (so NaN and inf are rejected), or if 20
    iterations leave max|X^T X - I| above _ROT_ORTHO_TOL (an ill-conditioned R).
    """
    return np.array(_polar(np.asarray(R, dtype=float).reshape(9).tolist())).reshape(3, 3)


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
    """Position, inertial velocity, body->inertial rotation, body rate.

    The one home of the state is `y`, a tuple of 18 Python floats
    (x, v, R row-major, omega), which every layer of the simulation loop reads.
    `x`, `v`, `R` and `omega` are read-only and build a fresh array on each
    access, so writing into one does not change the state. The constructor
    and `hover` validate: finite vectors and an R within _ROT_ORTHO_TOL of
    orthonormal. The integrators (`integrate_step`, `contact_constrained_step`)
    build their results with `_trusted(y)`, unvalidated, after checking in the
    step that the state is finite and R renormalized, or raising StateBlowUpError.
    """

    __slots__ = ("y",)

    def __init__(self, x, v, R, omega):
        x, v, omega = as_vec3(x, "x"), as_vec3(v, "v"), as_vec3(omega, "omega")
        R = np.asarray(R, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(R)):
            raise ValueError("R has non-finite entries")
        if np.max(np.abs(R.T @ R - np.eye(3))) > _ROT_ORTHO_TOL:
            raise ValueError("R is not orthonormal")
        self.y = (*x.tolist(), *v.tolist(), *R.ravel().tolist(), *omega.tolist())

    x = property(lambda s: np.array(s.y[:3]))
    v = property(lambda s: np.array(s.y[3:6]))
    R = property(lambda s: np.array(s.y[6:15]).reshape(3, 3))
    omega = property(lambda s: np.array(s.y[15:]))

    @classmethod
    def hover(cls, x, yaw=0.0):
        c, s, zero = np.cos(yaw), np.sin(yaw), (0.0, 0.0, 0.0)
        return cls(x=x, v=zero, R=[[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]], omega=zero)

    @classmethod
    def _trusted(cls, y):
        """Build from an 18-tuple of floats, unvalidated; the caller checked it."""
        s = object.__new__(cls)
        s.y = y
        return s


def _deriv(y, a, tau, p):
    """Equations of motion on the flat state y = (x, v, R row-major, omega) as
    floats, for thrust acceleration a = f/m and moment tau: vdot uses
    R @ e3 = R[:, 2], and row i of Rdot = R hat(omega) is R[i] x omega.
    RK stages may be non-orthonormal or non-finite; the step checks its result."""
    _, _, _, v0, v1, v2, r00, r01, r02, r10, r11, r12, r20, r21, r22, w0, w1, w2 = y
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = p.J_flat
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = p.J_inv_flat
    h0 = j00 * w0 + j01 * w1 + j02 * w2  # J omega
    h1 = j10 * w0 + j11 * w1 + j12 * w2
    h2 = j20 * w0 + j21 * w1 + j22 * w2
    t0 = tau[0] - (w1 * h2 - w2 * h1)  # tau - omega x J omega
    t1 = tau[1] - (w2 * h0 - w0 * h2)
    t2 = tau[2] - (w0 * h1 - w1 * h0)
    return [v0, v1, v2, -a * r02, -a * r12, p.g - a * r22,
            r01 * w2 - r02 * w1, r02 * w0 - r00 * w2, r00 * w1 - r01 * w0,
            r11 * w2 - r12 * w1, r12 * w0 - r10 * w2, r10 * w1 - r11 * w0,
            r21 * w2 - r22 * w1, r22 * w0 - r20 * w2, r20 * w1 - r21 * w0,
            i00 * t0 + i01 * t1 + i02 * t2, i10 * t0 + i11 * t1 + i12 * t2,
            i20 * t0 + i21 * t1 + i22 * t2]


def dynamics_derivative(s: BodyState, u: ControlInput, p: VehicleParams):
    """Time derivative (xdot, vdot, Rdot, omegadot) of the body state."""
    d = np.array(_deriv(s.y, u.f / p.m, u.tau, p))
    return d[:3], d[3:6], d[6:15].reshape(3, 3), d[15:]


def integrate_step(s: BodyState, u: ControlInput, p: VehicleParams, dt: float) -> BodyState:
    """One classical RK4 step on the flat state, then rotation renormalization.

    Deterministic: identical inputs give bit-identical outputs. The result is
    finite with an orthonormal R; otherwise StateBlowUpError is raised.
    """
    if not (0.0 < dt <= 0.01):
        raise ValueError("dt must be in (0, 0.01] s")
    y0, a, tau, h, c = s.y, u.f / p.m, u.tau, 0.5 * dt, dt / 6.0
    k1 = _deriv(y0, a, tau, p)
    k2 = _deriv([q + h * k for q, k in zip(y0, k1)], a, tau, p)
    k3 = _deriv([q + h * k for q, k in zip(y0, k2)], a, tau, p)
    k4 = _deriv([q + dt * k for q, k in zip(y0, k3)], a, tau, p)
    y = [q + c * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
         for q, d1, d2, d3, d4 in zip(y0, k1, k2, k3, k4)]
    if not all(map(math.isfinite, y)):
        raise StateBlowUpError("non-finite state after integration step")
    try:
        y[6:15] = _polar(y[6:15])
    except ValueError as exc:
        raise StateBlowUpError(f"renormalization after integration step: {exc}") from exc
    return BodyState._trusted(tuple(y))
