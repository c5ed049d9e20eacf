"""Rigid-body quadrotor model on SO(3) with a fixed-step RK4 integrator.

Frame convention: the inertial third axis points DOWN, so altitude is a
negative third coordinate and gravity acts along +e3. Positive thrust f
accelerates the vehicle along -R @ e3.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

E3 = np.array([0.0, 0.0, 1.0])
_EYE3 = np.eye(3)

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


def vee(M, tol=1e-9):
    """Inverse of hat. Rejects matrices that are not skew within tol."""
    M = np.asarray(M, dtype=float).reshape(3, 3)
    if np.max(np.abs(M + M.T)) > tol:
        raise ValueError("matrix is not skew-symmetric within tolerance")
    return np.array([M[2, 1], M[0, 2], M[1, 0]])


def cross3(a, b):
    """a x b of two 3-sequences as a tuple; bit-equal to np.cross, minus its overhead."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return (a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0)


def renormalize_rotation(R):
    """Project onto the nearest rotation matrix (orthogonal polar factor).

    Uses the Newton iteration X <- (X + X^-T) / 2, which converges
    quadratically to the polar factor and is idempotent on inputs that are
    already orthonormal. For rows a, b, c of X, X^-T is the cofactor matrix
    (rows b x c, c x a, a x b) over det = a . (b x c). Raises ValueError if
    det(R) <= 0, or if 20 iterations leave max|X^T X - I| above _ROT_ORTHO_TOL
    (an ill-conditioned R).
    """
    X = np.asarray(R, dtype=float).reshape(3, 3).copy()
    for _ in range(20):
        a, b, c = X.tolist()
        bc = cross3(b, c)
        det = a[0] * bc[0] + a[1] * bc[1] + a[2] * bc[2]
        if det <= 0.0:  # Newton iterates keep the sign of det(R)
            raise ValueError("det(R) <= 0: rotation state is corrupted")
        if np.max(np.abs(X.T @ X - _EYE3)) < 1e-15:
            return X
        X = 0.5 * (X + np.array([bc, cross3(c, a), cross3(a, b)]) / det)
    if not np.max(np.abs(X.T @ X - _EYE3)) <= _ROT_ORTHO_TOL:  # also rejects NaN
        raise ValueError("R did not converge to a rotation: input is ill-conditioned")
    return X


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


@dataclass
class ControlInput:
    """Total thrust (N, along -R e3) and body moment (N m)."""

    f: float = 0.0
    tau: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.f = float(self.f)
        self.tau = as_vec3(self.tau, "tau")
        if self.f < 0:
            raise ValueError("thrust must be non-negative")


@dataclass
class BodyState:
    """Position, inertial velocity, body->inertial rotation, body rate.

    Constructing one validates it: finite (3,) vectors and an R within
    _ROT_ORTHO_TOL of orthonormal. The integrators (`integrate_step`,
    `collision.contact_constrained_step`) build their results with
    `_trusted` instead, after checking the same conditions in the step:
    a finite state and a renormalized R, or StateBlowUpError.
    """

    x: np.ndarray
    v: np.ndarray
    R: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        self.x = as_vec3(self.x, "x")
        self.v = as_vec3(self.v, "v")
        self.omega = as_vec3(self.omega, "omega")
        self.R = np.asarray(self.R, dtype=float).reshape(3, 3)
        if not np.all(np.isfinite(self.R)):
            raise ValueError("R has non-finite entries")
        if np.max(np.abs(self.R.T @ self.R - np.eye(3))) > _ROT_ORTHO_TOL:
            raise ValueError("R is not orthonormal")

    @classmethod
    def hover(cls, x, yaw=0.0):
        c, s = np.cos(yaw), np.sin(yaw)
        R = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
        return cls(x=np.asarray(x, dtype=float), v=np.zeros(3), R=R, omega=np.zeros(3))

    @classmethod
    def _trusted(cls, x, v, R, omega):
        """Build without validation; the caller guarantees what __post_init__ checks."""
        s = object.__new__(cls)
        s.x, s.v, s.R, s.omega = x, v, R, omega
        return s


def _deriv(y, u, p):
    """Equations of motion on the flat state y = (x, v, R row-major, omega):
    vdot uses R @ e3 = R[:, 2], and row i of Rdot = R hat(omega) is R[i] x omega.
    RK stages may be non-orthonormal or non-finite; the step checks its result."""
    q = y.tolist()
    w, a = q[15:], u.f / p.m
    omegadot = p.J_inv @ (u.tau - cross3(w, (p.J @ y[15:]).tolist()))
    return np.array([*q[3:6], -a * q[8], -a * q[11], p.g - a * q[14],
                     *cross3(q[6:9], w), *cross3(q[9:12], w), *cross3(q[12:15], w),
                     *omegadot.tolist()])


def _flat(s: BodyState):
    return np.concatenate((s.x, s.v, s.R.ravel(), s.omega))


def dynamics_derivative(s: BodyState, u: ControlInput, p: VehicleParams):
    """Time derivative (xdot, vdot, Rdot, omegadot) of the body state."""
    d = _deriv(_flat(s), u, p)
    return d[:3], d[3:6], d[6:15].reshape(3, 3), d[15:]


def integrate_step(s: BodyState, u: ControlInput, p: VehicleParams, dt: float) -> BodyState:
    """One classical RK4 step on the flat state, then rotation renormalization.

    Deterministic: identical inputs give bit-identical outputs. The result is
    finite with an orthonormal R; otherwise StateBlowUpError is raised.
    """
    if not (0.0 < dt <= 0.01):
        raise ValueError("dt must be in (0, 0.01] s")
    y0 = _flat(s)
    k1 = _deriv(y0, u, p)
    k2 = _deriv(y0 + 0.5 * dt * k1, u, p)
    k3 = _deriv(y0 + 0.5 * dt * k2, u, p)
    k4 = _deriv(y0 + dt * k3, u, p)
    y = y0 + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    if not np.isfinite(y).all():
        raise StateBlowUpError("non-finite state after integration step")
    try:
        R = renormalize_rotation(y[6:15])
    except ValueError as exc:
        raise StateBlowUpError(f"renormalization after integration step: {exc}") from exc
    return BodyState._trusted(y[:3], y[3:6], R, y[15:])
