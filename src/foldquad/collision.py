"""Wall environment, contact detection and contact resolution: while the wall is
touched, the wall-normal translation follows an arm spring, the scenario's in Foldable
mode and in Rigid mode the stiff arm that `resolve_rigid` builds from the restitution."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .arm import SpringParams, advance_arm
from .dynamics import ControlInput, StateBlowUpError, VehicleParams, as_vec3, integrate_step

RIGID_CONTACT_TIME = 10e-3  # s; whole steps at dt 0.25, 0.5, 1, 2, 2.5, 5 ms, 1/600, 1/300 s


@dataclass(frozen=True)
class Wall:
    """Infinite plane; `normal`, a unit float 3-tuple, points away from the wall into free space.

    The plane is {x : normal . x = offset}; signed distance of a point is
    normal . x - offset (positive in free space).
    """

    normal: tuple
    offset: float

    def __post_init__(self):
        n = as_vec3(self.normal, "wall normal")
        big = max(map(abs, n))
        if big == 0:
            raise ValueError("wall normal must be non-zero")
        if not 1e-150 <= big <= 1e150:  # its squares would over- or underflow: scale first
            n = tuple(c / big for c in n)
        nn = float(np.linalg.norm(n))
        if not math.isfinite(self.offset):
            raise ValueError("wall offset must be finite")
        # a normal that is already unit stays as it is, so a reloaded wall is bit-identical
        object.__setattr__(self, "normal", tuple(c / nn for c in n) if abs(nn - 1.0) > 1e-12 else n)
        object.__setattr__(self, "offset", float(self.offset))


@dataclass
class Foldable:
    """Arm-spring contact; the spring is the scenario's `SpringParams`."""


@dataclass
class Rigid:
    """Stiff-arm contact; the spring is `resolve_rigid` of the scenario's `restitution`."""


ContactMode = Foldable | Rigid


@dataclass
class CollisionEvent:
    """First-touch record; `normal` is the into-wall approach direction."""

    t_c: float
    x_c: np.ndarray
    v_c: np.ndarray
    normal: np.ndarray


def detect_contact(s: tuple, w: Wall, p: VehicleParams, t=0.0):
    """Return a CollisionEvent if the contact sphere touches the wall while
    approaching it, else None. Separating or out-of-reach states give None."""
    (n0, n1, n2), (x0, x1, x2, v0, v1, v2), r = w.normal, s[:6], p.r_contact
    if (n0 * x0 + n1 * x1 + n2 * x2) - w.offset <= r and v0 * n0 + v1 * n1 + v2 * n2 < 0.0:
        return CollisionEvent(t_c=float(t), x_c=np.array(s[:3]), v_c=np.array(s[3:6]),
                              normal=-np.array(w.normal))
    return None


def resolve_rigid(e: float, r_contact: float) -> SpringParams:
    """The rigid mode's contact spring for restitution e in (0, 1]: a stiff Kelvin-Voigt
    arm (Hunt & Crossley 1975), b_s = -2 ln(e)/T and k_s = (pi^2 + ln^2 e)/T^2 with
    T = RIGID_CONTACT_TIME. From (0, v) it is back at l = 0 after exactly T, one damped
    half period, with l_dot = -e v (released there by delta_l); its peak, about v T/pi,
    stays below l_max. The arm step is exact and T >= any accepted dt: no RK4 check."""
    T, ln_e = RIGID_CONTACT_TIME, math.log(e)
    return SpringParams(b_s=-2.0 * ln_e / T, k_s=(math.pi ** 2 + ln_e ** 2) / T ** 2,
                        l_max=0.9 * r_contact, delta_l=1e-9)


def contact_constrained_step(s: tuple, l: float, l_dot: float, w: Wall, u: ControlInput,
                             p: VehicleParams, sp: SpringParams, phi, dt: float):
    """One physics step while the arm is pinned against the wall.

    The centroid's wall-normal coordinate is kinematically slaved to the arm's
    inward deflection l (0 at rest, positive compressed; distance to plane =
    r_contact - l); the arm takes one exact step by phi (arm._transition over
    dt) from (l, l_dot); thrust and gravity keep acting on the tangential axes
    and attitude dynamics continue under tau. On release the normal velocity
    equals l_dot, the rebound velocity.

    Returns (state, l, l_dot, exited): a new 13-float state, and the arm as advance_arm
    returns it; raises StateBlowUpError if the state is not finite.
    """
    n0, n1, n2 = w.normal
    l2, ld2, exited = advance_arm(l, l_dot, phi, sp)

    # the one free step gives q, omega and the tangential x and v: attitude does not
    # depend on translation, and the free acceleration depends only on q(t)
    x0, x1, x2, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2 = integrate_step(s, u, p, dt)
    c = (w.offset + (p.r_contact - l2)) - (n0 * x0 + n1 * x1 + n2 * x2)
    vn = (v0 * n0 + v1 * n1 + v2 * n2) + ld2  # keep the tangential v, then l_dot into the wall
    x0, x1, x2 = x0 + c * n0, x1 + c * n1, x2 + c * n2
    v0, v1, v2 = v0 - vn * n0, v1 - vn * n1, v2 - vn * n2
    if not all(map(math.isfinite, (x0, x1, x2, v0, v1, v2))):
        raise StateBlowUpError("non-finite state after contact step")
    return (x0, x1, x2, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2), l2, ld2, exited


def impact_force_estimate(m, dv, dt_c):
    """Mean impact force F = m * dv / dt_c for a velocity change dv over dt_c."""
    if dt_c <= 0:
        raise ValueError("contact duration must be positive")
    return m * dv / dt_c
