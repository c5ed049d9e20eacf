"""Rigid-body model: quaternion conversions, the float-tuple state, equations of motion, RK4."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad.arm import SpringParams, _transition
from foldquad.collision import Wall, contact_constrained_step
from foldquad.dynamics import (_ROT_ORTHO_TOL, MIN_DT, StateBlowUpError, VehicleParams,
                               body_state, control_input, hover, integrate_step,
                               quaternion_to_rotation, rotation_to_quaternion)

E3 = np.array([0.0, 0.0, 1.0])
EPS = np.finfo(float).eps


def x_of(s):
    return np.array(s[:3])


def v_of(s):
    return np.array(s[3:6])


def R_of(s):
    return np.array(quaternion_to_rotation(s[6:10])).reshape(3, 3)


def omega_of(s):
    return np.array(s[10:])


def hat(v):
    """Skew-symmetric cross-product matrix: hat(v) @ w == np.cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def reference_deriv(y, a, tau, p):
    """Equations of motion on the flat state y = (x, v, q, omega) as a list of 13 floats
    (xdot = v, vdot, Q, omegadot), for thrust acceleration a = f/m, moment tau and the
    principal moments of J: vdot uses R(q) @ e3, the third column of R; Q is
    q (x) (0, omega) = 2 qdot with its w entry negated, the 1/2 and that sign left to the
    step's coefficients; omegadot is Euler's equations in coefficient form,
    tau_k/J_k + g_k omega_{k+1} omega_{k+2} with g_k = (J_{k+1} - J_{k+2})/J_k.
    RK stages may leave the unit sphere or be non-finite; the step checks and normalizes
    its result."""
    _, _, _, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2 = y
    (j0, j1, j2), (i0, i1, i2) = p.J, p.J_inv
    a2 = -2.0 * a
    return [v0, v1, v2, a2 * (qx * qz + qw * qy), a2 * (qy * qz - qw * qx),
            p.g - a * ((qw * qw + qz * qz) - (qx * qx + qy * qy)),
            qx * w0 + qy * w1 + qz * w2, qw * w0 + qy * w2 - qz * w1,
            qw * w1 + qz * w0 - qx * w2, qw * w2 + qx * w1 - qy * w0,
            tau[0] * i0 + (j1 - j2) * i0 * (w1 * w2), tau[1] * i1 + (j2 - j0) * i1 * (w2 * w0),
            tau[2] * i2 + (j0 - j1) * i2 * (w0 * w1)]


def random_rotation(rng):
    """Uniform-ish random rotation via QR with positive determinant."""
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


# -- hat ---------------------------------------------------------------------

def test_hat_matches_cross_product():
    rng = np.random.default_rng(1)
    for _ in range(20):
        v, w = rng.normal(size=3), rng.normal(size=3)
        assert np.allclose(hat(v) @ w, np.cross(v, w), atol=1e-14)


# -- quaternion conversions ------------------------------------------------------

def test_quaternion_conversions_match_scipy():
    """Both conversions agree with scipy's Rotation (scalar-last, sign-free) to 4 eps,
    on both branches of rotation_to_quaternion: trace > 0, and half-turns about
    each axis with a trace of -1."""
    rng = np.random.default_rng(3)
    rots = [Rotation.random(random_state=rng.integers(2**31)) for _ in range(200)]
    rots += [Rotation.from_rotvec(np.pi * axis) for axis in np.eye(3)]
    for rot in rots:
        x, y, z, w = rot.as_quat()
        want = np.array([w, x, y, z]) * (1.0 if w >= 0 else -1.0)
        q = rotation_to_quaternion(rot.as_matrix().ravel().tolist())
        assert q[0] >= 0.0
        assert np.max(np.abs(np.array(q) - want)) <= 4 * EPS or (
            want[0] == 0.0 and np.max(np.abs(np.array(q) + want)) <= 4 * EPS)
        assert np.max(np.abs(np.reshape(quaternion_to_rotation(q), (3, 3))
                             - rot.as_matrix())) <= 4 * EPS


# -- renormalization: the constructor's projection and the step's rescale ----------

def test_renormalize_identity():
    """The identity maps to (1, 0, 0, 0) and back exactly, and a zero-rate step
    from it rescales q by exactly 1."""
    assert rotation_to_quaternion(np.eye(3).ravel().tolist()) == (1.0, 0.0, 0.0, 0.0)
    assert quaternion_to_rotation((1.0, 0.0, 0.0, 0.0)) == tuple(np.eye(3).ravel().tolist())
    out = integrate_step(hover(np.zeros(3)), control_input(f=12.0), VehicleParams(),
                         1e-3)
    assert out[6:10] == (1.0, 0.0, 0.0, 0.0)
    assert np.array_equal(R_of(out), np.eye(3))


def test_renormalize_small_skew_perturbation_vs_svd_oracle():
    """A rotation drifted along the tangent space, R (I + hat(n)), is projected by
    the constructor onto the rotation group: the error against the polar factor
    is second order in the drift (measured 6.4e-14 at 1e-7, 6.4e-12 at 1e-6)."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        R = random_rotation(rng) @ (np.eye(3) + 1e-7 * hat(rng.normal(size=3)))
        out = R_of(body_state(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3)))
        assert np.max(np.abs(out.T @ out - np.eye(3))) < 1e-12
        # independent oracle: orthogonal polar factor via SVD
        U, _, Vt = np.linalg.svd(R)
        assert np.max(np.abs(out - U @ Vt)) < 1e-12


def test_renormalize_idempotent_on_rotations():
    """A zero-rate step leaves q unchanged up to the rescale of an already unit q."""
    rng = np.random.default_rng(4)
    p = VehicleParams()
    for _ in range(10):
        R = random_rotation(rng)
        s = body_state(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3))
        out = integrate_step(s, control_input(f=0.0), p, 1e-3)
        assert max(abs(a - b) for a, b in zip(out[6:10], s[6:10])) <= 2 * EPS
        assert np.max(np.abs(R_of(out) - R)) < 1e-12


def test_renormalize_rejects_nonpositive_det():
    """A reflection is orthonormal but has no quaternion: the constructor rejects it."""
    with pytest.raises(ValueError, match="not a rotation"):
        body_state(x=np.zeros(3), v=np.zeros(3), R=np.diag([1.0, 1.0, -1.0]), omega=np.zeros(3))


def test_negated_quaternion_gives_bit_identical_step():
    """q and -q are one rotation: the derivatives are equal (qdot negated) bit for
    bit, so the step's w >= 0 sign choice cannot change a trajectory."""
    rng = np.random.default_rng(9)
    p = VehicleParams()
    for _ in range(20):
        s = body_state(x=rng.normal(size=3), v=rng.normal(size=3),
                       R=Rotation.random(random_state=rng.integers(2**31)).as_matrix(),
                       omega=rng.normal(size=3))
        neg = (*s[:6], *(-c for c in s[6:10]), *s[10:])
        u = control_input(f=12.0, tau=rng.normal(scale=0.01, size=3))
        d, d_neg = (reference_deriv(y, u[0] / p.m, u[1:], p) for y in (s, neg))
        assert d_neg[:6] == d[:6] and d_neg[10:] == d[10:]
        assert d_neg[6:10] == [-c for c in d[6:10]]
        assert integrate_step(neg, u, p, 1e-3) == integrate_step(s, u, p, 1e-3)


def test_norm_guard_fires_where_rk4_drift_exceeds_tolerance():
    """At a constant rate |omega| about a principal axis, RK4 scales |q| by
    sqrt(1 - phi^6/72 + phi^8/576), phi = |omega| dt / 2. The step raises once
    that is 1e-6 below 1: a turn of about 0.46 rad in one step."""
    def drift(phi):
        return 1.0 - math.sqrt(1.0 - phi**6 / 72.0 + phi**8 / 576.0)

    lo, hi = 0.0, 1.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if drift(mid) < 1e-6 else (lo, mid)
    turn = 2.0 * lo  # |omega| dt at the threshold
    assert 0.45 < turn < 0.47
    p, dt = VehicleParams(), 1e-3
    for axis in np.eye(3):
        for factor, raises in ((0.98, False), (1.02, True)):
            s = body_state(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                           omega=factor * turn / dt * axis)
            if raises:
                with pytest.raises(StateBlowUpError, match="quaternion norm"):
                    integrate_step(s, control_input(f=0.0), p, dt)
            else:
                out = integrate_step(s, control_input(f=0.0), p, dt)
                assert np.array_equal(omega_of(out), omega_of(s))  # no gyroscopic torque


# -- parameters and state validation -----------------------------------------

def test_vehicle_params_defaults():
    p = VehicleParams()
    assert p.m == 1.112
    assert p.J == (0.0034, 0.0034, 0.0053)
    assert p.r_contact == 0.145


def test_vehicle_params_rejects_bad_inertia():
    """Inertia is three positive finite principal moments: a moment that is not positive
    or not finite, another count, or a 3x3 matrix (even a diagonal one) is refused.
    J is kept as a float tuple, and J_inv holds the reciprocals."""
    for J in ([1.0, -1.0, 1.0], [1.0, np.nan, 1.0], [1.0, np.inf, 1.0], [0.0, 1.0, 1.0],
              [1.0, 1.0], np.diag([0.0034, 0.0034, 0.0053])):
        with pytest.raises(ValueError, match="inertia must be three positive principal moments"):
            VehicleParams(J=J)
    p = VehicleParams(J=np.array([0.0034, 0.0034, 0.0053]))
    assert type(p.J) is tuple and all(type(j) is float for j in p.J)
    assert p.J == (0.0034, 0.0034, 0.0053)
    assert p.J_inv == tuple(1.0 / j for j in p.J)


def test_control_input_rejects_negative_thrust():
    with pytest.raises(ValueError):
        control_input(f=-1.0)


@pytest.mark.parametrize("f", [np.nan, np.inf])
def test_control_input_rejects_non_finite_thrust(f):
    with pytest.raises(ValueError, match="finite"):
        control_input(f=f)


def test_body_state_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        body_state(x=np.zeros(3), v=np.zeros(3), R=2.0 * np.eye(3), omega=np.zeros(3))


def test_body_state_rejects_non_finite():
    with pytest.raises(ValueError):
        body_state(x=[np.nan, 0, 0], v=np.zeros(3), R=np.eye(3), omega=np.zeros(3))


# -- the float-tuple state ---------------------------------------------------

def stepped_states():
    """A free step and a contact step from one random state."""
    rng = np.random.default_rng(8)
    p = VehicleParams()
    s = body_state(x=rng.normal(size=3), v=rng.normal(size=3), R=random_rotation(rng),
                   omega=rng.normal(size=3))
    u = control_input(f=12.0, tau=rng.normal(scale=0.01, size=3))
    wall = Wall(normal=[-0.6, 0.48, 0.64], offset=-0.3)
    sp = SpringParams()
    contact, _, _, _ = contact_constrained_step(s, 0.01, 0.5, wall, u, p,
                                                sp, _transition(sp.b_s, sp.k_s, 1e-3), 1e-3)
    return integrate_step(s, u, p, 1e-3), contact


def test_step_results_hold_13_plain_floats():
    """numpy scalars in the state would slow every later step (and the arm step 2.3x)."""
    for s in stepped_states():
        assert type(s) is tuple and len(s) == 13
        assert all(type(c) is float for c in s)


def test_constructor_round_trip_is_bit_identical():
    """Rebuilding a state with `body_state(x, v, R(q), omega)` keeps x, v and omega
    bit for bit; its attitude goes through R(q) and back, so q and R move by a few eps."""
    for s in stepped_states():
        back = body_state(x=x_of(s), v=v_of(s), R=R_of(s), omega=omega_of(s))
        assert back[:6] == s[:6] and back[10:] == s[10:]
        assert max(abs(a - b) for a, b in zip(back[6:10], s[6:10])) <= 2 * EPS
        assert np.max(np.abs(R_of(back) - R_of(s))) <= 4 * EPS


# -- equations of motion -----------------------------------------------------

def derivative(s, u, p):
    """(xdot, vdot, qdot, omegadot) of the state under reference_deriv, as arrays."""
    d = np.array(reference_deriv(s, u[0] / p.m, u[1:], p))
    return d[:3], d[3:6], np.array([-0.5, 0.5, 0.5, 0.5]) * d[6:10], d[10:]


def step_rate(s, u, p, dt=1e-3):
    """The same four rates as the state's change over one integrate_step, divided by dt."""
    d = (np.array(integrate_step(s, u, p, dt)) - np.array(s)) / dt
    return d[:3], d[3:6], d[6:10], d[10:]


STATEMENTS = (derivative, step_rate)  # the list oracle, and the step's own stages


def test_hover_equilibrium_derivative():
    p = VehicleParams()
    s = hover(np.zeros(3))
    u = control_input(f=p.m * p.g)
    for deriv in STATEMENTS:
        xdot, vdot, qdot, omegadot = deriv(s, u, p)
        assert np.allclose(xdot, 0, atol=1e-15)
        assert np.allclose(vdot, 0, atol=1e-12)
        assert np.allclose(qdot, 0, atol=1e-15)
        assert np.allclose(omegadot, 0, atol=1e-15)


def test_free_fall_derivative():
    p = VehicleParams()
    s = hover(np.zeros(3))
    for deriv in STATEMENTS:
        _, vdot, _, _ = deriv(s, control_input(f=0.0), p)
        assert np.allclose(vdot, [0.0, 0.0, 9.81], atol=1e-12)


def test_pure_yaw_moment_derivative():
    p = VehicleParams()
    s = hover(np.zeros(3))
    u = control_input(f=p.m * p.g, tau=[0.0, 0.0, 0.01])
    for deriv in STATEMENTS:
        _, _, _, omegadot = deriv(s, u, p)
        assert np.allclose(omegadot, [0.0, 0.0, 0.01 / 0.0053], atol=1e-12)


# -- integrate_step ----------------------------------------------------------

def test_hover_held_one_second():
    p = VehicleParams()
    s = hover(np.array([1.0, -2.0, -3.0]))
    u = control_input(f=p.m * p.g)
    x0 = x_of(s)
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
    assert np.linalg.norm(x_of(s) - x0) < 1e-9


def test_free_fall_one_second():
    p = VehicleParams()
    s = hover(np.zeros(3))
    u = control_input(f=0.0)
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
    assert abs(v_of(s)[2] - 9.81) < 1e-6


def test_constant_yaw_rate_full_turn():
    p = VehicleParams()
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                   omega=np.array([0.0, 0.0, 1.0]))
    # torque holding the rate constant: with diagonal J and an axis-aligned
    # rate the gyroscopic term vanishes, so tau = 0 keeps omega fixed
    u = control_input(f=p.m * p.g)
    n = int(round(2.0 * np.pi / 1e-3))
    for _ in range(n):
        s = integrate_step(s, u, p, 1e-3)
    # residual fraction of a step of rotation is allowed
    assert np.max(np.abs(R_of(s) - np.eye(3))) < 1e-3
    assert np.allclose(omega_of(s), [0, 0, 1], atol=1e-9)


def test_integrate_step_rejects_bad_dt():
    """dt must be a normal float up to MAX_DT: at a subnormal dt, dt/6 underflows and the
    velocity would miss its increment (5e-324 s of g is 5e-323 m/s, and dt/6 is 0.0)."""
    p = VehicleParams()
    s = hover(np.zeros(3))
    u = control_input(f=p.m * p.g)
    for dt in (0.0, 5e-324, MIN_DT / 2.0, 0.02):
        with pytest.raises(ValueError, match="dt must be in"):
            integrate_step(s, u, p, dt)
    assert integrate_step(hover(np.zeros(3)), control_input(f=0.0), p, MIN_DT)[5] > 0.0


def test_integrate_step_deterministic():
    p = VehicleParams()
    rng = np.random.default_rng(5)
    s = body_state(x=rng.normal(size=3), v=rng.normal(size=3),
                   R=random_rotation(rng), omega=rng.normal(size=3))
    u = control_input(f=3.0, tau=rng.normal(size=3) * 0.01)
    a = integrate_step(s, u, p, 1e-3)
    b = integrate_step(s, u, p, 1e-3)
    assert np.array_equal(x_of(a), x_of(b)) and np.array_equal(v_of(a), v_of(b))
    assert np.array_equal(R_of(a), R_of(b)) and np.array_equal(omega_of(a), omega_of(b))


def test_rk4_matches_euler_substeps():
    """RK4 at dt agrees with 100 explicit-Euler sub-steps at dt/100."""
    p = VehicleParams()
    rng = np.random.default_rng(6)
    for _ in range(5):
        s = body_state(x=rng.normal(size=3), v=rng.normal(size=3),
                       R=random_rotation(rng), omega=rng.normal(size=3))
        u = control_input(f=abs(rng.normal()) * 10.0, tau=rng.normal(size=3) * 0.01)
        dt = 1e-3
        out = integrate_step(s, u, p, dt)
        x, v, R, om = x_of(s), v_of(s), R_of(s), omega_of(s)
        h = dt / 100
        for _ in range(100):
            acc = p.g * E3 - (u[0] / p.m) * (R @ E3)
            x, v = x + h * v, v + h * acc
            R = R + h * (R @ hat(om))
            J = np.diag(p.J)
            om = om + h * np.linalg.solve(J, u[1:] - np.cross(om, J @ om))
        err = max(np.max(np.abs(x_of(out) - x)), np.max(np.abs(v_of(out) - v)),
                  np.max(np.abs(R_of(out) - R)), np.max(np.abs(omega_of(out) - om)))
        assert err < 1e-6


def test_orthonormality_every_step():
    p = VehicleParams()
    rng = np.random.default_rng(7)
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=random_rotation(rng),
                   omega=rng.normal(size=3))
    u = control_input(f=p.m * p.g, tau=[0.001, -0.002, 0.0005])
    for _ in range(2000):
        s = integrate_step(s, u, p, 1e-3)
        err = np.linalg.norm(R_of(s).T @ R_of(s) - np.eye(3))
        assert err <= 1e-9
        assert abs(np.linalg.det(R_of(s)) - 1.0) <= 1e-9


def test_angular_momentum_conserved_in_free_rotation():
    p = VehicleParams()
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                   omega=np.array([1.0, -2.0, 0.5]))
    u = control_input(f=p.m * p.g)  # zero torque; thrust does not affect rotation
    L0 = R_of(s) @ (np.diag(p.J) @ omega_of(s))
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
    L1 = R_of(s) @ (np.diag(p.J) @ omega_of(s))
    assert np.max(np.abs(L1 - L0)) < 1e-6


def test_blow_up_detected():
    # a finite but absurd body rate overflows the gyroscopic term
    p = VehicleParams()
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                   omega=np.array([1e200, 1e200, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StateBlowUpError):
        integrate_step(s, control_input(f=0.0), p, 1e-3)


def test_guard_passes_a_finite_state_whose_sum_overflows():
    """The guard's fast test sums the 9 translation and rate floats; a sum that
    overflows sends the step to the full checks, which pass a finite state."""
    s = (1.7e308, 1.7e308) + (0.0,) * 5 + (1.0,) + (0.0,) * 5
    out = integrate_step(s, control_input(f=0.0), VehicleParams(), 1e-3)
    assert out[:2] == (1.7e308, 1.7e308) and all(map(math.isfinite, out))


@pytest.mark.parametrize("index", [3, 7])  # v0, then the quaternion's x
def test_guard_names_a_nan_as_non_finite(index):
    """A NaN in the translation, or in q (where the norm is NaN too), is reported as a
    non-finite state, not as a quaternion norm off 1."""
    y = [0.0] * 13
    y[6], y[index] = 1.0, math.nan
    with pytest.raises(StateBlowUpError, match="non-finite state"):
        integrate_step(tuple(y), control_input(f=10.0), VehicleParams(), 1e-3)


@settings(max_examples=100, deadline=None)
@given(st.floats(1e-3, 1e-1), st.floats(0.5, 2.0), st.floats(0.0, 1e3),
       st.floats(1e-4, 0.01), st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
           lambda c: math.fsum(x * x for x in c) > 0.01),
       st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2),
       st.floats(-10.0, 10.0).filter(lambda w: w != 0.0))
def test_symmetric_body_keeps_its_axial_rate_bit_for_bit(j, ratio, f, dt, q, w, w2):
    """A torque-free body with j0 == j1 has omegadot_3 = 0 exactly in Euler's equations:
    its coefficient (j0 - j1)/j2 is 0.0, so each stage adds a zero to a nonzero omega_3,
    which stays the same float for 1,000 steps, whatever the thrust and the other rates."""
    n = math.sqrt(math.fsum(x * x for x in q))
    p = VehicleParams(J=(j, j, ratio * j))
    s = (0.0,) * 6 + tuple(x / n for x in q) + (*w, w2)
    u = control_input(f=f)
    for _ in range(1000):
        s = integrate_step(s, u, p, dt)
        assert s[12] == w2


# -- the scalar stages against the list-based step, bit for bit -----------------------

def reference_step(s, u, p, dt):
    """integrate_step's operations over lists of 13 floats: four stages of reference_deriv,
    x in RK4's closed form x + (dt v + (dt^2/6)(a + b + c)) of the vdot stages, the rest
    weighted (a + d) + 2 (b + c); returns the new state's 13-tuple."""
    if not (MIN_DT <= dt <= 0.01):
        raise ValueError(f"dt must be in [{MIN_DT:g}, 0.01] s")
    y0, a, tau, h, c = s, u[0] / p.m, u[1:], 0.5 * dt, dt / 6.0
    half, full, weight = ((r,) * 6 + (-0.5 * r, 0.5 * r, 0.5 * r, 0.5 * r) + (r,) * 3
                          for r in (h, dt, c))  # Q is 2 qdot with its w entry negated
    k1 = reference_deriv(y0, a, tau, p)
    k2 = reference_deriv([q + r * k for q, r, k in zip(y0, half, k1)], a, tau, p)
    k3 = reference_deriv([q + r * k for q, r, k in zip(y0, half, k2)], a, tau, p)
    k4 = reference_deriv([q + r * k for q, r, k in zip(y0, full, k3)], a, tau, p)
    y = [q + r * ((d1 + d4) + 2.0 * (d2 + d3))
         for q, r, d1, d2, d3, d4 in zip(y0, weight, k1, k2, k3, k4)]
    y[:3] = (y0[i] + (dt * y0[i + 3] + dt * c * ((k1[i + 3] + k2[i + 3]) + k3[i + 3]))
             for i in range(3))
    if not all(map(math.isfinite, y)):
        raise StateBlowUpError("non-finite state after integration step")
    qw, qx, qy, qz = y[6:10]
    n = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    if not abs(n - 1.0) <= _ROT_ORTHO_TOL:
        raise StateBlowUpError(f"attitude quaternion norm {n!r} after integration step: "
                               "the body rate turns too far in one step")
    n = math.copysign(n, qw)  # w >= 0; -q is the same rotation, with bit-identical derivatives
    y[6:10] = qw / n, qx / n, qy / n, qz / n
    return tuple(y)


def signed(bound):
    """Floats in [-bound, bound], with both zeros drawn often."""
    return st.sampled_from([0.0, -0.0]) | st.floats(-bound, bound)


@st.composite
def bit_cases(draw):
    """A state with a unit q (w of either sign), a control, three principal moments, and dt
    in [MIN_DT, 0.01]. The body rate is free, huge enough to overflow, or turns 0.40 to
    0.52 rad in one step about a random axis, across the 0.46 rad norm guard."""
    dt = draw(st.floats(MIN_DT, 0.01))
    q = draw(st.lists(signed(1.0), min_size=4, max_size=4).filter(
        lambda c: math.fsum(x * x for x in c) > 0.01))
    n = math.sqrt(math.fsum(x * x for x in q))
    kind = draw(st.sampled_from(["free", "huge", "guard"]))
    if kind == "guard":
        axis = draw(st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3).filter(
            lambda c: math.fsum(x * x for x in c) > 0.01))
        rate = draw(st.floats(0.40, 0.52)) / dt / math.sqrt(math.fsum(x * x for x in axis))
        w = [rate * x for x in axis]
    else:
        w = draw(st.lists(signed(1e3 if kind == "free" else 1e200), min_size=3, max_size=3))
    y = (*draw(st.lists(signed(100.0), min_size=6, max_size=6)), *(x / n for x in q), *w)
    J = draw(st.lists(st.floats(1e-4, 1e-1), min_size=3, max_size=3))
    u = (draw(st.floats(0.0, 1e3)), *draw(st.lists(signed(10.0), min_size=3, max_size=3)))
    return y, u, VehicleParams(m=draw(st.floats(0.1, 10.0)), J=J), dt


def outcome(step, case):
    """The bit patterns of the stepped state, or the blow-up's message."""
    try:
        return tuple(float.hex(c) for c in step(*case))
    except StateBlowUpError as exc:
        return "StateBlowUpError", str(exc)


@settings(max_examples=300, deadline=None)
@given(bit_cases())
@example(((0.0,) * 9 + (1.0, 0.0, 0.0, -0.0),
          (0.0, 0.0, 0.0, -0.0),
          VehicleParams(m=1.0, J=(0.0625,) * 3), 0.0078125))  # -0.0 rate, equal moments
def test_scalar_step_is_bit_identical_to_list_step(case):
    """The scalar stages change no float operation: the same bits, -0.0 kept apart
    from 0.0, or the same StateBlowUpError with the same message."""
    assert outcome(integrate_step, case) == outcome(reference_step, case)
