"""Rigid-body model: quaternion conversions, the float-tuple state, equations of motion, RK4."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad.arm import ArmState, SpringParams
from foldquad.collision import Wall, contact_constrained_step
from foldquad.dynamics import (_ROT_ORTHO_TOL, BodyState, ControlInput, StateBlowUpError,
                               VehicleParams, _deriv, integrate_step, quaternion_to_rotation,
                               rotation_to_quaternion)

E3 = np.array([0.0, 0.0, 1.0])
EPS = np.finfo(float).eps


def hat(v):
    """Skew-symmetric cross-product matrix: hat(v) @ w == np.cross(v, w)."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def full_deriv(y, a, tau, p):
    """(xdot, vdot, qdot, omegadot) of the 13 state floats as a list: xdot = v, then
    the 10 floats of _deriv."""
    return [*y[3:6], *_deriv(*y[6:], a, p.g, tau, p.J_flat, p.J_inv_flat)]


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
    out = integrate_step(BodyState.hover(np.zeros(3)), ControlInput(f=12.0), VehicleParams(),
                         1e-3)
    assert out.y[6:10] == (1.0, 0.0, 0.0, 0.0)
    assert np.array_equal(out.R, np.eye(3))


def test_renormalize_small_skew_perturbation_vs_svd_oracle():
    """A rotation drifted along the tangent space, R (I + hat(n)), is projected by
    the constructor onto the rotation group: the error against the polar factor
    is second order in the drift (measured 6.4e-14 at 1e-7, 6.4e-12 at 1e-6)."""
    rng = np.random.default_rng(3)
    for _ in range(20):
        R = random_rotation(rng) @ (np.eye(3) + 1e-7 * hat(rng.normal(size=3)))
        out = BodyState(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3)).R
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
        s = BodyState(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3))
        out = integrate_step(s, ControlInput(f=0.0), p, 1e-3)
        assert max(abs(a - b) for a, b in zip(out.y[6:10], s.y[6:10])) <= 2 * EPS
        assert np.max(np.abs(out.R - R)) < 1e-12


def test_renormalize_rejects_nonpositive_det():
    """A reflection is orthonormal but has no quaternion: the constructor rejects it."""
    with pytest.raises(ValueError, match="not a rotation"):
        BodyState(x=np.zeros(3), v=np.zeros(3), R=np.diag([1.0, 1.0, -1.0]), omega=np.zeros(3))


def test_negated_quaternion_gives_bit_identical_step():
    """q and -q are one rotation: the derivatives are equal (qdot negated) bit for
    bit, so the step's w >= 0 sign choice cannot change a trajectory."""
    rng = np.random.default_rng(9)
    p = VehicleParams()
    for _ in range(20):
        s = BodyState(x=rng.normal(size=3), v=rng.normal(size=3),
                      R=Rotation.random(random_state=rng.integers(2**31)).as_matrix(),
                      omega=rng.normal(size=3))
        neg = BodyState._trusted((*s.y[:6], *(-c for c in s.y[6:10]), *s.y[10:]))
        u = ControlInput(f=12.0, tau=rng.normal(scale=0.01, size=3))
        d, d_neg = full_deriv(s.y, u.f / p.m, u.tau, p), full_deriv(neg.y, u.f / p.m, u.tau, p)
        assert d_neg[:6] == d[:6] and d_neg[10:] == d[10:]
        assert d_neg[6:10] == [-c for c in d[6:10]]
        assert integrate_step(neg, u, p, 1e-3).y == integrate_step(s, u, p, 1e-3).y


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
            s = BodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                          omega=factor * turn / dt * axis)
            if raises:
                with pytest.raises(StateBlowUpError, match="quaternion norm"):
                    integrate_step(s, ControlInput(f=0.0), p, dt)
            else:
                out = integrate_step(s, ControlInput(f=0.0), p, dt)
                assert np.array_equal(out.omega, s.omega)  # no gyroscopic torque


# -- parameters and state validation -----------------------------------------

def test_vehicle_params_defaults():
    p = VehicleParams()
    assert p.m == 1.112
    assert np.allclose(np.diag(p.J), [0.0034, 0.0034, 0.0053])
    assert 0 < p.l_arm < p.r_contact


def test_vehicle_params_rejects_bad_inertia():
    with pytest.raises(ValueError):
        VehicleParams(J=np.diag([1.0, -1.0, 1.0]))


def test_control_input_rejects_negative_thrust():
    with pytest.raises(ValueError):
        ControlInput(f=-1.0)


@pytest.mark.parametrize("f", [np.nan, np.inf])
def test_control_input_rejects_non_finite_thrust(f):
    with pytest.raises(ValueError, match="finite"):
        ControlInput(f=f)


def test_body_state_rejects_non_orthonormal_rotation():
    with pytest.raises(ValueError):
        BodyState(x=np.zeros(3), v=np.zeros(3), R=2.0 * np.eye(3), omega=np.zeros(3))


def test_body_state_rejects_non_finite():
    with pytest.raises(ValueError):
        BodyState(x=[np.nan, 0, 0], v=np.zeros(3), R=np.eye(3), omega=np.zeros(3))


# -- the float-tuple state ---------------------------------------------------

def stepped_states():
    """A free step and a contact step from one random state."""
    rng = np.random.default_rng(8)
    p = VehicleParams()
    s = BodyState(x=rng.normal(size=3), v=rng.normal(size=3), R=random_rotation(rng),
                  omega=rng.normal(size=3))
    u = ControlInput(f=12.0, tau=rng.normal(scale=0.01, size=3))
    wall = Wall(normal=[-0.6, 0.48, 0.64], offset=-0.3)
    contact, _, _ = contact_constrained_step(s, ArmState(l=0.01, l_dot=0.5), wall, u, p,
                                             SpringParams(), 1e-3)
    return integrate_step(s, u, p, 1e-3), contact


def test_step_results_hold_13_plain_floats():
    """numpy scalars in the state would slow every later step (and the arm step 2.3x)."""
    for s in stepped_states():
        assert type(s.y) is tuple and len(s.y) == 13
        assert all(type(c) is float for c in s.y)


def test_state_accessors_are_fresh_read_only_copies():
    s, _ = stepped_states()
    y = s.y
    s.x[0] = 1e9
    s.R[0, 0] = 1e9
    assert s.y is y and s.x[0] == y[0] and s.R[0, 0] == quaternion_to_rotation(y[6:10])[0]
    with pytest.raises(AttributeError):
        s.x = np.zeros(3)


def test_constructor_round_trip_is_bit_identical():
    """Rebuilding a state from its accessors with `with_translation` is bit-identical.
    The full constructor keeps x, v and omega bit for bit; its attitude goes
    through R(q) and back, so q and R move by a few eps."""
    for s in stepped_states():
        assert s.with_translation(s.x, s.v).y == s.y
        back = BodyState(x=s.x, v=s.v, R=s.R, omega=s.omega)
        assert back.y[:6] == s.y[:6] and back.y[10:] == s.y[10:]
        assert max(abs(a - b) for a, b in zip(back.y[6:10], s.y[6:10])) <= 2 * EPS
        assert np.max(np.abs(back.R - s.R)) <= 4 * EPS


# -- equations of motion -----------------------------------------------------

def derivative(s, u, p):
    """(xdot, vdot, qdot, omegadot) of the state, as arrays."""
    d = np.array(full_deriv(s.y, u.f / p.m, u.tau, p))
    return d[:3], d[3:6], d[6:10], d[10:]


def test_hover_equilibrium_derivative():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    u = ControlInput(f=p.m * p.g)
    xdot, vdot, qdot, omegadot = derivative(s, u, p)
    assert np.allclose(xdot, 0, atol=1e-15)
    assert np.allclose(vdot, 0, atol=1e-12)
    assert np.allclose(qdot, 0, atol=1e-15)
    assert np.allclose(omegadot, 0, atol=1e-15)


def test_free_fall_derivative():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    _, vdot, _, _ = derivative(s, ControlInput(f=0.0), p)
    assert np.allclose(vdot, [0.0, 0.0, 9.81], atol=1e-12)


def test_pure_yaw_moment_derivative():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    u = ControlInput(f=p.m * p.g, tau=[0.0, 0.0, 0.01])
    _, _, _, omegadot = derivative(s, u, p)
    assert np.allclose(omegadot, [0.0, 0.0, 0.01 / 0.0053], atol=1e-12)


# -- integrate_step ----------------------------------------------------------

def test_hover_held_one_second():
    p = VehicleParams()
    s = BodyState.hover(np.array([1.0, -2.0, -3.0]))
    u = ControlInput(f=p.m * p.g)
    x0 = s.x.copy()
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
    assert np.linalg.norm(s.x - x0) < 1e-9


def test_free_fall_one_second():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    u = ControlInput(f=0.0)
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
    assert abs(s.v[2] - 9.81) < 1e-6


def test_constant_yaw_rate_full_turn():
    p = VehicleParams()
    s = BodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                  omega=np.array([0.0, 0.0, 1.0]))
    # torque holding the rate constant: with diagonal J and an axis-aligned
    # rate the gyroscopic term vanishes, so tau = 0 keeps omega fixed
    u = ControlInput(f=p.m * p.g)
    n = int(round(2.0 * np.pi / 1e-3))
    for _ in range(n):
        s = integrate_step(s, u, p, 1e-3)
    # residual fraction of a step of rotation is allowed
    assert np.max(np.abs(s.R - np.eye(3))) < 1e-3
    assert np.allclose(s.omega, [0, 0, 1], atol=1e-9)


def test_integrate_step_rejects_bad_dt():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    u = ControlInput(f=p.m * p.g)
    with pytest.raises(ValueError):
        integrate_step(s, u, p, 0.0)
    with pytest.raises(ValueError):
        integrate_step(s, u, p, 0.02)


def test_integrate_step_deterministic():
    p = VehicleParams()
    rng = np.random.default_rng(5)
    s = BodyState(x=rng.normal(size=3), v=rng.normal(size=3),
                  R=random_rotation(rng), omega=rng.normal(size=3))
    u = ControlInput(f=3.0, tau=rng.normal(size=3) * 0.01)
    a = integrate_step(s, u, p, 1e-3)
    b = integrate_step(s, u, p, 1e-3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.v, b.v)
    assert np.array_equal(a.R, b.R) and np.array_equal(a.omega, b.omega)


def test_rk4_matches_euler_substeps():
    """RK4 at dt agrees with 100 explicit-Euler sub-steps at dt/100."""
    p = VehicleParams()
    rng = np.random.default_rng(6)
    for _ in range(5):
        s = BodyState(x=rng.normal(size=3), v=rng.normal(size=3),
                      R=random_rotation(rng), omega=rng.normal(size=3))
        u = ControlInput(f=abs(rng.normal()) * 10.0, tau=rng.normal(size=3) * 0.01)
        dt = 1e-3
        out = integrate_step(s, u, p, dt)
        x, v, R, om = s.x.copy(), s.v.copy(), s.R.copy(), s.omega.copy()
        h = dt / 100
        for _ in range(100):
            acc = p.g * E3 - (u.f / p.m) * (R @ E3)
            x, v = x + h * v, v + h * acc
            R = R + h * (R @ hat(om))
            om = om + h * (p.J_inv @ (u.tau - np.cross(om, p.J @ om)))
        err = max(np.max(np.abs(out.x - x)), np.max(np.abs(out.v - v)),
                  np.max(np.abs(out.R - R)), np.max(np.abs(out.omega - om)))
        assert err < 1e-6



def test_rk4_matches_euler_substeps_full_inertia():
    """The Euler sub-step oracle with a symmetric positive-definite J that has
    off-diagonal terms, so a diagonal-only shortcut in the dynamics fails."""
    J = np.array([[0.0034, 0.0004, -0.0003],
                  [0.0004, 0.0036, 0.0005],
                  [-0.0003, 0.0005, 0.0053]])
    p = VehicleParams(J=J)
    rng = np.random.default_rng(8)
    for _ in range(5):
        s = BodyState(x=rng.normal(size=3), v=rng.normal(size=3),
                      R=random_rotation(rng), omega=rng.normal(size=3))
        u = ControlInput(f=abs(rng.normal()) * 10.0, tau=rng.normal(size=3) * 0.01)
        dt = 1e-3
        out = integrate_step(s, u, p, dt)
        x, v, R, om = s.x.copy(), s.v.copy(), s.R.copy(), s.omega.copy()
        h = dt / 100
        for _ in range(100):
            acc = p.g * E3 - (u.f / p.m) * (R @ E3)
            x, v = x + h * v, v + h * acc
            R = R + h * (R @ hat(om))
            om = om + h * np.linalg.solve(J, u.tau - np.cross(om, J @ om))
        err = max(np.max(np.abs(out.x - x)), np.max(np.abs(out.v - v)),
                  np.max(np.abs(out.R - R)), np.max(np.abs(out.omega - om)))
        assert err < 1e-6

def test_orthonormality_every_step():
    p = VehicleParams()
    rng = np.random.default_rng(7)
    s = BodyState(x=np.zeros(3), v=np.zeros(3), R=random_rotation(rng),
                  omega=rng.normal(size=3))
    u = ControlInput(f=p.m * p.g, tau=[0.001, -0.002, 0.0005])
    for _ in range(2000):
        s = integrate_step(s, u, p, 1e-3)
        err = np.linalg.norm(s.R.T @ s.R - np.eye(3))
        assert err <= 1e-9
        assert abs(np.linalg.det(s.R) - 1.0) <= 1e-9


def test_angular_momentum_conserved_in_free_rotation():
    p = VehicleParams()
    s = BodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                  omega=np.array([1.0, -2.0, 0.5]))
    u = ControlInput(f=p.m * p.g)  # zero torque; thrust does not affect rotation
    L0 = s.R @ (p.J @ s.omega)
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
    L1 = s.R @ (p.J @ s.omega)
    assert np.max(np.abs(L1 - L0)) < 1e-6


def test_blow_up_detected():
    # a finite but absurd body rate overflows the gyroscopic term
    p = VehicleParams()
    s = BodyState(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                  omega=np.array([1e200, 1e200, 0.0]))
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StateBlowUpError):
        integrate_step(s, ControlInput(f=0.0), p, 1e-3)


# -- the scalar stages against the list-based step, bit for bit -----------------------

def reference_deriv(y, a, tau, p):
    """Equations of motion on the flat state y = (x, v, q, omega) as floats, for
    thrust acceleration a = f/m and moment tau: vdot uses R(q) @ e3, the third
    column of R, and qdot = q (x) (0, omega) / 2. RK stages may leave the unit
    sphere or be non-finite; the step checks and normalizes its result."""
    _, _, _, v0, v1, v2, qw, qx, qy, qz, w0, w1, w2 = y
    j00, j01, j02, j10, j11, j12, j20, j21, j22 = p.J_flat
    i00, i01, i02, i10, i11, i12, i20, i21, i22 = p.J_inv_flat
    h0 = j00 * w0 + j01 * w1 + j02 * w2  # J omega
    h1 = j10 * w0 + j11 * w1 + j12 * w2
    h2 = j20 * w0 + j21 * w1 + j22 * w2
    t0 = tau[0] - (w1 * h2 - w2 * h1)  # tau - omega x J omega
    t1 = tau[1] - (w2 * h0 - w0 * h2)
    t2 = tau[2] - (w0 * h1 - w1 * h0)
    a2 = 2.0 * a
    return [v0, v1, v2, -a2 * (qx * qz + qw * qy), -a2 * (qy * qz - qw * qx),
            p.g - a * ((qw * qw + qz * qz) - (qx * qx + qy * qy)),
            -0.5 * (qx * w0 + qy * w1 + qz * w2), 0.5 * (qw * w0 + qy * w2 - qz * w1),
            0.5 * (qw * w1 + qz * w0 - qx * w2), 0.5 * (qw * w2 + qx * w1 - qy * w0),
            i00 * t0 + i01 * t1 + i02 * t2, i10 * t0 + i11 * t1 + i12 * t2,
            i20 * t0 + i21 * t1 + i22 * t2]


def reference_step(s, u, p, dt):
    """The staged RK4 over one list of 13 floats that the scalar step replaced,
    returning the new state's 13-tuple."""
    if not (0.0 < dt <= 0.01):
        raise ValueError("dt must be in (0, 0.01] s")
    y0, a, tau, h, c = s.y, u.f / p.m, u.tau, 0.5 * dt, dt / 6.0
    k1 = reference_deriv(y0, a, tau, p)
    k2 = reference_deriv([q + h * k for q, k in zip(y0, k1)], a, tau, p)
    k3 = reference_deriv([q + h * k for q, k in zip(y0, k2)], a, tau, p)
    k4 = reference_deriv([q + dt * k for q, k in zip(y0, k3)], a, tau, p)
    y = [q + c * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
         for q, d1, d2, d3, d4 in zip(y0, k1, k2, k3, k4)]
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
    """A state with a unit q (w of either sign), a control, a symmetric positive-definite
    J with products of inertia, and dt in (0, 0.01]. The body rate is free, huge
    enough to overflow, or turns 0.40 to 0.52 rad in one step about a random axis,
    across the 0.46 rad norm guard."""
    dt = draw(st.floats(0.0, 0.01, exclude_min=True))
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
    moments = draw(st.lists(st.floats(1e-4, 1e-1), min_size=3, max_size=3))
    J = np.diag(moments)
    for (i, j), f in zip(((0, 1), (0, 2), (1, 2)), draw(st.lists(st.floats(-0.3, 0.3),
                                                                  min_size=3, max_size=3))):
        J[i, j] = J[j, i] = f * min(moments[i], moments[j])  # diagonally dominant, so SPD
    u = ControlInput._trusted(draw(st.floats(0.0, 1e3)),
                              tuple(draw(st.lists(signed(10.0), min_size=3, max_size=3))))
    return BodyState._trusted(y), u, VehicleParams(m=draw(st.floats(0.1, 10.0)), J=J), dt


def outcome(step, case):
    """The bit patterns of the stepped state, or the blow-up's message."""
    try:
        return tuple(float.hex(c) for c in step(*case))
    except StateBlowUpError as exc:
        return "StateBlowUpError", str(exc)


@settings(max_examples=300, deadline=None)
@given(bit_cases())
def test_scalar_step_is_bit_identical_to_list_step(case):
    """The scalar stages change no float operation: the same bits, -0.0 kept apart
    from 0.0, or the same StateBlowUpError with the same message."""
    assert outcome(lambda *c: integrate_step(*c).y, case) == outcome(reference_step, case)
