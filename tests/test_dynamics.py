"""Rigid-body model: algebra helpers, the float-tuple state, equations of motion, RK4."""
import numpy as np
import pytest

from foldquad.arm import ArmState, SpringParams
from foldquad.collision import Wall, contact_constrained_step
from foldquad.dynamics import (BodyState, ControlInput, StateBlowUpError,
                               VehicleParams, dynamics_derivative, hat,
                               integrate_step, renormalize_rotation)

E3 = np.array([0.0, 0.0, 1.0])


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


# -- renormalize_rotation ----------------------------------------------------

def test_renormalize_identity():
    assert np.allclose(renormalize_rotation(np.eye(3)), np.eye(3), atol=1e-15)


def test_renormalize_small_skew_perturbation_vs_svd_oracle():
    rng = np.random.default_rng(3)
    for _ in range(20):
        R = random_rotation(rng) + 1e-6 * hat(rng.normal(size=3))
        out = renormalize_rotation(R)
        assert np.max(np.abs(out.T @ out - np.eye(3))) < 1e-12
        # independent oracle: orthogonal polar factor via SVD
        U, _, Vt = np.linalg.svd(R)
        assert np.max(np.abs(out - U @ Vt)) < 1e-12


def test_renormalize_idempotent_on_rotations():
    rng = np.random.default_rng(4)
    for _ in range(10):
        R = random_rotation(rng)
        assert np.max(np.abs(renormalize_rotation(R) - R)) < 1e-12


def test_renormalize_rejects_nonpositive_det():
    with pytest.raises(ValueError):
        renormalize_rotation(np.diag([1.0, 1.0, -1.0]))


def test_renormalize_rejects_ill_conditioned_input():
    # singular values 1e8 and 1e-8 need more than 20 Newton halvings
    with pytest.raises(ValueError, match="did not converge"):
        renormalize_rotation(np.diag([1e8, 1.0, 1e-8]))


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


def test_step_results_hold_18_plain_floats():
    """numpy scalars in the state would slow every later step (and the arm step 2.3x)."""
    for s in stepped_states():
        assert type(s.y) is tuple and len(s.y) == 18
        assert all(type(c) is float for c in s.y)


def test_state_accessors_are_fresh_read_only_copies():
    s, _ = stepped_states()
    y = s.y
    s.x[0] = 1e9
    s.R[0, 0] = 1e9
    assert s.y is y and s.x[0] == y[0] and s.R[0, 0] == y[6]
    with pytest.raises(AttributeError):
        s.x = np.zeros(3)


def test_constructor_round_trip_is_bit_identical():
    for s in stepped_states():
        assert BodyState(x=s.x, v=s.v, R=s.R, omega=s.omega).y == s.y


# -- dynamics_derivative -----------------------------------------------------

def test_hover_equilibrium_derivative():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    u = ControlInput(f=p.m * p.g)
    xdot, vdot, Rdot, omegadot = dynamics_derivative(s, u, p)
    assert np.allclose(xdot, 0, atol=1e-15)
    assert np.allclose(vdot, 0, atol=1e-12)
    assert np.allclose(Rdot, 0, atol=1e-15)
    assert np.allclose(omegadot, 0, atol=1e-15)


def test_free_fall_derivative():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    _, vdot, _, _ = dynamics_derivative(s, ControlInput(f=0.0), p)
    assert np.allclose(vdot, [0.0, 0.0, 9.81], atol=1e-12)


def test_pure_yaw_moment_derivative():
    p = VehicleParams()
    s = BodyState.hover(np.zeros(3))
    u = ControlInput(f=p.m * p.g, tau=[0.0, 0.0, 0.01])
    _, _, _, omegadot = dynamics_derivative(s, u, p)
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
