"""Recovery setpoint, cascaded position loop and geometric attitude loop."""
import numpy as np
import pytest

from foldquad.control import (ControllerConfig, ControllerState, Setpoint, _rotation_error,
                              attitude_moment, position_loop, recovery_setpoint,
                              step_controller)
from foldquad.dynamics import (ControlInput, VehicleParams, body_state, hover, integrate_step,
                               quaternion_to_rotation)

P = VehicleParams()
CFG = ControllerConfig()


def x_of(s):
    return np.array(s[:3])


def R_of(s):
    return np.array(quaternion_to_rotation(s[6:10])).reshape(3, 3)


def rot_x(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def held_R_d(cs):
    return np.reshape(cs.held_R_d, (3, 3))


def rotation_error(R, R_d):
    """e_R = 0.5 vee(R_d^T R - R^T R_d) as a (3,) array."""
    return np.array(_rotation_error(np.ravel(R).tolist(), np.ravel(R_d).tolist()))


def random_rotation(rng):
    Q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    if np.linalg.det(Q) < 0:
        Q[:, 0] = -Q[:, 0]
    return Q


# -- config ---------------------------------------------------------------------

def test_config_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        ControllerConfig(k_p=0.0)
    with pytest.raises(ValueError):
        ControllerConfig(k_omega=-0.1)


def test_config_rejects_nan_gain():
    with pytest.raises(ValueError, match="k_r"):
        ControllerConfig(k_r=np.nan)


def test_config_rejects_slow_attitude_loop():
    with pytest.raises(ValueError):
        ControllerConfig(attitude_rate=50.0, position_rate=100.0)


# -- recovery_setpoint ------------------------------------------------------------

def test_recovery_setpoint_caption_cases():
    sp = recovery_setpoint([0.6, 0.0, -0.5], [2.1, 0.0], CFG)
    assert np.max(np.abs(sp.x_d - np.array([-0.45, 0.0, -0.5]))) < 1e-12
    sp = recovery_setpoint([0.4, 0.0, -0.5], [2.1, 0.0], CFG)
    assert np.max(np.abs(sp.x_d - np.array([-0.65, 0.0, -0.5]))) < 1e-12


def test_recovery_setpoint_zero_velocity_fixed_point():
    x = np.array([0.7, -0.2, -1.3])
    sp = recovery_setpoint(x, [0.0, 0.0], CFG)
    assert np.array_equal(sp.x_d, x)


def test_recovery_setpoint_altitude_bit_equal():
    rng = np.random.default_rng(11)
    for _ in range(50):
        x = rng.normal(size=3)
        v = rng.normal(size=2) * 3.0
        sp = recovery_setpoint(x, v, CFG)
        assert sp.x_d[2] == x[2]  # bit-for-bit


def test_recovery_setpoint_displacement_magnitude_and_sign():
    cfg = ControllerConfig(gamma1=0.5, gamma2=0.7)
    rng = np.random.default_rng(12)
    for _ in range(50):
        x = rng.normal(size=3)
        v = rng.normal(size=2) * 2.0
        sp = recovery_setpoint(x, v, cfg)
        d = sp.x_d[:2] - x[:2]
        assert abs(abs(d[0]) - 0.5 * abs(v[0])) < 1e-15
        assert abs(abs(d[1]) - 0.7 * abs(v[1])) < 1e-15
        # displacement opposes the approach direction on each axis
        assert d[0] * v[0] <= 0.0 and d[1] * v[1] <= 0.0


# -- position_loop ------------------------------------------------------------------

def test_position_loop_hover_command():
    s = hover(np.array([1.0, 2.0, -3.0]))
    sp = Setpoint(x_d=x_of(s), yaw_d=0.0)
    cs = position_loop(s, sp, ControllerState(), CFG, P, 0.01)
    assert abs(cs.held_f - P.m * P.g) < 1e-9
    assert np.allclose(held_R_d(cs), np.eye(3), atol=1e-12)


def test_position_loop_tilts_toward_target():
    cfg = ControllerConfig(k_p=1.0, k_v=2.0, k_vi=1e-9, k_vd=1e-9)
    s = hover(np.zeros(3))
    sp = Setpoint(x_d=np.array([1.0, 0.0, 0.0]))
    cs = position_loop(s, sp, ControllerState(), cfg, P, 0.01)
    # a_cmd = [2, 0, 0]; thrust direction -b3d gains a +x component
    b3 = held_R_d(cs)[:, 2]
    assert -b3[0] > 0.0
    expected = (9.81 * np.array([0, 0, 1.0]) - np.array([2.0, 0, 0]))
    assert np.allclose(b3, expected / np.linalg.norm(expected), atol=1e-6)


def test_position_loop_thrust_clamped():
    s = hover(np.zeros(3))
    sp = Setpoint(x_d=np.array([0.0, 0.0, -1e6]))
    assert position_loop(s, sp, ControllerState(), CFG, P, 0.01).held_f == CFG.max_thrust


def test_position_loop_integral_clamped():
    cfg = ControllerConfig(integral_limit=0.5)
    s = hover(np.zeros(3))
    sp = Setpoint(x_d=np.array([100.0, 0.0, 0.0]))
    cs = ControllerState()
    for _ in range(1000):
        cs = position_loop(s, sp, cs, cfg, P, 0.01)
        assert np.all(np.abs(cs.integral) <= 0.5 + 1e-15)


def test_position_loop_degenerate_direction_holds_previous():
    # command a free-fall-matching acceleration: specific force ~ 0
    cfg = ControllerConfig(k_p=1.0, k_v=1.0, k_vi=1e-9, k_vd=1e-9)
    s = body_state(x=np.zeros(3), v=np.array([0.0, 0.0, 9.81]), R=np.eye(3),
                   omega=np.zeros(3))
    sp = Setpoint(x_d=np.array([0.0, 0.0, 9.81 + 9.81]))
    prev = rot_x(0.3)
    cs = ControllerState(held_R_d=tuple(prev.ravel().tolist()))
    cs = position_loop(s, sp, cs, cfg, P, 0.01)
    assert np.array_equal(held_R_d(cs), prev)


# -- attitude loop -------------------------------------------------------------------

def test_attitude_errors_zero_case():
    rng = np.random.default_rng(13)
    R = random_rotation(rng)
    om = rng.normal(size=3)
    assert np.allclose(rotation_error(R, R), 0, atol=1e-12)
    # no rate feedforward: at R = R_d the moment is -k_Omega e_Omega + Omega x J Omega
    # with the rate error e_Omega equal to the body rate
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=R, omega=om)
    u = step_controller(s, ControllerState(held_R_d=tuple(R_of(s).ravel().tolist())), CFG, P)
    assert np.allclose(u.tau, -CFG.k_omega * om + np.cross(om, np.diag(P.J) @ om), atol=1e-12)


def test_attitude_error_closed_form_single_axis():
    for theta in [0.1, 0.5, 1.2]:
        e_R = rotation_error(rot_x(theta), np.eye(3))
        assert np.allclose(e_R, [np.sin(theta), 0.0, 0.0], atol=1e-12)


def test_attitude_error_antisymmetric_under_swap():
    rng = np.random.default_rng(14)
    for _ in range(20):
        R1, R2 = random_rotation(rng), random_rotation(rng)
        e12, e21 = rotation_error(R1, R2), rotation_error(R2, R1)
        assert np.allclose(e12, -e21, atol=1e-12)


def test_attitude_error_zero_iff_equal():
    rng = np.random.default_rng(15)
    for _ in range(20):
        R1, R2 = random_rotation(rng), random_rotation(rng)
        e = rotation_error(R1, R2)
        same = np.max(np.abs(R1 - R2)) < 1e-9
        assert (np.linalg.norm(e) < 1e-9) == same


def test_attitude_moment_zero_case():
    tau = attitude_moment(np.zeros(3), np.zeros(3), P, CFG)
    assert np.allclose(tau, 0, atol=1e-15)


def test_attitude_moment_gyroscopic_vanishes_on_principal_axis():
    """About a principal axis Omega x J Omega is zero: only the rate damping is left."""
    om = np.array([1.0, 0.0, 0.0])
    tau = attitude_moment(np.zeros(3), om, P, CFG)
    assert np.allclose(tau, -CFG.k_omega * om, atol=1e-15)


def test_attitude_moment_proportional_term():
    cfg = ControllerConfig(k_r=2.0, k_omega=0.25)
    tau = attitude_moment(np.array([0.1, 0.0, 0.0]), np.zeros(3), P, cfg)
    assert np.allclose(tau, [-0.2, 0.0, 0.0], atol=1e-15)


# -- step_controller and closed loop ---------------------------------------------------

def test_step_controller_hover_equilibrium():
    s = hover(np.array([0.0, 0.0, -1.0]))
    sp = Setpoint(x_d=x_of(s))
    cs = ControllerState()
    for k in range(10):
        if k % 3 != 1:  # position ticks on two of every three attitude ticks, as at 100/150 Hz
            cs = position_loop(s, sp, cs, CFG, P, 1.0 / CFG.position_rate)
        u = step_controller(s, cs, CFG, P)
        assert abs(u.f - P.m * P.g) < 1e-9
        assert np.allclose(u.tau, 0, atol=1e-12)


def test_closed_loop_position_convergence_from_offset():
    """1 m offset converges to within 0.05 m in under 5 s."""
    s = hover(np.array([1.0, 0.0, -1.0]))
    sp = Setpoint(x_d=np.array([0.0, 0.0, -1.0]))
    cs = ControllerState()
    u = ControlInput(f=P.m * P.g)
    n_att = n_pos = 0
    t_conv = None
    for i in range(5000):  # ticks on the run loop's rule: tick k at the first t >= k/rate
        t = i * 1e-3
        if t * CFG.attitude_rate > n_att - 1e-9:
            if t * CFG.position_rate > n_pos - 1e-9:
                cs = position_loop(s, sp, cs, CFG, P, 1.0 / CFG.position_rate)
                n_pos += 1
            u = step_controller(s, cs, CFG, P)
            n_att += 1
        s = integrate_step(s, u, P, 1e-3)
        if t_conv is None and np.linalg.norm(x_of(s) - sp.x_d) < 0.05:
            t_conv = t + 1e-3
    assert t_conv is not None and t_conv < 5.0
    assert np.linalg.norm(x_of(s) - sp.x_d) < 0.05


def test_closed_loop_attitude_convergence_from_30_deg():
    """30 deg initial attitude error: ||e_R|| < 1e-3 within 2 s, decaying
    monotonically after the initial transient."""
    R_d = np.eye(3)
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=rot_x(np.deg2rad(30.0)),
                   omega=np.zeros(3))
    t, next_att = 0.0, 0.0
    u = ControlInput(f=P.m * P.g)
    norms = []
    while t < 2.0:
        if t >= next_att - 1e-12:
            tau = attitude_moment(rotation_error(R_of(s), R_d), s[10:], P, CFG)
            u = ControlInput(f=P.m * P.g, tau=tau)
            next_att += 1.0 / CFG.attitude_rate
        s = integrate_step(s, u, P, 1e-3)
        t += 1e-3
        norms.append(np.linalg.norm(rotation_error(R_of(s), R_d)))
    assert norms[-1] < 1e-3
    # monotone decay of the peak after the transient (windowed envelope)
    window = 100
    peaks = [max(norms[i:i + window]) for i in range(200, len(norms) - window, window)]
    assert all(b <= a * (1.0 + 1e-9) for a, b in zip(peaks[:-1], peaks[1:]))
