"""Wall model, contact detection and both contact-resolution modes."""
import numpy as np
import pytest
from scipy.spatial.transform import Rotation

from foldquad import scenario
from foldquad.arm import ArmState, SpringParams, _transition, simulate_contact
from foldquad.collision import (CollisionEvent, Foldable, Wall,
                                contact_constrained_step, detect_contact,
                                impact_force_estimate, resolve_rigid)
from foldquad.dynamics import (BodyState, ControlInput, StateBlowUpError, VehicleParams,
                               integrate_step)
from foldquad.scenario import ScenarioConfig

P = VehicleParams()
WALL = Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3)  # plane x1 = 0.3, free space x1 < 0.3


def moving_state(x, v):
    return BodyState(x=np.asarray(x, dtype=float), v=np.asarray(v, dtype=float),
                     R=np.eye(3), omega=np.zeros(3))


# -- wall ----------------------------------------------------------------------

def test_wall_normalizes_and_measures_distance():
    w = Wall(normal=[-2.0, 0.0, 0.0], offset=-0.3)
    assert np.allclose(w.normal, [-1.0, 0.0, 0.0])
    assert abs(w.distance([0.0, 0.0, 0.0]) - 0.3) < 1e-15
    assert abs(w.distance([0.3, 5.0, -1.0])) < 1e-15


def test_wall_normalization_is_idempotent():
    """A wall built from the normal of another is bit-identical, so a saved and
    reloaded config keeps its wall exactly."""
    rng = np.random.default_rng(21)
    for n in rng.normal(size=(2000, 3)):
        once = Wall(normal=n, offset=0.0).normal
        assert np.array_equal(Wall(normal=once, offset=0.0).normal, once)


def test_wall_rejects_zero_normal():
    with pytest.raises(ValueError):
        Wall(normal=[0.0, 0.0, 0.0], offset=0.0)


def test_rigid_restitution_bounds():
    with pytest.raises(ValueError):
        ScenarioConfig(restitution=1.5)
    with pytest.raises(ValueError):
        ScenarioConfig(restitution=-0.1)


# -- detect_contact -------------------------------------------------------------

def test_detect_far_from_wall():
    s = moving_state([-0.7, 0.0, 0.0], [1.0, 0.0, 0.0])  # 1 m from the plane
    assert detect_contact(s, WALL, P) is None


def test_detect_at_boundary_approaching():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [1.4, 0.0, 0.0])
    ev = detect_contact(s, WALL, P, t=0.25)
    assert ev is not None
    assert ev.t_c == 0.25
    assert np.array_equal(ev.v_c, s.v)
    assert np.array_equal(ev.x_c, s.x)
    assert float(ev.v_c @ ev.normal) > 0.0  # approaching by construction


def test_detect_at_boundary_separating():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert detect_contact(s, WALL, P) is None


def test_no_tunneling_at_step_speed():
    # dt = 1 ms, |v| <= 5 m/s: penetration at detection is at most |v| dt
    dt, v = 1e-3, 5.0
    s = moving_state([0.3 - P.r_contact + v * dt * 0.999, 0.0, 0.0], [v, 0.0, 0.0])
    ev = detect_contact(s, WALL, P)
    assert ev is not None
    penetration = P.r_contact - WALL.distance(s.x)
    assert penetration <= v * dt + 1e-12
    resolved = resolve_rigid(s, ev, 0.9, WALL, P)
    assert WALL.distance(resolved.x) >= P.r_contact - 1e-12


# -- resolve_rigid ---------------------------------------------------------------

def test_rigid_reflection_default_restitution():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [1.4, 0.0, 0.0])
    ev = detect_contact(s, WALL, P)
    out = resolve_rigid(s, ev, 0.9, WALL, P)
    assert np.allclose(out.v, [-1.26, 0.0, 0.0], atol=1e-12)
    assert np.array_equal(out.R, s.R)


def test_rigid_perfectly_plastic():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [1.4, 0.0, 0.0])
    ev = detect_contact(s, WALL, P)
    out = resolve_rigid(s, ev, 0.0, WALL, P)
    assert abs(out.v[0]) < 1e-15


def test_rigid_elastic_oblique_preserves_speed():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [1.0, 0.5, 0.0])
    ev = detect_contact(s, WALL, P)
    out = resolve_rigid(s, ev, 1.0, WALL, P)
    assert np.allclose(out.v, [-1.0, 0.5, 0.0], atol=1e-12)
    assert abs(np.linalg.norm(out.v) - np.linalg.norm(s.v)) < 1e-12


def test_rigid_bounce_carries_attitude_and_rate_bit_for_bit():
    """q and omega pass through the bounce unchanged; a rebuild through R(q) and
    back moves q's last bits for about half of all attitudes."""
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = BodyState(x=[0.3 - P.r_contact, 0.0, 0.0], v=[1.4, 0.3, -0.2],
                      R=Rotation.random(random_state=rng.integers(2**31)).as_matrix(),
                      omega=rng.normal(size=3))
        s = integrate_step(s, ControlInput(f=10.0), P, 1e-3)  # a q as the run loop holds it
        out = resolve_rigid(s, detect_contact(s, WALL, P), 0.9, WALL, P)
        assert out.y[6:] == s.y[6:]


def test_foldable_contact_snap_carries_attitude_and_rate_bit_for_bit(monkeypatch):
    """Each first contact step starts from the touching state with q and omega
    exactly as detect_contact saw them, over twelve start headings."""
    touched, first_input = [], []

    def detecting(s, *args):
        ev = detect_contact(s, *args)
        if ev is not None:
            touched.append(s)
        return ev

    def stepping(s, *args):
        if len(first_input) < len(touched):
            first_input.append(s)
        return contact_constrained_step(s, *args)

    monkeypatch.setattr(scenario, "detect_contact", detecting)
    monkeypatch.setattr(scenario, "contact_constrained_step", stepping)
    for yaw in np.linspace(-3.0, 3.0, 12):
        scenario.run_scenario(ScenarioConfig(duration=0.2, start_yaw=yaw, setpoint_yaw=yaw))
    assert len(touched) == len(first_input) == 12
    assert all(a.y[6:] == b.y[6:] for a, b in zip(first_input, touched))


# -- contact_constrained_step ------------------------------------------------------

def _touching_state(v):
    return moving_state([0.3 - P.r_contact, 0.0, 0.0], v)


def _run_constrained(v_c, u, spring, dt=1e-3):
    """Drive the constrained stepper until release; return (states, arms)."""
    s = _touching_state([v_c, 0.0, 0.0])
    arm = ArmState(l=0.0, l_dot=v_c)
    states, arms = [s], [arm]
    phi = _transition(spring.b_s, spring.k_s, dt)
    for _ in range(2000):
        s, arm, exited = contact_constrained_step(s, arm, WALL, u, P, spring, phi, dt)
        states.append(s)
        arms.append(arm)
        if exited:
            return states, arms
    raise AssertionError("contact did not release")


def test_centroid_advances_with_compression():
    spring = SpringParams()
    s = _touching_state([1.4, 0.0, 0.0])
    arm = ArmState(l=0.0, l_dot=1.4)
    phi = _transition(spring.b_s, spring.k_s, 1e-3)
    s2, arm2, exited = contact_constrained_step(
        s, arm, WALL, ControlInput(f=0.0), P, spring, phi, 1e-3)
    assert not exited
    assert arm2.l > 0.0
    assert s2.x[0] > s.x[0]  # centroid keeps moving toward the wall as l grows
    assert abs((0.3 - s2.x[0]) - (P.r_contact - arm2.l)) < 1e-12


def test_release_speed_matches_pure_arm_integration():
    """With thrust zeroed the two contact paths agree to 1e-6."""
    spring = SpringParams()
    for v_c in [0.6, 1.4, 2.2]:
        states, arms = _run_constrained(v_c, ControlInput(f=0.0), spring)
        oracle = simulate_contact(v_c, spring, dt=1e-3)
        v_exit = -float(states[-1].v @ np.array([1.0, 0.0, 0.0]))
        assert abs(v_exit - oracle.v_rb) < 1e-6
        assert abs(max(a.l for a in arms) - oracle.peak_l) < 1e-6
        assert len(states) - 1 == round(oracle.duration / 1e-3)


def test_tangential_velocity_decoupled():
    # no thrust: the only tangential force is gravity (third axis), so the
    # second-axis velocity is unchanged across the whole contact
    spring = SpringParams()
    s = _touching_state([1.4, 0.25, 0.0])
    arm = ArmState(l=0.0, l_dot=1.4)
    phi = _transition(spring.b_s, spring.k_s, 1e-3)
    for _ in range(2000):
        s, arm, exited = contact_constrained_step(
            s, arm, WALL, ControlInput(f=0.0), P, spring, phi, 1e-3)
        if exited:
            break
    assert abs(s.v[1] - 0.25) < 1e-12


def test_energy_monotone_inside_constrained_contact():
    spring = SpringParams()
    _, arms = _run_constrained(1.4, ControlInput(f=0.0), spring)
    e_prev = np.inf
    for a in arms:
        e = 0.5 * a.l_dot**2 + 0.5 * spring.k_s * a.l**2
        assert e <= e_prev * (1.0 + 1e-9)
        e_prev = e


def test_contact_step_blow_up_detected():
    # thrust near the float maximum overflows the free step's RK4 sum; the
    # contact step must raise rather than return a non-finite state
    s, arm = _touching_state([1.4, 0.0, 0.0]), ArmState(l=0.0, l_dot=1.4)
    u, sp = ControlInput(f=1e308), SpringParams()
    phi = _transition(sp.b_s, sp.k_s, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StateBlowUpError):
        for _ in range(100):
            s, arm, _ = contact_constrained_step(s, arm, WALL, u, P, sp, phi, 1e-3)
            assert np.isfinite(s.x).all() and np.isfinite(s.v).all()


def test_foldable_rebound_below_rigid_for_all_restitutions():
    spring = SpringParams()
    v_c = 1.4
    states, _ = _run_constrained(v_c, ControlInput(f=0.0), spring)
    v_fold = -float(states[-1].v[0])
    for e in [0.3, 0.5, 0.7, 0.9, 1.0]:
        s = _touching_state([v_c, 0.0, 0.0])
        ev = detect_contact(s, WALL, P)
        v_rigid = -float(resolve_rigid(s, ev, e, WALL, P).v[0])
        assert v_fold < v_rigid


def test_contact_duration_ordering():
    spring = SpringParams()
    oracle = simulate_contact(1.4, spring, dt=1e-3)
    assert oracle.duration >= 10 * 1e-3  # rigid contact is one physics step


# -- impact_force_estimate ----------------------------------------------------------

def test_impact_force_reference_case():
    assert impact_force_estimate(1.0, 5.0, 0.05) == 100.0


def test_impact_force_zero_dv():
    assert impact_force_estimate(1.112, 0.0, 0.02) == 0.0


def test_impact_force_rejects_bad_duration():
    with pytest.raises(ValueError):
        impact_force_estimate(1.0, 5.0, 0.0)
    with pytest.raises(ValueError):
        impact_force_estimate(1.0, 5.0, -0.01)
