"""Wall model, contact detection and the contact step in both modes."""
import math

import numpy as np
import pytest

from foldquad import scenario
from foldquad.arm import SpringParams, _transition, simulate_contact
from foldquad.collision import (RIGID_CONTACT_TIME, Foldable, Rigid, Wall, contact_constrained_step,
                                detect_contact, impact_force_estimate, resolve_rigid)
from foldquad.dynamics import (StateBlowUpError, VehicleParams, body_state, control_input,
                               quaternion_to_rotation)
from foldquad.scenario import ScenarioConfig

P = VehicleParams()
WALL = Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3)  # plane x1 = 0.3, free space x1 < 0.3


def distance(w, x):
    """Signed distance n . x - offset of a point from the wall, positive in free space."""
    return float(np.array(w.normal) @ np.asarray(x, dtype=float)) - w.offset


def x_of(s):
    return np.array(s[:3])


def v_of(s):
    return np.array(s[3:6])


def R_of(s):
    return np.array(quaternion_to_rotation(s[6:10])).reshape(3, 3)


def moving_state(x, v):
    return body_state(x=np.asarray(x, dtype=float), v=np.asarray(v, dtype=float),
                      R=np.eye(3), omega=np.zeros(3))


# -- wall ----------------------------------------------------------------------

def test_wall_normalizes_and_measures_distance():
    w = Wall(normal=[-2.0, 0.0, 0.0], offset=-0.3)
    assert np.allclose(w.normal, [-1.0, 0.0, 0.0])
    assert abs(distance(w, [0.0, 0.0, 0.0]) - 0.3) < 1e-15
    assert abs(distance(w, [0.3, 5.0, -1.0])) < 1e-15


def test_wall_normalization_is_idempotent():
    """A wall built from the normal of another is bit-identical, so a saved and
    reloaded config keeps its wall exactly."""
    rng = np.random.default_rng(21)
    for n in rng.normal(size=(2000, 3)):
        once = Wall(normal=n, offset=0.0).normal
        assert Wall(normal=once, offset=0.0).normal == once


def test_wall_rejects_zero_normal():
    with pytest.raises(ValueError):
        Wall(normal=[0.0, 0.0, 0.0], offset=0.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("normal, unit", [
    ([-1e200, 0.0, 0.0], (-1.0, 0.0, 0.0)),  # its square overflows
    ([1e-200, 0.0, 0.0], (1.0, 0.0, 0.0)),  # its square underflows to 0
    ([3e-160, 4e-160, 0.0], (0.6, 0.8, 0.0)),  # its squares are subnormal
    ([5e-324, 0.0, -5e-324], (0.5 ** 0.5, 0.0, -(0.5 ** 0.5))),  # subnormal components
    ([1.7e308, -1.7e308, 1.7e308], (3.0 ** -0.5, -(3.0 ** -0.5), 3.0 ** -0.5)),
])
def test_wall_normal_of_any_finite_length_is_unit(normal, unit):
    """A normal whose squares over- or underflow is scaled by its largest component
    first: each component lands within 1 ulp of the unit normal's, without a warning."""
    got = Wall(normal=normal, offset=0.0).normal
    assert all(abs(g - u) <= math.ulp(u) for g, u in zip(got, unit)), got


def test_rigid_restitution_bounds():
    """Restitution lies in (0, 1]: e = 0, a stop dead, has no finite contact time."""
    for e in (1.5, -0.1, 0.0):
        with pytest.raises(ValueError, match="restitution"):
            ScenarioConfig(restitution=e)


# -- detect_contact -------------------------------------------------------------

@pytest.mark.parametrize("normal", [
    [-1.0, 0.0, 0.0],  # unit
    [-2.0, 0.0, 0.0],  # non-unit
    [-math.cos(0.5), -math.sin(0.5), 0.0],  # turned 0.5 rad about the vertical
    [0.3, -1.7, 2.9],  # non-unit and oblique
])
def test_wall_floats_are_the_normal_bit_for_bit(normal):
    """The wall keeps its normal as a tuple of three floats: the given vector divided by
    its numpy norm unless that is 1 within 1e-12, bit for bit, also after a config round
    trip, which gives an equal wall with an equal hash."""
    w = Wall(normal=normal, offset=-0.3)
    reloaded = ScenarioConfig.from_dict(ScenarioConfig(wall=w).to_dict()).wall
    n = np.asarray(normal, dtype=float)
    want = n if abs(np.linalg.norm(n) - 1.0) <= 1e-12 else n / np.linalg.norm(n)
    for wall in (w, reloaded):
        assert type(wall.normal) is tuple and all(type(c) is float for c in wall.normal)
        assert [c.hex() for c in wall.normal] == [c.hex() for c in want.tolist()]
    assert reloaded == w and hash(reloaded) == hash(w)


def test_detect_far_from_wall():
    s = moving_state([-0.7, 0.0, 0.0], [1.0, 0.0, 0.0])  # 1 m from the plane
    assert detect_contact(s, WALL, P) is None


def test_detect_at_boundary_approaching():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [1.4, 0.0, 0.0])
    ev = detect_contact(s, WALL, P, t=0.25)
    assert ev is not None
    assert ev.t_c == 0.25
    assert np.array_equal(ev.v_c, v_of(s))
    assert np.array_equal(ev.x_c, x_of(s))
    assert float(ev.v_c @ ev.normal) > 0.0  # approaching by construction


def test_detect_at_boundary_separating():
    s = moving_state([0.3 - P.r_contact, 0.0, 0.0], [-1.0, 0.0, 0.0])
    assert detect_contact(s, WALL, P) is None


def test_no_tunneling_at_step_speed():
    # dt = 1 ms, |v| <= 5 m/s: penetration at detection is at most |v| dt, and the
    # first contact step puts the centroid r_contact - l off the wall
    dt, v = 1e-3, 5.0
    s = moving_state([0.3 - P.r_contact + v * dt * 0.999, 0.0, 0.0], [v, 0.0, 0.0])
    ev = detect_contact(s, WALL, P)
    assert ev is not None
    penetration = P.r_contact - distance(WALL, x_of(s))
    assert penetration <= v * dt + 1e-12
    sp = resolve_rigid(0.9, P.r_contact)
    out, l, _, _ = contact_constrained_step(s, 0.0, v, WALL, control_input(f=0.0),
                                            P, sp, _transition(sp.b_s, sp.k_s, dt), dt)
    assert abs(distance(WALL, x_of(out)) - (P.r_contact - l)) < 1e-12
    assert 0.0 < l < sp.l_max


# -- resolve_rigid: the stiff arm ---------------------------------------------------

@pytest.mark.parametrize("e", [0.05, 0.3, 0.5, 0.7, 0.9, 1.0])
def test_rigid_arm_returns_restitution_after_contact_time(e):
    """From any impact speed the stiff arm releases at e times it after exactly
    RIGID_CONTACT_TIME, at every dt up to 1 ms that divides that time."""
    sp = resolve_rigid(e, P.r_contact)
    for dt in (1e-3, 5e-4, 2.5e-4, 2e-4, 1e-4):
        for v in (0.3, 1.4, 20.0):
            res = simulate_contact(v, sp, dt)
            assert res.v_rb == pytest.approx(e * v, rel=1e-12, abs=0.0), (dt, v)
            assert abs(res.duration - RIGID_CONTACT_TIME) <= 1e-12, (dt, v)


def test_rigid_arm_peak_stays_below_travel_limit():
    """The stiff arm peaks near v T/pi and never reaches l_max, up to 20 m/s."""
    for e in (0.05, 0.5, 1.0):
        sp = resolve_rigid(e, P.r_contact)
        for v in (0.1, 1.0, 5.0, 10.0, 20.0):
            res = simulate_contact(v, sp, 1e-4)
            assert not res.saturated and res.peak_l < sp.l_max
            assert res.peak_l <= v * RIGID_CONTACT_TIME / math.pi * (1.0 + 1e-9)


def test_rigid_reflection_default_restitution():
    """The default restitution returns 1.4 m/s at 1.26 m/s after ten 1 ms contact
    steps; attitude without torque or rate stays as it was."""
    states, _ = _run_constrained(1.4, control_input(f=0.0), resolve_rigid(0.9, P.r_contact))
    assert len(states) - 1 == 10
    assert v_of(states[-1])[0] == pytest.approx(-1.26, rel=1e-12, abs=0.0)
    assert v_of(states[-1])[1] == 0.0
    assert np.array_equal(R_of(states[-1]), R_of(states[0]))


def test_rigid_elastic_oblique_preserves_speed():
    """On a wall turned 0.5 rad about the vertical, each contact step keeps the
    horizontal tangential velocity, and an elastic contact returns the normal
    speed, so the horizontal speed is kept; gravity alone acts on the vertical."""
    a = 0.5
    wall = Wall(normal=[-np.cos(a), np.sin(a), 0.0], offset=-0.3)
    n, tan = -np.array(wall.normal), np.array([np.sin(a), np.cos(a), 0.0])
    v0 = 1.0 * n + 0.5 * tan
    s = moving_state((P.r_contact + wall.offset) * -n, v0)
    assert detect_contact(s, wall, P) is not None
    sp = resolve_rigid(1.0, P.r_contact)
    phi = _transition(sp.b_s, sp.k_s, 1e-3)
    l, l_dot = 0.0, 1.0
    for _ in range(10):  # releases on the step at RIGID_CONTACT_TIME
        s, l, l_dot, exited = contact_constrained_step(s, l, l_dot, wall, control_input(f=0.0),
                                                       P, sp, phi, 1e-3)
        assert abs(float(v_of(s) @ tan) - 0.5) < 1e-12
    assert exited
    assert float(v_of(s) @ n) == pytest.approx(-1.0, rel=1e-12, abs=0.0)
    assert np.hypot(*v_of(s)[:2]) == pytest.approx(np.hypot(*v0[:2]), rel=1e-12, abs=0.0)
    assert v_of(s)[2] == pytest.approx(P.g * RIGID_CONTACT_TIME, rel=1e-9)


def _first_contact_steps(monkeypatch, mode):
    """Over twelve start headings, the states detect_contact saw at each touch
    and the states the first contact steps started from."""
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
        scenario.run_scenario(ScenarioConfig(mode=mode, duration=0.2, start_yaw=yaw,
                                             setpoint_yaw=yaw))
    return touched, first_input


def test_foldable_contact_snap_carries_attitude_and_rate_bit_for_bit(monkeypatch):
    """Each first contact step starts from the touching state with q and omega
    exactly as detect_contact saw them, over twelve start headings."""
    touched, first_input = _first_contact_steps(monkeypatch, Foldable())
    assert len(touched) == len(first_input) == 12
    assert all(a[6:] == b[6:] for a, b in zip(first_input, touched))


def test_rigid_contact_snap_carries_attitude_and_rate_bit_for_bit(monkeypatch):
    """The rigid contact starts the same way: from the touching state, q and
    omega bit for bit."""
    touched, first_input = _first_contact_steps(monkeypatch, Rigid())
    assert len(touched) == len(first_input) == 12
    assert all(a == b for a, b in zip(first_input, touched))


# -- contact_constrained_step ------------------------------------------------------

def _touching_state(v):
    return moving_state([0.3 - P.r_contact, 0.0, 0.0], v)


def _run_constrained(v_c, u, spring, dt=1e-3):
    """Drive the constrained stepper until release; return (states, arms), each arm (l, l_dot)."""
    s = _touching_state([v_c, 0.0, 0.0])
    l, l_dot = 0.0, v_c
    states, arms = [s], [(l, l_dot)]
    phi = _transition(spring.b_s, spring.k_s, dt)
    for _ in range(2000):
        s, l, l_dot, exited = contact_constrained_step(s, l, l_dot, WALL, u, P, spring, phi, dt)
        states.append(s)
        arms.append((l, l_dot))
        if exited:
            return states, arms
    raise AssertionError("contact did not release")


def test_centroid_advances_with_compression():
    spring = SpringParams()
    s = _touching_state([1.4, 0.0, 0.0])
    phi = _transition(spring.b_s, spring.k_s, 1e-3)
    s2, l2, _, exited = contact_constrained_step(
        s, 0.0, 1.4, WALL, control_input(f=0.0), P, spring, phi, 1e-3)
    assert not exited
    assert l2 > 0.0
    assert x_of(s2)[0] > x_of(s)[0]  # centroid keeps moving toward the wall as l grows
    assert abs((0.3 - x_of(s2)[0]) - (P.r_contact - l2)) < 1e-12


def test_release_speed_matches_pure_arm_integration():
    """With thrust zeroed the two contact paths agree to 1e-6."""
    spring = SpringParams()
    for v_c in [0.6, 1.4, 2.2]:
        states, arms = _run_constrained(v_c, control_input(f=0.0), spring)
        oracle = simulate_contact(v_c, spring, dt=1e-3)
        v_exit = -float(v_of(states[-1]) @ np.array([1.0, 0.0, 0.0]))
        assert abs(v_exit - oracle.v_rb) < 1e-6
        assert abs(max(l for l, _ in arms) - oracle.peak_l) < 1e-6
        assert len(states) - 1 == round(oracle.duration / 1e-3)


def test_tangential_velocity_decoupled():
    # no thrust: the only tangential force is gravity (third axis), so the
    # second-axis velocity is unchanged across the whole contact
    spring = SpringParams()
    s = _touching_state([1.4, 0.25, 0.0])
    l, l_dot = 0.0, 1.4
    phi = _transition(spring.b_s, spring.k_s, 1e-3)
    for _ in range(2000):
        s, l, l_dot, exited = contact_constrained_step(
            s, l, l_dot, WALL, control_input(f=0.0), P, spring, phi, 1e-3)
        if exited:
            break
    assert abs(v_of(s)[1] - 0.25) < 1e-12


def test_energy_monotone_inside_constrained_contact():
    spring = SpringParams()
    _, arms = _run_constrained(1.4, control_input(f=0.0), spring)
    e_prev = np.inf
    for l, l_dot in arms:
        e = 0.5 * l_dot**2 + 0.5 * spring.k_s * l**2
        assert e <= e_prev * (1.0 + 1e-9)
        e_prev = e


def test_contact_step_blow_up_detected():
    # thrust near the float maximum overflows the free step's RK4 sum; the
    # contact step must raise rather than return a non-finite state
    s, l, l_dot = _touching_state([1.4, 0.0, 0.0]), 0.0, 1.4
    u, sp = control_input(f=1e308), SpringParams()
    phi = _transition(sp.b_s, sp.k_s, 1e-3)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(StateBlowUpError):
        for _ in range(100):
            s, l, l_dot, _ = contact_constrained_step(s, l, l_dot, WALL, u, P, sp, phi, 1e-3)
            assert np.isfinite(x_of(s)).all() and np.isfinite(v_of(s)).all()


def test_foldable_rebound_below_rigid_for_all_restitutions():
    spring = SpringParams()
    v_c = 1.4
    states, _ = _run_constrained(v_c, control_input(f=0.0), spring)
    v_fold = -float(v_of(states[-1])[0])
    for e in [0.3, 0.5, 0.7, 0.9, 1.0]:
        rigid, _ = _run_constrained(v_c, control_input(f=0.0), resolve_rigid(e, P.r_contact))
        v_rigid = -float(v_of(rigid[-1])[0])
        assert v_rigid == pytest.approx(e * v_c, rel=1e-12, abs=0.0)
        assert v_fold < v_rigid


def test_contact_duration_ordering():
    """The foldable contact lasts at least ten rigid ones, up to 20 m/s."""
    spring, rigid = SpringParams(), resolve_rigid(0.9, P.r_contact)
    for v in (0.5, 1.4, 5.0, 20.0):
        fold = simulate_contact(v, spring, dt=1e-3)
        assert abs(simulate_contact(v, rigid, dt=1e-3).duration - RIGID_CONTACT_TIME) <= 1e-12
        assert fold.duration >= 10 * RIGID_CONTACT_TIME


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
