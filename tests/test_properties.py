"""Property tests over random states and random scenario configs.

`integrate_step` and `contact_constrained_step` build their 13-float results
without `body_state`'s checks, so each must either raise StateBlowUpError or
return a state that `body_state` accepts. The scalar
`integrate_step` matches a quaternion RK4 written with numpy arrays, leaves a
unit quaternion with w >= 0 whose rotation is orthonormal, and raises on a body
rate that turns too far in one step; the constructor rejects a reflection.
The scalar controller tick matches the position loop and attitude moment
written with numpy arrays, and is bit-identical to the generator-based tick it
replaced, contact check included. The scalar contact step matches its numpy
vector form against walls that are not axis-aligned, does not depend on how
far along the normal its start state sits from touching contact, and is
bit-identical to the step that rebuilt its state from slices.
A scenario config saved to YAML and loaded back must reproduce every field,
and its run, cut short, ends at its last step or aborts with a diagnostic; the
run loop, which calls detect_contact only within reach, misses no touch.
The sweep's 2 cm cruise reaches its target speed on plausible vehicles.
Over random loop rates, physics steps and log intervals, the run loop fires
every tick and grid row on the integer step clock, logs every step that decides
a metric, and a repeated run is byte-identical. Runs into tilted walls give the
same metrics at every log interval and after the CSV round trip, as does a
run that touches the wall twice.
"""
import dataclasses
import io
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad import collision, scenario
from foldquad.arm import SpringParams, _transition, advance_arm
from foldquad.collision import (CollisionEvent, Foldable, Rigid, Wall, contact_constrained_step,
                                detect_contact)
from foldquad.control import (ControllerConfig, ControllerState, _rotation_error, position_loop,
                              step_controller)
from foldquad.dynamics import (MIN_DT, StateBlowUpError, VehicleParams, body_state, control_input,
                               cross3, hover, integrate_step, quaternion_to_rotation)
from foldquad.scenario import ScenarioConfig
from foldquad.simlog import COLUMNS, SETTLE_RADIUS, SimLog, compute_metrics

E3 = np.array([0.0, 0.0, 1.0])
P = VehicleParams()
CFG = ControllerConfig()
SPRING = SpringParams()
WALL = Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3)
EXAMPLES = settings(max_examples=50, deadline=None)
EPS = np.finfo(float).eps


def x_of(s):
    return np.array(s[:3])


def v_of(s):
    return np.array(s[3:6])


def R_of(s):
    return np.array(quaternion_to_rotation(s[6:10])).reshape(3, 3)


def omega_of(s):
    return np.array(s[10:])


def phi(dt):
    """The arm's transition over dt, as run_scenario computes it once per run."""
    return _transition(SPRING.b_s, SPRING.k_s, dt)


def vec3(bound):
    return st.lists(st.floats(-bound, bound), min_size=3, max_size=3).map(np.array)


quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1)
states = st.builds(
    lambda x, v, q, w: body_state(x=x, v=v, R=Rotation.from_quat(q).as_matrix(), omega=w),
    vec3(100.0), vec3(100.0), quaternions, vec3(1e3))
inputs = st.builds(control_input, f=st.floats(0.0, 1e3), tau=vec3(1e3))
dts = st.floats(MIN_DT, 0.01)  # a normal float: integrate_step refuses a subnormal dt
arms = st.tuples(st.floats(0.0, SPRING.l_max), st.floats(-5.0, 5.0))  # (l, l_dot)


def assert_fully_valid(s):
    body_state(x=x_of(s), v=v_of(s), R=R_of(s), omega=omega_of(s))


@EXAMPLES
@given(states, inputs, dts)
def test_integrate_step_result_passes_full_validation(s, u, dt):
    try:
        out = integrate_step(s, u, P, dt)
    except StateBlowUpError:
        return
    assert_fully_valid(out)


@EXAMPLES
@given(states, arms, inputs, dts)
def test_contact_step_result_passes_full_validation(s, a, u, dt):
    try:
        out, _, _, _ = contact_constrained_step(s, *a, WALL, u, P, SPRING, phi(dt), dt)
    except StateBlowUpError:
        return
    assert_fully_valid(out)


@st.composite
def configs(draw):
    pos = st.floats(0.01, 100.0)
    l_max = draw(st.floats(0.002, 0.04))
    dt = draw(st.floats(1e-4, 2e-3))
    # a loop ticks at most once per physics step
    rates = sorted(draw(st.lists(st.floats(10.0, min(1000.0, 1.0 / dt)), min_size=2, max_size=2)))
    gains = {f.name: draw(pos) for f in dataclasses.fields(ControllerConfig)
             if not f.name.endswith("_rate")}
    return ScenarioConfig(
        vehicle=VehicleParams(
            m=draw(pos), g=draw(pos), r_contact=draw(st.floats(0.05, 0.3)),
            J=draw(st.lists(st.floats(1e-4, 1e-1), min_size=3, max_size=3))),
        # |root| * dt stays below 0.4, inside RK4's stability region
        spring=SpringParams(b_s=draw(st.floats(0.0, 200.0)), k_s=draw(st.floats(1.0, 5000.0)),
                            l_max=l_max, delta_l=l_max * draw(st.floats(0.01, 0.9))),
        mode=draw(st.sampled_from([Foldable, Rigid]))(),
        restitution=draw(st.floats(0.0, 1.0, exclude_min=True)),
        controller=ControllerConfig(**gains, position_rate=rates[0], attitude_rate=rates[1]),
        wall=draw(st.none() | st.builds(
            Wall, normal=vec3(1.0).filter(lambda n: np.linalg.norm(n) > 1e-3),
            offset=st.floats(-10.0, 10.0))),
        start_position=draw(vec3(100.0)), start_velocity=draw(vec3(10.0)),
        start_yaw=draw(st.floats(-np.pi, np.pi)), setpoint=draw(vec3(100.0)),
        setpoint_yaw=draw(st.floats(-np.pi, np.pi)), duration=draw(st.floats(0.01, 10.0)),
        dt=dt, log_interval=dt * draw(st.floats(1.0, 20.0)),
    )


@EXAMPLES
@given(configs())
def test_config_yaml_round_trip_reproduces_every_field(cfg):
    loaded = ScenarioConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
    assert loaded == cfg


@settings(max_examples=40, deadline=None)
@given(configs())
def test_any_config_runs_to_the_end_or_aborts_with_a_diagnostic(cfg):
    """A valid config, cut to at most 0.2 s, either runs all n steps, its last log
    row at n*dt, or aborts with one of the two documented diagnostics at the time
    of its last row. Any other exception fails the test. Its metrics are those
    of the same run logged at every step."""
    cfg = dataclasses.replace(cfg, duration=min(cfg.duration, 0.2))
    log = scenario.run_scenario(cfg)
    if log.aborted:
        assert log.diagnostic.startswith(("state blow-up at t=", "contact timeout at t="))
        assert log.diagnostic.split(" s: ")[0].endswith(f"t={log.column('t')[-1]:.4f}")
    else:
        assert log.column("t")[-1] == int(round(cfg.duration / cfg.dt)) * cfg.dt
    dense = dataclasses.replace(cfg, log_interval=cfg.dt)
    assert compute_metrics(log, cfg) == compute_metrics(scenario.run_scenario(dense), dense)


@settings(max_examples=40, deadline=None)
@given(configs())
@example(ScenarioConfig())  # a touch at 0.11 s and a release within 0.3 s, in either mode
@example(ScenarioConfig(mode=Rigid()))
def test_contact_is_detected_on_exactly_the_logged_touches(cfg):
    """Cut to 0.3 s and logged at every step, so a row holds each step's starting state.
    detect_contact finds no touch in any row flagged 0 that the loop tested (every row but
    an unaborted run's last, at n*dt, which no step starts from): the loop's own distance
    test, which skips detect_contact out of reach, skips no touch. On the first row of each
    contact episode detect_contact returns that episode's logged event, bit for bit."""
    cfg = dataclasses.replace(cfg, duration=min(cfg.duration, 0.3), log_interval=cfg.dt)
    log = scenario.run_scenario(cfg)
    flags = log.column("contact").tolist()
    if cfg.wall is None:
        assert not any(flags) and not log.events
        return
    events = {e.t_c: e for e in log.events}
    tested = len(flags) if log.aborted else len(flags) - 1
    for k, (t, *y) in enumerate(log.data[:tested, :14].tolist()):
        ev = detect_contact(tuple(y), cfg.wall, cfg.vehicle, t)
        if not flags[k]:
            assert ev is None, f"a touch at t={t} that the loop did not log"
        elif k == 0 or not flags[k - 1]:
            assert ev is not None and t in events and event_bits(ev) == event_bits(events[t])
    assert all(flags[k] for k, t in enumerate(log.column("t").tolist()) if t in events)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(0.5, 1.5), min_size=4, max_size=4), st.floats(-np.pi, np.pi),
       st.floats(-np.pi / 4, np.pi / 4), st.floats(0.3, 8.0))
def test_one_start_gap_probe_reaches_a_plausible_cruise(scales, yaw, wall_angle, speed):
    """The sweep's cruise from 2 cm, cut to 0.2 s, touches within 0.04 m/s of its
    target for the default vehicle with k_p, k_v, k_r and k_omega at 0.5-1.5x their
    defaults, any start yaw and a wall turned up to 45 degrees about the vertical. The
    cruise starts at the target speed, so no longer run-up is needed to reach it."""
    gains = {name: f * getattr(CFG, name) for name, f in zip(("k_p", "k_v", "k_r", "k_omega"),
                                                             scales)}
    normal = [-math.cos(wall_angle), -math.sin(wall_angle), 0.0]
    cfg = ScenarioConfig(controller=dataclasses.replace(CFG, **gains), start_yaw=yaw,
                         wall=Wall(normal=normal, offset=-0.3))
    cruise = dataclasses.replace(scenario._cruise_cfg(cfg, speed, scenario._START_GAP),
                                 duration=0.2)
    gap, v_c = scenario.find_start_gap(scenario.run_scenario(cruise), speed)
    assert gap == 0.02, (speed, v_c)


# -- the scalar step against numpy, and the unit quaternion ---------------------------

def rotation(q):
    """R(q) = (w^2 - u.u) I + 2 u u^T + 2 w hat(u) for q = (w, u); a quadratic form,
    so a stage q off the unit sphere scales it by |q|^2."""
    w, u = q[0], q[1:]
    return (w * w - u @ u) * np.eye(3) + 2.0 * np.outer(u, u) + 2.0 * w * np.array(
        [[0.0, -u[2], u[1]], [u[2], 0.0, -u[0]], [-u[1], u[0], 0.0]])


def reference_rk4(s, u, p, dt):
    """Classical RK4 on (x, v, q, omega) with numpy arrays, then q / |q| with w >= 0;
    also |q| before that rescale."""
    J = np.diag(p.J)

    def f(x, v, q, w):
        qdot = 0.5 * np.concatenate(([-(q[1:] @ w)], q[0] * w + np.cross(q[1:], w)))
        return (v, p.g * E3 - (u[0] / p.m) * (rotation(q) @ E3), qdot,
                np.linalg.solve(J, u[1:] - np.cross(w, J @ w)))

    y0 = (x_of(s), v_of(s), np.array(s[6:10]), omega_of(s))
    k1 = f(*y0)
    k2 = f(*(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = f(*(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = f(*(y + dt * k for y, k in zip(y0, k3)))
    x, v, q, w = (y + dt / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                  for y, d1, d2, d3, d4 in zip(y0, k1, k2, k3, k4))
    n = np.linalg.norm(q)
    return (x, v, q / np.copysign(n, q[0]), w), n


inertias = st.lists(st.floats(1e-3, 1e-1), min_size=3, max_size=3)  # 3 principal moments
moderate_states = st.builds(
    lambda x, v, q, w: body_state(x=x, v=v, R=Rotation.from_quat(q).as_matrix(), omega=w),
    vec3(100.0), vec3(100.0), quaternions, vec3(20.0))
states_near_origin = st.builds(
    lambda x, v, q, w: body_state(x=x, v=v, R=Rotation.from_quat(q).as_matrix(), omega=w),
    vec3(1.0), vec3(5.0), quaternions, vec3(20.0))


@EXAMPLES
@given(moderate_states, st.builds(control_input, f=st.floats(0.0, 50.0), tau=vec3(0.1)),
       inertias, dts)
def test_integrate_step_matches_numpy_rk4(s, u, J, dt):
    p = VehicleParams(J=J)
    want, norm = reference_rk4(s, u, p, dt)
    try:
        got = integrate_step(s, u, p, dt)
    except StateBlowUpError:  # a rate that changes fast within the step moves |q| too
        assert abs(norm - 1.0) > 0.99e-6
        return
    for name, g, w, start in zip("x v q omega".split(),
                                 (x_of(got), v_of(got), np.array(got[6:10]), omega_of(got)),
                                 want, (x_of(s), v_of(s), np.array(s[6:10]), omega_of(s))):
        scale = max(np.max(np.abs(w)), np.max(np.abs(start)))
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, name


def ortho_errors(R):
    """max|R^T R - I| in float dot products and in exact rational arithmetic.
    numpy's R.T @ R can read about 1e-15 for the same R: BLAS rounds its sums
    differently."""
    rows = R.tolist()
    as_float = max(abs(sum(r[i] * r[j] for r in rows) - (i == j))
                   for i in range(3) for j in range(3))
    q = [[Fraction(x) for x in r] for r in rows]
    exact = max(abs(sum(r[i] * r[j] for r in q) - (i == j)) for i in range(3) for j in range(3))
    return as_float, float(exact)


@settings(max_examples=200, deadline=None)
@given(states, inputs, dts)
def test_step_keeps_a_unit_quaternion_and_an_orthonormal_rotation(s, u, dt):
    """After every step |q| is 1 within 2 eps, w >= 0, and R(q) is orthonormal
    within 2e-15 (9 eps), in float and in exact arithmetic."""
    try:
        out = integrate_step(s, u, P, dt)
    except StateBlowUpError:
        return
    q = [Fraction(c) for c in out[6:10]]
    assert abs(sum(c * c for c in q) - 1) <= 4 * EPS  # |q|^2 - 1 is 2 (|q| - 1)
    assert out[6] >= 0.0
    as_float, exact = ortho_errors(R_of(out))
    assert as_float <= 2e-15 and exact <= 2e-15


@EXAMPLES
@given(quaternions, vec3(1.0).filter(lambda a: np.linalg.norm(a) > 0.1),
       st.floats(1e-4, 0.01))
def test_step_rejects_a_rate_that_turns_too_far(q, axis, dt):
    """A body rate that turns the vehicle 1 rad in one step raises; 0.3 rad does
    not. The norm guard fires near 0.46 rad, where RK4 moves |q| by 1e-6."""
    p = VehicleParams(J=(0.0034, 0.0034, 0.0053))
    R = Rotation.from_quat(q).as_matrix()
    for turn, raises in ((1.0, True), (0.3, False)):
        omega = turn / dt * axis / np.linalg.norm(axis)
        s = body_state(x=np.zeros(3), v=np.zeros(3), R=R, omega=omega)
        if raises:
            with pytest.raises(StateBlowUpError):
                integrate_step(s, control_input(f=0.0), p, dt)
        else:
            integrate_step(s, control_input(f=0.0), p, dt)


@EXAMPLES
@given(quaternions, st.integers(0, 2))
def test_renormalize_rejects_nonpositive_det(q, i):
    """A reflection (one row negated, det -1) is orthonormal but no rotation, and
    has no quaternion; a singular matrix (one row zero) is neither."""
    R = Rotation.from_quat(q).as_matrix()
    R[i] = -R[i]
    with pytest.raises(ValueError, match="not a rotation"):
        body_state(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3))
    R[i] = 0.0
    with pytest.raises(ValueError, match="not a rotation"):
        body_state(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3))


# -- the scalar controller tick against numpy ---------------------------------------

def reference_rotation_from_thrust_dir(b3, yaw):
    b3 = b3 / np.linalg.norm(b3)
    b2 = np.cross(b3, [np.cos(yaw), np.sin(yaw), 0.0])
    if np.linalg.norm(b2) < 1e-8:
        b2 = np.cross(b3, [-np.sin(yaw), np.cos(yaw), 0.0])
    b2 = b2 / np.linalg.norm(b2)
    return np.column_stack([np.cross(b2, b3), b2, b3])


def reference_position_loop(s, target, integral, prev_e_v, held_R_d, cfg, p, dt):
    """The position loop toward target = (x_d, yaw_d) with numpy arrays:
    (f, R_d, integral, e_v, f_vec, a_cmd)."""
    x_d, yaw_d = target
    e_v = cfg.k_p * (np.array(x_d) - x_of(s)) - v_of(s)
    integral = np.clip(integral + e_v * dt, -cfg.integral_limit, cfg.integral_limit)
    d_e_v = np.zeros(3) if prev_e_v is None else (e_v - prev_e_v) / dt
    a_cmd = cfg.k_v * e_v + cfg.k_vi * integral + cfg.k_vd * d_e_v
    f_vec = p.g * E3 - a_cmd
    norm = np.linalg.norm(f_vec)
    if norm < 1e-6:
        R_d = np.eye(3) if held_R_d is None else held_R_d
    else:
        R_d = reference_rotation_from_thrust_dir(f_vec / norm, yaw_d)
    f = float(np.clip(p.m * float(f_vec @ (R_of(s) @ E3)), 0.0, cfg.max_thrust))
    return f, R_d, integral, e_v, f_vec, a_cmd


def reference_moment(R, omega, R_d, p, cfg):
    M = R_d.T @ R - R.T @ R_d
    e_R = 0.5 * np.array([M[2, 1], M[0, 2], M[1, 0]])  # vee
    gyro = np.cross(omega, np.diag(p.J) @ omega)
    return -cfg.k_r * e_R - cfg.k_omega * omega + gyro, (cfg.k_r * e_R, cfg.k_omega * omega, gyro)


def assert_close(name, got, want, *terms):
    """Within 1e-12 of the largest magnitude among the result and the terms it sums."""
    scale = max(np.max(np.abs(t)) for t in (want, *terms))
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale, name


@st.composite
def controller_cases(draw):
    """A state, a target (x_d, yaw_d) and a controller state. In the 'degenerate' case the
    commanded acceleration cancels gravity (no thrust direction); in the
    'parallel' case the thrust direction is horizontal along the heading yaw.
    Both start from a zero integral and no previous e_v, so a_cmd = (k_v + k_vi dt) e_v."""
    s = draw(moderate_states)
    case = draw(st.sampled_from(["free", "degenerate", "parallel"]))
    yaw = draw(st.floats(-np.pi, np.pi))
    held = draw(st.none() | quaternions.map(lambda q: Rotation.from_quat(q).as_matrix()))
    cs = ControllerState() if held is None else ControllerState(held_R_d=tuple(held.ravel().tolist()))
    if case == "free":
        x_d = x_of(s) + draw(vec3(100.0))
        cs = dataclasses.replace(
            cs, integral=tuple(draw(vec3(CFG.integral_limit)).tolist()),
            prev_e_v=draw(st.none() | vec3(100.0).map(lambda a: tuple(a.tolist()))))
    else:
        c = 0.0 if case == "degenerate" else draw(st.floats(0.5, 20.0))
        a_cmd = np.array([-c * np.cos(yaw), -c * np.sin(yaw), P.g])
        e_v = a_cmd / (CFG.k_v + CFG.k_vi / CFG.position_rate)
        x_d = x_of(s) + (e_v + v_of(s)) / CFG.k_p
    return case, s, (tuple(x_d.tolist()), yaw), cs, held


@EXAMPLES
@given(controller_cases(), inertias)
def test_controller_tick_matches_numpy(case_data, J):
    case, s, target, cs, held = case_data
    p = VehicleParams(J=J)
    dt = 1.0 / CFG.position_rate
    cs2 = position_loop(s, *target, cs, CFG, p, dt)
    f, R_d = cs2.held_f, np.reshape(cs2.held_R_d, (3, 3))
    u = step_controller(s, cs2, CFG, p)
    want_f, want_R_d, want_int, want_e_v, f_vec, a_cmd = reference_position_loop(
        s, target, np.array(cs.integral), None if cs.prev_e_v is None else np.array(cs.prev_e_v),
        held, CFG, p, dt)
    norm = np.linalg.norm(f_vec)
    if case == "degenerate":
        assert norm < 1e-6
        assert np.array_equal(R_d, np.eye(3) if held is None else held)
    elif case == "parallel":
        assert R_d[2, 1] > 0.99  # b2 = b3 x (-sin yaw, cos yaw, 0) is about e3
    cond = 1.0 if norm < 1e-6 else max(1.0, np.max(np.abs(a_cmd)) / norm)
    assert_close("f", f, want_f, p.m * norm)
    assert_close("R_d", R_d, want_R_d, cond)
    assert_close("integral", cs2.integral, want_int, np.array(cs.integral), want_e_v * dt)
    assert_close("e_v", cs2.prev_e_v, want_e_v, CFG.k_p * (np.array(target[0]) - x_of(s)), v_of(s))
    want_tau, terms = reference_moment(R_of(s), omega_of(s), want_R_d, p, CFG)
    assert_close("tau", u[1:], want_tau, *terms, CFG.k_r * cond)
    assert u[0] == f


# -- the named-float tick against the generator tick, bit for bit ----------------------
# Verbatim copies of the tick as it was written with generators, zip and numpy tolist()
# calls: the named-float rewrite must change no float operation.

def oracle_rotation_from_thrust_dir(b3, yaw):
    b2 = cross3(b3, (math.cos(yaw), math.sin(yaw), 0.0))
    n2 = math.hypot(*b2)
    if n2 < 1e-8:  # thrust direction parallel to heading; use the other axis
        b2 = cross3(b3, (-math.sin(yaw), math.cos(yaw), 0.0))
        n2 = math.hypot(*b2)
    b2 = [c / n2 for c in b2]
    b1 = cross3(b2, b3)
    return (b1[0], b2[0], b3[0], b1[1], b2[1], b3[1], b1[2], b2[2], b3[2])


def oracle_position_loop(s, target, cs, cfg, p, dt):
    (x_d, yaw_d), lim = target, cfg.integral_limit
    e_v = [cfg.k_p * (xd - x) - v for xd, x, v in zip(x_d, s[:3], s[3:6])]
    integral = tuple(min(max(i + e * dt, -lim), lim) for i, e in zip(cs.integral, e_v))
    d_e_v = (0.0, 0.0, 0.0) if cs.prev_e_v is None else [
        (e - q) / dt for e, q in zip(e_v, cs.prev_e_v)]
    a0, a1, a2 = (cfg.k_v * e + cfg.k_vi * i + cfg.k_vd * d
                  for e, i, d in zip(e_v, integral, d_e_v))
    f_vec = (-a0, -a1, p.g - a2)  # desired specific force g e3 - a_cmd along body-z
    norm = math.hypot(*f_vec)
    R_d = cs.held_R_d if norm < 1e-6 else oracle_rotation_from_thrust_dir(
        [c / norm for c in f_vec], yaw_d)
    r02, r12, r22 = quaternion_to_rotation(s[6:10])[2::3]  # body-z is the third column of R
    f = min(max(p.m * (f_vec[0] * r02 + f_vec[1] * r12 + f_vec[2] * r22), 0.0), cfg.max_thrust)
    return ControllerState(integral=integral, prev_e_v=tuple(e_v), held_f=f, held_R_d=R_d)


def oracle_attitude_moment(e_R, omega, p, cfg):
    gyro = cross3(omega, [j * w for j, w in zip(p.J, omega)])
    return tuple(-cfg.k_r * e - cfg.k_omega * w + g for e, w, g in zip(e_R, omega, gyro))


def oracle_step_controller(s, cs, cfg, p):
    omega = s[10:]
    R = quaternion_to_rotation(s[6:10])
    tau = oracle_attitude_moment(_rotation_error(R, cs.held_R_d), omega, p, cfg)
    return (cs.held_f, *tau)


def oracle_distance(w, x):
    n0, n1, n2 = w.normal
    x0, x1, x2 = x
    return (n0 * x0 + n1 * x1 + n2 * x2) - w.offset


def oracle_detect_contact(s, w, p, t=0.0):
    n0, n1, n2 = w.normal
    v0, v1, v2 = s[3:6]
    if oracle_distance(w, s[:3]) <= p.r_contact and v0 * n0 + v1 * n1 + v2 * n2 < 0.0:
        return CollisionEvent(t_c=float(t), x_c=x_of(s), v_c=v_of(s), normal=-np.array(w.normal))
    return None


def hexes(*values):
    """The bit patterns of floats and of float sequences, -0.0 kept apart from 0.0."""
    return [float.hex(v) if isinstance(v, float) else [float.hex(c) for c in v] for v in values]


def event_bits(ev):
    return None if ev is None else hexes(ev.t_c, ev.x_c.tolist(), ev.v_c.tolist(),
                                         ev.normal.tolist())


def tick_bits(cs, u, ev):
    return (hexes(cs.integral, cs.prev_e_v or (), cs.held_f, cs.held_R_d),
            hexes(u[0], u[1:]), event_bits(ev))


@settings(max_examples=300, deadline=None)
@given(controller_cases(), inertias, vec3(1.0).filter(lambda n: np.linalg.norm(n) > 1e-3),
       st.sampled_from([0.0, -0.0]) | st.floats(-0.01, 0.01), st.floats(0.0, 10.0))
def test_named_float_tick_is_bit_identical_to_generator_tick(case_data, J, normal, gap, t):
    """position_loop, step_controller (on the drawn held R_d or identity, and on the new
    one) and detect_contact (on a wall gap off touching contact) give the generator
    tick's bits: every ControllerState field, f and tau, and the event or None."""
    _, s, target, cs, _ = case_data
    p, dt = VehicleParams(J=J), 1.0 / CFG.position_rate
    unit = np.asarray(normal) / np.linalg.norm(normal)
    w = Wall(normal=normal, offset=float(unit @ x_of(s)) - p.r_contact - gap)
    for held in (cs, position_loop(s, *target, cs, CFG, p, dt)):
        assert tick_bits(held, step_controller(s, held, CFG, p), None) == tick_bits(
            held, oracle_step_controller(s, held, CFG, p), None)
    new = position_loop(s, *target, cs, CFG, p, dt)
    old = oracle_position_loop(s, target, cs, CFG, p, dt)
    assert tick_bits(new, step_controller(s, new, CFG, p), detect_contact(s, w, p, t)) == \
        tick_bits(old, oracle_step_controller(s, old, CFG, p), oracle_detect_contact(s, w, p, t))


# -- the scalar contact step against numpy --------------------------------------------

def reference_contact_translation(s, l2, ld2, w, u, p, dt):
    """Position and velocity after a contact step with numpy vectors: the free
    step's x and v with their wall-normal parts replaced by the arm's, and the
    magnitudes each is computed from (free x and coord; free v and l_dot)."""
    free = integrate_step(s, u, p, dt)
    n = np.array(w.normal)
    n_in = -n
    coord = w.offset + (p.r_contact - l2)
    x2 = x_of(free) + (coord - float(n @ x_of(free))) * n
    v2 = v_of(free) - float(v_of(free) @ n_in) * n_in + ld2 * n_in
    return x2, v2, (x_of(free), coord), (v_of(free), ld2)


# every component at least 0.1 in magnitude before normalization: no axis-aligned wall
oblique_normals = st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=3,
                           max_size=3).map(lambda m: np.array(m) / np.linalg.norm(m))
oblique_walls = st.builds(Wall, normal=oblique_normals, offset=st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(moderate_states, arms, oblique_walls,
       st.builds(control_input, f=st.floats(0.0, 50.0), tau=vec3(0.1)), dts)
def test_contact_step_matches_numpy(s, a, w, u, dt):
    got, got_l, got_l_dot, exited = contact_constrained_step(s, *a, w, u, P, SPRING, phi(dt), dt)
    l2, ld2, want_exited = advance_arm(*a, phi(dt), SPRING)
    assert (got_l, got_l_dot, exited) == (l2, ld2, want_exited)
    want_x, want_v, x_terms, v_terms = reference_contact_translation(s, l2, ld2, w, u, P, dt)
    assert_close("x", x_of(got), want_x, *x_terms)
    assert_close("v", v_of(got), want_v, *v_terms)
    free = integrate_step(s, u, P, dt)
    assert got[6:] == free[6:]  # q and omega come from the one free step


@settings(max_examples=200, deadline=None)
@given(states_near_origin, arms,
       st.builds(Wall, normal=vec3(1.0).filter(lambda n: np.linalg.norm(n) > 1e-3),
                 offset=st.floats(-1.0, 1.0)),
       st.builds(control_input, f=st.floats(0.0, 50.0), tau=vec3(0.1)), dts,
       st.floats(-0.02, 0.02))
def test_contact_step_does_not_depend_on_the_start_normal_position(s, a, w, u, dt, d):
    """The step replaces x and v along the normal from the arm, so a start d off
    touching contact gives the same step to rounding: the run loop needs no snap."""
    def step_from(gap):
        n = np.array(w.normal)
        start = (*(x_of(s) + (gap - (float(n @ x_of(s)) - w.offset)) * n).tolist(), *s[3:])
        return contact_constrained_step(start, *a, w, u, P, SPRING, phi(dt), dt)

    touching, shifted = step_from(P.r_contact), step_from(P.r_contact + d)
    assert np.allclose(x_of(shifted[0]), x_of(touching[0]), rtol=0.0, atol=1e-14)
    assert np.allclose(v_of(shifted[0]), v_of(touching[0]), rtol=0.0, atol=1e-14)
    assert shifted[0][6:] == touching[0][6:]  # q and omega
    assert shifted[1:] == touching[1:]  # the arm state and exited


def oracle_contact_constrained_step(s, l, l_dot, w, u, p, sp, phi, dt):
    """Verbatim copy of the contact step as it was written with slices of the free
    state and a star-unpacked rebuild."""
    n0, n1, n2 = w.normal
    l2, ld2, exited = advance_arm(l, l_dot, phi, sp)

    # the one free step gives q, omega and the tangential x and v: attitude does not
    # depend on translation, and the free acceleration depends only on q(t)
    free = integrate_step(s, u, p, dt)
    x0, x1, x2, v0, v1, v2 = free[:6]
    c = (w.offset + (p.r_contact - l2)) - (n0 * x0 + n1 * x1 + n2 * x2)
    vn = (v0 * n0 + v1 * n1 + v2 * n2) + ld2  # keep the tangential v, then l_dot into the wall
    y = (x0 + c * n0, x1 + c * n1, x2 + c * n2, v0 - vn * n0, v1 - vn * n1, v2 - vn * n2,
         *free[6:])
    if not all(map(math.isfinite, y[:6])):
        raise StateBlowUpError("non-finite state after contact step")

    return y, l2, ld2, exited


def contact_bits(step, *args):
    """The bits of a contact step's new y, l and l_dot, and exited; or its exception."""
    try:
        s, l, l_dot, exited = step(*args)
    except StateBlowUpError as exc:
        return "StateBlowUpError", str(exc)
    return hexes(s, l, l_dot), exited


# non-finite arm states, and finite offsets and arm states whose sums overflow, end in
# the contact step's own StateBlowUpError: the free step before it sees none of them (a
# wall refuses a non-finite offset when it is built)
blowups = st.sampled_from([math.inf, -math.inf, math.nan, 1.797e308, -1.797e308])


@settings(max_examples=300, deadline=None)
@given(moderate_states,
       arms | st.tuples(st.floats(0.0, SPRING.l_max) | blowups, st.floats(-5.0, 5.0) | blowups),
       oblique_walls | st.builds(Wall, normal=oblique_normals, offset=blowups.filter(math.isfinite)),
       st.builds(control_input, f=st.floats(0.0, 50.0), tau=vec3(0.1)), dts)
@example(hover([0.0, 0.0, 0.0]), (0.0, math.nan), WALL,
         control_input(f=10.0), 1e-3)
def test_named_float_contact_step_is_bit_identical_to_sliced_step(s, a, w, u, dt):
    """contact_constrained_step, which unpacks the free state once and builds one tuple,
    gives the old step's bits: y, the arm state and exited, or the same StateBlowUpError."""
    args = (s, *a, w, u, P, SPRING, phi(dt), dt)
    assert contact_bits(contact_constrained_step, *args) == \
        contact_bits(oracle_contact_constrained_step, *args)


# -- the run loop's schedule over whole configs -----------------------------------------

def due(i, k, dt, rate):
    """Whether step i, at t = i*dt, is at or after tick k's time k/rate (the 1e-9 tick rule)."""
    return i * dt * rate > k - 1e-9


def first_step(i, k, dt, rate):
    return due(i, k, dt, rate) and (i == 0 or not due(i - 1, k, dt, rate))


def traced_run(cfg):
    """Run cfg; return the log, the steps run, the step of each attitude tick with
    its thrust, the step of each position tick, and the contact steps. Every
    physics step makes one integrate_step call, contact steps included, so the
    calls made so far are the index of the current step."""
    steps, att, pos, contact = [0], [], [], set()

    def stepping(*args):
        steps[0] += 1
        return integrate_step(*args)

    def attitude_tick(*args):
        u = step_controller(*args)
        att.append((steps[0], u[0]))
        return u

    def position_tick(*args):
        pos.append(steps[0])
        return position_loop(*args)

    def contact_step(*args):
        contact.add(steps[0])
        return collision.contact_constrained_step(*args)

    with mock.patch.object(scenario, "integrate_step", stepping), \
            mock.patch.object(collision, "integrate_step", stepping), \
            mock.patch.object(scenario, "step_controller", attitude_tick), \
            mock.patch.object(scenario, "position_loop", position_tick), \
            mock.patch.object(scenario, "contact_constrained_step", contact_step):
        log = scenario.run_scenario(cfg)
    return log, steps[0], att, pos, contact


def tracked_steps(cfg, n):
    """The steps the run loop tracks, read off the same run logged at every step:
    from the first step after the first contact (from step 0 without a contact)
    the last step farther than SETTLE_RADIUS from the setpoint and the step after
    it, and the step farthest from the wall (only after a contact)."""
    dense = scenario.run_scenario(dataclasses.replace(cfg, log_interval=cfg.dt)).data[:n]
    col = {name: i for i, name in enumerate(COLUMNS)}
    x, xd = dense[:, col["x1"]:col["x3"] + 1], dense[:, col["xd1"]:col["xd3"] + 1]
    touched = np.flatnonzero(dense[:, col["contact"]])
    start = 0
    if len(touched):
        after = [i for i in range(touched[0], n) if not dense[i, col["contact"]]]
        if not after:
            return set()
        start = after[0]
    e = x - xd
    far = np.flatnonzero(e[start:, 0] ** 2 + e[start:, 1] ** 2 + e[start:, 2] ** 2
                         > SETTLE_RADIUS ** 2)
    out = {start + far[-1], start + far[-1] + 1} if len(far) else set()
    if len(touched):
        n0, n1, n2 = -np.array(cfg.wall.normal)
        out.add(start + int(np.argmin(x[start:, 0] * n0 + x[start:, 1] * n1 + x[start:, 2] * n2)))
    return out


@st.composite
def scheduled_configs(draw):
    """Short runs with random valid loop rates, physics step and log interval,
    in either contact mode, with or without a wall the default start reaches."""
    dt = draw(st.floats(2e-4, 5e-3))
    rates = sorted(draw(st.lists(st.floats(10.0, 1.0 / dt), min_size=2, max_size=2)))
    return ScenarioConfig(
        mode=draw(st.sampled_from([Foldable, Rigid]))(),
        controller=ControllerConfig(position_rate=rates[0], attitude_rate=rates[1]),
        wall=draw(st.sampled_from([None, Wall(normal=[-1.0, 0.0, 0.0], offset=-0.16)])),
        duration=draw(st.floats(0.02, 0.12)), dt=dt,
        log_interval=dt * draw(st.floats(1.0, 20.0)))


@settings(max_examples=40, deadline=None)
@given(scheduled_configs())
def test_run_loop_schedules_every_tick_on_the_step_clock(cfg):
    log, n, att, pos, contact = traced_run(cfg)
    dt, ctl = cfg.dt, cfg.controller
    assert n == int(round(cfg.duration / dt)) or log.aborted

    # attitude tick k at the first step at or after k/attitude_rate, none missed
    att_steps = [i for i, _ in att]
    assert all(first_step(i, k, dt, ctl.attitude_rate) for k, i in enumerate(att_steps))
    # one tick per multiple of 1/rate up to the last step's time (n-1)*dt; the
    # benchmark's count ceil(n*dt*rate - 1e-9) agrees unless a multiple falls
    # inside the last step, a tick the first-step rule never fires
    fired = math.ceil((n - 1) * dt * ctl.attitude_rate + 1e-9)
    assert len(att) == fired
    if not (n - 1) * dt * ctl.attitude_rate < fired < n * dt * ctl.attitude_rate:
        assert fired == math.ceil(n * dt * ctl.attitude_rate - 1e-9)

    # position tick k on the first attitude tick at or after k/position_rate
    # that follows tick k-1, none missed; thrust changes only on position ticks
    rate = ctl.position_rate
    assert set(pos) <= set(att_steps)
    for k, i in enumerate(pos):
        earlier = pos[k - 1] if k else -1
        assert due(i, k, dt, rate)
        assert not any(earlier < a < i and due(a, k, dt, rate) for a in att_steps)
    assert not any(a > (pos[-1] if pos else -1) and due(a, len(pos), dt, rate) for a in att_steps)
    assert all(f == g for (i, f), (_, g) in zip(att[1:], att) if i not in pos)

    # grid row k at the first step at or after k*log_interval; t = step*dt exactly,
    # and the final row is at the steps run
    t = log.column("t")
    rows = t if log.aborted else t[:-1]
    row_steps = [int(round(x / dt)) for x in rows]
    assert [i * dt for i in row_steps] == rows.tolist()
    grid = []
    for i in range(n):
        if due(i, len(grid), dt, 1.0 / cfg.log_interval):
            grid.append(i)
    assert all(first_step(i, k, dt, 1.0 / cfg.log_interval) for k, i in enumerate(grid))
    assert len(grid) == math.ceil((n - 1) * dt / cfg.log_interval + 1e-9)
    assert set(grid) <= set(row_steps)
    if not log.aborted:
        assert t[-1] == n * dt
    # every contact step is a row flagged 1, every other row is flagged 0; a row off
    # the grid is a contact step, the step after one, a tracked step, or the abort
    flagged = [i for i, c in zip(row_steps, log.column("contact")) if c]
    assert flagged == sorted(contact)
    extra = set(row_steps) - set(grid) - contact - {i + 1 for i in contact}
    assert extra <= tracked_steps(cfg, n) | ({n - 1} if log.aborted else set())

    again = scenario.run_scenario(cfg)
    assert again.to_csv() == log.to_csv()
    assert [(e.x_c.tolist(), e.v_c.tolist()) for e in again.events] == [
        (e.x_c.tolist(), e.v_c.tolist()) for e in log.events]


# -- metrics read at the steps that decide them --------------------------------------

@st.composite
def wall_runs(draw):
    """The default vehicle and gains flying level at 0.5-3 m/s toward a setpoint
    past a wall whose normal is up to 40 degrees off the approach, 0.02-0.3 m
    ahead, with a random spring that the physics step resolves, in either mode."""
    speed = draw(st.floats(0.5, 3.0))
    tilt, turn = np.radians(draw(st.floats(0.0, 40.0))), draw(st.floats(-np.pi, np.pi))
    into = np.array([np.cos(tilt), np.sin(tilt) * np.cos(turn), np.sin(tilt) * np.sin(turn)])
    start = np.array([0.0, 0.0, -1.0])
    gap = draw(st.floats(0.02, 0.3))
    return ScenarioConfig(
        spring=SpringParams(b_s=draw(st.floats(0.0, 100.0)), k_s=draw(st.floats(100.0, 5000.0))),
        mode=draw(st.sampled_from([Foldable, Rigid]))(),
        wall=Wall(normal=-into, offset=float(-into @ start) - P.r_contact - gap),
        start_position=start, start_velocity=[speed, 0.0, 0.0], setpoint=start + [3.0, 0.0, 0.0],
        duration=draw(st.floats(0.5, 3.0)))


_RECOLLISION = ScenarioConfig(controller=ControllerConfig(gamma1=1e-6, gamma2=1e-6),
                              start_velocity=[2.5, 0.0, 0.0], duration=3.0)


@settings(max_examples=25, deadline=None)
@given(wall_runs())
@example(_RECOLLISION)  # a second touch, which wall_runs rarely draws
@example(dataclasses.replace(_RECOLLISION, mode=Rigid()))
def test_metrics_do_not_depend_on_log_interval(cfg):
    """Every Metrics field, None-ness included, is the same at log intervals of
    1, 5, 7.3 and 20 physics steps, and after the CSV round trip."""
    metrics = []
    for steps in (1.0, 5.0, 7.3, 20.0):
        run_cfg = dataclasses.replace(cfg, log_interval=steps * cfg.dt)
        log = scenario.run_scenario(run_cfg)
        assert log.events
        metrics.append(compute_metrics(log, run_cfg))
        assert compute_metrics(SimLog.from_csv(io.StringIO(log.to_csv())), run_cfg) == metrics[-1]
    assert all(m == metrics[0] for m in metrics)
