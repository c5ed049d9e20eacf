"""Property tests over random states and random scenario configs.

`integrate_step` and `contact_constrained_step` build their results without
`BodyState.__post_init__`, so each must either raise StateBlowUpError or
return a state that the validating constructor accepts. The scalar
`integrate_step` matches a quaternion RK4 written with numpy arrays, leaves a
unit quaternion with w >= 0 whose rotation is orthonormal, and raises on a body
rate that turns too far in one step; the constructor rejects a reflection.
The scalar controller tick matches the position loop and attitude moment
written with numpy arrays, and the scalar contact step matches its numpy
vector form against walls that are not axis-aligned.
A scenario config saved to YAML and loaded back must reproduce every field,
and its run, cut short, ends at its last step or aborts with a diagnostic.
Over random loop rates, physics steps and log intervals, the run loop fires
every tick and log row on the integer step clock, and a repeated run is
byte-identical.
"""
import dataclasses
import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad import collision, scenario
from foldquad.arm import ArmState, SpringParams, advance_arm
from foldquad.collision import Foldable, Rigid, Wall, contact_constrained_step
from foldquad.control import (ControllerConfig, ControllerState, Setpoint, position_loop,
                              step_controller)
from foldquad.dynamics import (BodyState, ControlInput, StateBlowUpError, VehicleParams,
                               integrate_step)
from foldquad.scenario import ScenarioConfig

E3 = np.array([0.0, 0.0, 1.0])
P = VehicleParams()
CFG = ControllerConfig()
SPRING = SpringParams()
WALL = Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3)
EXAMPLES = settings(max_examples=50, deadline=None)
EPS = np.finfo(float).eps


def vec3(bound):
    return st.lists(st.floats(-bound, bound), min_size=3, max_size=3).map(np.array)


quaternions = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4).filter(
    lambda q: np.linalg.norm(q) > 0.1)
states = st.builds(
    lambda x, v, q, w: BodyState(x=x, v=v, R=Rotation.from_quat(q).as_matrix(), omega=w),
    vec3(100.0), vec3(100.0), quaternions, vec3(1e3))
inputs = st.builds(ControlInput, f=st.floats(0.0, 1e3), tau=vec3(1e3))
dts = st.floats(0.0, 0.01, exclude_min=True)
arms = st.builds(ArmState, l=st.floats(0.0, SPRING.l_max), l_dot=st.floats(-5.0, 5.0))


def assert_fully_valid(s):
    BodyState(x=s.x, v=s.v, R=s.R, omega=s.omega)


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
        out, _, _ = contact_constrained_step(s, a, WALL, u, P, SPRING, dt)
    except StateBlowUpError:
        return
    assert_fully_valid(out)


def spd_inertia(moments, fractions):
    """Diagonally dominant, hence SPD: each product of inertia is at most 0.3
    of the smaller of its two moments (0 gives a diagonal J)."""
    J = np.diag(moments)
    for (i, j), f in zip(((0, 1), (0, 2), (1, 2)), fractions):
        J[i, j] = J[j, i] = f * min(moments[i], moments[j])
    return J


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
            m=draw(pos), g=draw(pos), l_arm=draw(st.floats(0.05, 0.14)),
            J=spd_inertia(draw(st.lists(st.floats(1e-4, 1e-1), min_size=3, max_size=3)),
                          draw(st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3)))),
        # |root| * dt stays below 0.4, inside RK4's stability region
        spring=SpringParams(b_s=draw(st.floats(0.0, 200.0)), k_s=draw(st.floats(1.0, 5000.0)),
                            l_max=l_max, delta_l=l_max * draw(st.floats(0.01, 0.9))),
        mode=draw(st.sampled_from([Foldable, Rigid]))(),
        restitution=draw(st.floats(0.0, 1.0)),
        controller=ControllerConfig(**gains, position_rate=rates[0], attitude_rate=rates[1]),
        wall=draw(st.none() | st.builds(
            Wall, normal=vec3(1.0).filter(lambda n: np.linalg.norm(n) > 1e-3),
            offset=st.floats(-10.0, 10.0))),
        start_position=draw(vec3(100.0)), start_velocity=draw(vec3(10.0)),
        start_yaw=draw(st.floats(-np.pi, np.pi)), setpoint=draw(vec3(100.0)),
        setpoint_yaw=draw(st.floats(-np.pi, np.pi)), duration=draw(st.floats(0.01, 10.0)),
        dt=dt, log_interval=dt * draw(st.floats(1.0, 20.0)),
    )


def assert_same_fields(a, b, where="cfg"):
    assert type(a) is type(b), where
    if dataclasses.is_dataclass(a):
        for f in dataclasses.fields(a):
            assert_same_fields(getattr(a, f.name), getattr(b, f.name), f"{where}.{f.name}")
    elif isinstance(a, np.ndarray):
        assert np.array_equal(a, b), where
    else:
        assert a == b, where


@EXAMPLES
@given(configs())
def test_config_yaml_round_trip_reproduces_every_field(cfg):
    loaded = ScenarioConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
    assert_same_fields(loaded, cfg)


@settings(max_examples=40, deadline=None)
@given(configs())
def test_any_config_runs_to_the_end_or_aborts_with_a_diagnostic(cfg):
    """A valid config, cut to at most 0.2 s, either runs all n steps, its last log
    row at n*dt, or aborts with one of the two documented diagnostics. Any other
    exception fails the test."""
    cfg = dataclasses.replace(cfg, duration=min(cfg.duration, 0.2))
    log = scenario.run_scenario(cfg)
    if log.aborted:
        assert log.diagnostic.startswith(("state blow-up at t=", "contact timeout at t="))
    else:
        assert log.column("t")[-1] == int(round(cfg.duration / cfg.dt)) * cfg.dt


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
    def f(x, v, q, w):
        qdot = 0.5 * np.concatenate(([-(q[1:] @ w)], q[0] * w + np.cross(q[1:], w)))
        return (v, p.g * E3 - (u.f / p.m) * (rotation(q) @ E3), qdot,
                np.linalg.solve(p.J, u.tau - np.cross(w, p.J @ w)))

    y0 = (s.x, s.v, np.array(s.y[6:10]), s.omega)
    k1 = f(*y0)
    k2 = f(*(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = f(*(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = f(*(y + dt * k for y, k in zip(y0, k3)))
    x, v, q, w = (y + dt / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                  for y, d1, d2, d3, d4 in zip(y0, k1, k2, k3, k4))
    n = np.linalg.norm(q)
    return (x, v, q / np.copysign(n, q[0]), w), n


inertias = st.builds(spd_inertia, st.lists(st.floats(1e-3, 1e-1), min_size=3, max_size=3),
                     st.lists(st.floats(-0.3, 0.3), min_size=3, max_size=3))
moderate_states = st.builds(
    lambda x, v, q, w: BodyState(x=x, v=v, R=Rotation.from_quat(q).as_matrix(), omega=w),
    vec3(100.0), vec3(100.0), quaternions, vec3(20.0))


@EXAMPLES
@given(moderate_states, st.builds(ControlInput, f=st.floats(0.0, 50.0), tau=vec3(0.1)),
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
                                 (got.x, got.v, np.array(got.y[6:10]), got.omega),
                                 want, (s.x, s.v, np.array(s.y[6:10]), s.omega)):
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
    q = [Fraction(c) for c in out.y[6:10]]
    assert abs(sum(c * c for c in q) - 1) <= 4 * EPS  # |q|^2 - 1 is 2 (|q| - 1)
    assert out.y[6] >= 0.0
    as_float, exact = ortho_errors(out.R)
    assert as_float <= 2e-15 and exact <= 2e-15


@EXAMPLES
@given(quaternions, vec3(1.0).filter(lambda a: np.linalg.norm(a) > 0.1),
       st.floats(1e-4, 0.01))
def test_step_rejects_a_rate_that_turns_too_far(q, axis, dt):
    """A body rate that turns the vehicle 1 rad in one step raises; 0.3 rad does
    not. The norm guard fires near 0.46 rad, where RK4 moves |q| by 1e-6."""
    p = VehicleParams(J=np.diag([0.0034, 0.0034, 0.0053]))
    R = Rotation.from_quat(q).as_matrix()
    for turn, raises in ((1.0, True), (0.3, False)):
        omega = turn / dt * axis / np.linalg.norm(axis)
        s = BodyState(x=np.zeros(3), v=np.zeros(3), R=R, omega=omega)
        if raises:
            with pytest.raises(StateBlowUpError):
                integrate_step(s, ControlInput(f=0.0), p, dt)
        else:
            integrate_step(s, ControlInput(f=0.0), p, dt)


@EXAMPLES
@given(quaternions, st.integers(0, 2))
def test_renormalize_rejects_nonpositive_det(q, i):
    """A reflection (one row negated, det -1) is orthonormal but no rotation, and
    has no quaternion; a singular matrix (one row zero) is neither."""
    R = Rotation.from_quat(q).as_matrix()
    R[i] = -R[i]
    with pytest.raises(ValueError, match="not a rotation"):
        BodyState(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3))
    R[i] = 0.0
    with pytest.raises(ValueError, match="not a rotation"):
        BodyState(x=np.zeros(3), v=np.zeros(3), R=R, omega=np.zeros(3))


# -- the scalar controller tick against numpy ---------------------------------------

def reference_rotation_from_thrust_dir(b3, yaw):
    b3 = b3 / np.linalg.norm(b3)
    b2 = np.cross(b3, [np.cos(yaw), np.sin(yaw), 0.0])
    if np.linalg.norm(b2) < 1e-8:
        b2 = np.cross(b3, [-np.sin(yaw), np.cos(yaw), 0.0])
    b2 = b2 / np.linalg.norm(b2)
    return np.column_stack([np.cross(b2, b3), b2, b3])


def reference_position_loop(s, sp, integral, prev_e_v, held_R_d, cfg, p, dt):
    """The position loop with numpy arrays: (f, R_d, integral, e_v, f_vec, a_cmd)."""
    e_v = cfg.k_p * (sp.x_d - s.x) - s.v
    integral = np.clip(integral + e_v * dt, -cfg.integral_limit, cfg.integral_limit)
    d_e_v = np.zeros(3) if prev_e_v is None else (e_v - prev_e_v) / dt
    a_cmd = cfg.k_v * e_v + cfg.k_vi * integral + cfg.k_vd * d_e_v
    f_vec = p.g * E3 - a_cmd
    norm = np.linalg.norm(f_vec)
    if norm < 1e-6:
        R_d = np.eye(3) if held_R_d is None else held_R_d
    else:
        R_d = reference_rotation_from_thrust_dir(f_vec / norm, sp.yaw_d)
    f = float(np.clip(p.m * float(f_vec @ (s.R @ E3)), 0.0, cfg.max_thrust))
    return f, R_d, integral, e_v, f_vec, a_cmd


def reference_moment(R, omega, R_d, p, cfg):
    M = R_d.T @ R - R.T @ R_d
    e_R = 0.5 * np.array([M[2, 1], M[0, 2], M[1, 0]])  # vee
    gyro = np.cross(omega, p.J @ omega)
    return -cfg.k_r * e_R - cfg.k_omega * omega + gyro, (cfg.k_r * e_R, cfg.k_omega * omega, gyro)


def assert_close(name, got, want, *terms):
    """Within 1e-12 of the largest magnitude among the result and the terms it sums."""
    scale = max(np.max(np.abs(t)) for t in (want, *terms))
    assert np.max(np.abs(np.asarray(got) - want)) <= 1e-12 * scale, name


@st.composite
def controller_cases(draw):
    """A state, a controller state and a setpoint. In the 'degenerate' case the
    commanded acceleration cancels gravity (no thrust direction); in the
    'parallel' case the thrust direction is horizontal along the heading yaw.
    Both start from a zero integral and no previous e_v, so a_cmd = (k_v + k_vi dt) e_v."""
    s = draw(moderate_states)
    case = draw(st.sampled_from(["free", "degenerate", "parallel"]))
    yaw = draw(st.floats(-np.pi, np.pi))
    held = draw(st.none() | quaternions.map(lambda q: Rotation.from_quat(q).as_matrix()))
    cs = ControllerState() if held is None else ControllerState(held_R_d=tuple(held.ravel().tolist()))
    if case == "free":
        x_d = s.x + draw(vec3(100.0))
        cs = dataclasses.replace(
            cs, integral=tuple(draw(vec3(CFG.integral_limit)).tolist()),
            prev_e_v=draw(st.none() | vec3(100.0).map(lambda a: tuple(a.tolist()))))
    else:
        c = 0.0 if case == "degenerate" else draw(st.floats(0.5, 20.0))
        a_cmd = np.array([-c * np.cos(yaw), -c * np.sin(yaw), P.g])
        e_v = a_cmd / (CFG.k_v + CFG.k_vi / CFG.position_rate)
        x_d = s.x + (e_v + s.v) / CFG.k_p
    return case, s, Setpoint(x_d=x_d, yaw_d=yaw), cs, held


@EXAMPLES
@given(controller_cases(), inertias)
def test_controller_tick_matches_numpy(case_data, J):
    case, s, sp, cs, held = case_data
    p = VehicleParams(J=J)
    dt = 1.0 / CFG.position_rate
    cs2 = position_loop(s, sp, cs, CFG, p, dt)
    f, R_d = cs2.held_f, np.reshape(cs2.held_R_d, (3, 3))
    u = step_controller(s, cs2, CFG, p)
    want_f, want_R_d, want_int, want_e_v, f_vec, a_cmd = reference_position_loop(
        s, sp, np.array(cs.integral), None if cs.prev_e_v is None else np.array(cs.prev_e_v),
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
    assert_close("e_v", cs2.prev_e_v, want_e_v, CFG.k_p * (sp.x_d - s.x), s.v)
    want_tau, terms = reference_moment(s.R, s.omega, want_R_d, p, CFG)
    assert_close("tau", u.tau, want_tau, *terms, CFG.k_r * cond)
    assert u.f == f


# -- the scalar contact step against numpy --------------------------------------------

def reference_contact_translation(s, arm2, w, u, p, dt):
    """Position and velocity after a contact step with numpy vectors: the free
    step's x and v with their wall-normal parts replaced by the arm's, and the
    magnitudes each is computed from (free x and coord; free v and l_dot)."""
    free = integrate_step(s, u, p, dt)
    n_in = -w.normal
    coord = w.offset + (p.r_contact - arm2.l)
    x2 = free.x + (coord - float(w.normal @ free.x)) * w.normal
    v2 = free.v - float(free.v @ n_in) * n_in + arm2.l_dot * n_in
    return x2, v2, (free.x, coord), (free.v, arm2.l_dot)


# every component at least 0.1 in magnitude before normalization: no axis-aligned wall
oblique_normals = st.lists(st.floats(0.1, 1.0) | st.floats(-1.0, -0.1), min_size=3,
                           max_size=3).map(lambda m: np.array(m) / np.linalg.norm(m))
oblique_walls = st.builds(Wall, normal=oblique_normals, offset=st.floats(-10.0, 10.0))


@settings(max_examples=200, deadline=None)
@given(moderate_states, arms, oblique_walls,
       st.builds(ControlInput, f=st.floats(0.0, 50.0), tau=vec3(0.1)), dts)
def test_contact_step_matches_numpy(s, a, w, u, dt):
    got, arm2, exited = contact_constrained_step(s, a, w, u, P, SPRING, dt)
    l2, ld2, _, want_exited = advance_arm(a.l, a.l_dot, SPRING, dt)
    assert (arm2.l, arm2.l_dot, exited) == (l2, ld2, want_exited)
    want_x, want_v, x_terms, v_terms = reference_contact_translation(s, arm2, w, u, P, dt)
    assert_close("x", got.x, want_x, *x_terms)
    assert_close("v", got.v, want_v, *v_terms)
    free = integrate_step(s, u, P, dt)
    assert got.y[6:] == free.y[6:]  # q and omega come from the one free step


# -- the run loop's schedule over whole configs -----------------------------------------

def due(i, k, dt, rate):
    """Whether step i, at t = i*dt, is at or after tick k's time k/rate (the 1e-9 tick rule)."""
    return i * dt * rate > k - 1e-9


def first_step(i, k, dt, rate):
    return due(i, k, dt, rate) and (i == 0 or not due(i - 1, k, dt, rate))


def traced_run(cfg):
    """Run cfg; return the log, the steps run, the step of each attitude tick with
    its thrust, and the step of each position tick. Every physics step makes
    one integrate_step call, contact steps included, so the calls made so far
    are the index of the current step."""
    steps, att, pos = [0], [], []

    def stepping(*args):
        steps[0] += 1
        return integrate_step(*args)

    def attitude_tick(*args):
        u = step_controller(*args)
        att.append((steps[0], u.f))
        return u

    def position_tick(*args):
        pos.append(steps[0])
        return position_loop(*args)

    with mock.patch.object(scenario, "integrate_step", stepping), \
            mock.patch.object(collision, "integrate_step", stepping), \
            mock.patch.object(scenario, "step_controller", attitude_tick), \
            mock.patch.object(scenario, "position_loop", position_tick):
        log = scenario.run_scenario(cfg)
    return log, steps[0], att, pos


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
    log, n, att, pos = traced_run(cfg)
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

    # log row k at the first step at or after k*log_interval; t = step*dt exactly,
    # and the final row is at the steps run
    t = log.column("t")
    rows = t if log.aborted else t[:-1]
    row_steps = [int(round(x / dt)) for x in rows]
    assert [i * dt for i in row_steps] == rows.tolist()
    assert all(first_step(i, k, dt, 1.0 / cfg.log_interval) for k, i in enumerate(row_steps))
    assert len(rows) == math.ceil((n - 1) * dt / cfg.log_interval + 1e-9)
    if not log.aborted:
        assert t[-1] == n * dt

    again = scenario.run_scenario(cfg)
    assert again.to_csv() == log.to_csv()
    assert [(e.x_c.tolist(), e.v_c.tolist()) for e in again.events] == [
        (e.x_c.tolist(), e.v_c.tolist()) for e in log.events]
