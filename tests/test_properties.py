"""Property tests over random states and random scenario configs.

`integrate_step` and `contact_constrained_step` build their results without
`BodyState.__post_init__`, so each must either raise StateBlowUpError or
return a state that the validating constructor accepts. The scalar
`integrate_step` matches an RK4 written with numpy matrices, and
`renormalize_rotation` returns orthonormal, idempotent rotations or raises.
A scenario config saved to YAML and loaded back must reproduce every field.
"""
import dataclasses
from fractions import Fraction

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad.arm import ArmState, SpringParams
from foldquad.collision import Foldable, Rigid, Wall, contact_constrained_step
from foldquad.control import ControllerConfig
from foldquad.dynamics import (E3, BodyState, ControlInput, StateBlowUpError, VehicleParams,
                               hat, integrate_step, renormalize_rotation)
from foldquad.scenario import ScenarioConfig

P = VehicleParams()
SPRING = SpringParams()
WALL = Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3)
EXAMPLES = settings(max_examples=50, deadline=None)


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
    rates = sorted(draw(st.lists(st.floats(10.0, 1000.0), min_size=2, max_size=2)))
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


# -- the scalar step against numpy, and renormalization ---------------------------------

def reference_rk4(s, u, p, dt):
    """Classical RK4 on (x, v, R, omega) with numpy matrices, then the SVD polar factor."""
    def f(x, v, R, w):
        return (v, p.g * E3 - (u.f / p.m) * (R @ E3), R @ hat(w),
                np.linalg.solve(p.J, u.tau - np.cross(w, p.J @ w)))

    y0 = (s.x, s.v, s.R, s.omega)
    k1 = f(*y0)
    k2 = f(*(y + 0.5 * dt * k for y, k in zip(y0, k1)))
    k3 = f(*(y + 0.5 * dt * k for y, k in zip(y0, k2)))
    k4 = f(*(y + dt * k for y, k in zip(y0, k3)))
    x, v, R, w = (y + dt / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
                  for y, d1, d2, d3, d4 in zip(y0, k1, k2, k3, k4))
    U, _, Vt = np.linalg.svd(R)
    return x, v, U @ Vt, w


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
    got = integrate_step(s, u, p, dt)
    want = reference_rk4(s, u, p, dt)
    for name, g, w, start in zip("x v R omega".split(), (got.x, got.v, got.R, got.omega),
                                 want, (s.x, s.v, s.R, s.omega)):
        scale = max(np.max(np.abs(w)), np.max(np.abs(start)))
        assert np.max(np.abs(g - w)) <= 1e-12 * scale, name


def ortho_errors(R):
    """max|R^T R - I| in float dot products (the order renormalize_rotation
    checks) and in exact rational arithmetic. numpy's R.T @ R can read about
    1e-15 for the same R: BLAS rounds its sums differently."""
    rows = R.tolist()
    as_float = max(abs(sum(r[i] * r[j] for r in rows) - (i == j))
                   for i in range(3) for j in range(3))
    q = [[Fraction(x) for x in r] for r in rows]
    exact = max(abs(sum(r[i] * r[j] for r in q) - (i == j)) for i in range(3) for j in range(3))
    return as_float, float(exact)


drifted = st.builds(lambda q, k, M: Rotation.from_quat(q).as_matrix() + 10.0 ** k * M,
                    quaternions, st.floats(-16.0, -2.0),
                    st.lists(st.floats(-1.0, 1.0), min_size=9, max_size=9).map(
                        lambda m: np.reshape(m, (3, 3))))


@settings(max_examples=200, deadline=None)
@given(drifted)
def test_renormalize_is_orthonormal_and_bit_idempotent(R):
    out = renormalize_rotation(R)
    as_float, exact = ortho_errors(out)
    assert as_float < 1e-15 and exact < 2e-15
    assert np.array_equal(renormalize_rotation(out), out)


@EXAMPLES
@given(quaternions, st.integers(0, 8), st.sampled_from([np.nan, np.inf, -np.inf]))
def test_renormalize_rejects_non_finite(q, i, bad):
    R = Rotation.from_quat(q).as_matrix()
    R.flat[i] = bad
    with pytest.raises(ValueError):
        renormalize_rotation(R)


@EXAMPLES
@given(quaternions, st.integers(0, 2))
def test_renormalize_rejects_nonpositive_det(q, i):
    """A reflection (one row negated, det -1) and a singular matrix (one row
    zero, det 0) are not rotations."""
    R = Rotation.from_quat(q).as_matrix()
    R[i] = -R[i]
    with pytest.raises(ValueError):
        renormalize_rotation(R)
    R[i] = 0.0
    with pytest.raises(ValueError):
        renormalize_rotation(R)
