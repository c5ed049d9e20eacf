"""Property tests over random states and random scenario configs.

`integrate_step` and `contact_constrained_step` build their results without
`BodyState.__post_init__`, so each must either raise StateBlowUpError or
return a state that the validating constructor accepts. A scenario config
saved to YAML and loaded back must reproduce every field.
"""
import dataclasses

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad.arm import ArmState, SpringParams
from foldquad.collision import Foldable, Rigid, Wall, contact_constrained_step
from foldquad.control import ControllerConfig
from foldquad.dynamics import (BodyState, ControlInput, StateBlowUpError, VehicleParams,
                               integrate_step)
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
        # Wall divides its normal by the norm again when it is loaded: at most an ulp
        tol = 1e-15 if where == "cfg.wall.normal" else 0.0
        assert np.allclose(a, b, rtol=0.0, atol=tol), where
    else:
        assert a == b, where


@EXAMPLES
@given(configs())
def test_config_yaml_round_trip_reproduces_every_field(cfg):
    loaded = ScenarioConfig.from_dict(yaml.safe_load(yaml.safe_dump(cfg.to_dict())))
    assert_same_fields(loaded, cfg)
