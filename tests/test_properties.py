"""Property tests: every state an integrator returns passes full validation.

`integrate_step` and `contact_constrained_step` build their results without
`BodyState.__post_init__`, so each must either raise StateBlowUpError or
return a state that the validating constructor accepts.
"""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial.transform import Rotation

from foldquad.arm import ArmState, SpringParams
from foldquad.collision import Wall, contact_constrained_step
from foldquad.dynamics import (BodyState, ControlInput, StateBlowUpError, VehicleParams,
                               integrate_step)

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
