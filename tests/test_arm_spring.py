"""Folding-arm spring model: closed form, contact integration, identification."""
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foldquad import arm as arm_module
from foldquad import collision, scenario
from foldquad.arm import (ContactTimeoutError, DisplacementTrace, SpringParams,
                          _has_oscillation, _modal_response, _recurrence_start,
                          _response_jacobian, _transition, advance_arm, analytic_response,
                          check_rk4_stable, contact_step_limit, fit_spring_params,
                          simulate_contact)
from foldquad.dynamics import MAX_STEPS, MIN_DT, VehicleParams, control_input, hover, integrate_step

NOMINAL = SpringParams(b_s=30.0, k_s=500.0)


def random_underdamped(rng, l_max=1e6, delta_l=1e-9):
    wn = rng.uniform(8.0, 40.0)
    zeta = rng.uniform(0.1, 0.8)
    return SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn,
                        l_max=l_max, delta_l=delta_l)


# -- parameters ---------------------------------------------------------------

def test_derived_frequencies():
    p = NOMINAL
    assert abs(p.omega_n - np.sqrt(500.0)) < 1e-12
    assert abs(p.zeta - 30.0 / (2.0 * np.sqrt(500.0))) < 1e-12
    assert p.is_underdamped


def test_param_validation():
    with pytest.raises(ValueError):
        SpringParams(b_s=-1.0)
    with pytest.raises(ValueError):
        SpringParams(k_s=0.0)
    with pytest.raises(ValueError):
        SpringParams(delta_l=0.05, l_max=0.03)
    for bad in (math.nan, math.inf, -math.inf):  # nan < 0 is False: the checks must say so
        with pytest.raises(ValueError, match="b_s"):
            SpringParams(b_s=bad)
        with pytest.raises(ValueError, match="k_s"):
            SpringParams(k_s=bad)


def test_spring_derivative():
    """The exact arm step's slope at dt -> 0 (forward differences at dt and dt/2,
    Richardson-extrapolated) is (l_dot, l_ddot), l_ddot = -b_s l_dot - k_s l."""
    l, l_dot, h = 0.01, 0.5, 1e-6

    def slope(dt):
        l2, d2, _ = advance_arm(l, l_dot, _transition(NOMINAL.b_s, NOMINAL.k_s, dt), NOMINAL)
        return (l2 - l) / dt, (d2 - l_dot) / dt

    (a0, a1), (b0, b1) = slope(h / 2), slope(h)
    ldot, lddot = 2.0 * a0 - b0, 2.0 * a1 - b1
    assert abs(ldot - 0.5) < 1e-9
    assert abs(lddot - (-30.0 * 0.5 - 500.0 * 0.01)) < 1e-9



def test_spring_params_store_plain_floats():
    p = SpringParams(b_s=np.float64(30.0), k_s=np.float64(500.0),
                     l_max=np.float64(0.03), delta_l=np.float64(0.002))
    for name in ("b_s", "k_s", "l_max", "delta_l"):
        assert type(getattr(p, name)) is float  # np.float64 subclasses float
    a, b = simulate_contact(1.43, p, dt=1e-4), simulate_contact(1.43, NOMINAL, dt=1e-4)
    assert (a.v_rb, a.duration, a.peak_l) == (b.v_rb, b.duration, b.peak_l)
    assert a.saturated == b.saturated


# -- analytic_response --------------------------------------------------------

def test_analytic_initial_condition():
    l, l_dot = analytic_response(1.4, NOMINAL, 0.0)
    assert l == 0.0
    assert abs(l_dot - 1.4) < 1e-12


def test_analytic_peak_nominal_params():
    p = NOMINAL
    t_pk = np.arctan2(p.omega_d, p.zeta * p.omega_n) / p.omega_d
    l_pk, l_dot_pk = analytic_response(1.4, p, t_pk)
    assert abs(t_pk - 0.050) < 0.002
    assert abs(l_pk - 0.029) < 0.001
    assert abs(l_dot_pk) < 1e-12  # rate vanishes at the peak


def test_analytic_first_zero_crossing():
    p = NOMINAL
    t_zc = np.pi / p.omega_d
    l, l_dot = analytic_response(1.4, p, t_zc)
    assert abs(l) < 1e-12
    expected = -1.4 * np.exp(-p.zeta * p.omega_n * np.pi / p.omega_d)
    assert abs(l_dot - expected) < 1e-12


def test_analytic_rejects_overdamped():
    with pytest.raises(ValueError):
        analytic_response(1.0, SpringParams(b_s=100.0, k_s=500.0), 0.1)


def _zeta_omega_n_response(v0, p, t):
    """The closed form in zeta and omega_n, the textbook form: an oracle for analytic_response."""
    t = np.asarray(t, dtype=float)
    wn, wd, zeta = p.omega_n, p.omega_d, p.zeta
    env = np.exp(-zeta * wn * t)
    l = (v0 / wd) * env * np.sin(wd * t)
    l_dot = v0 * env * (np.cos(wd * t) - (zeta * wn / wd) * np.sin(wd * t))
    return l, l_dot


@settings(deadline=None)
@given(wn=st.floats(8.0, 40.0), zeta=st.floats(0.0, 0.95), v0=st.floats(0.2, 2.0))
def test_modal_response_matches_the_zeta_omega_n_form(wn, zeta, v0):
    """The modal core (sigma = b_s/2, omega_d = sqrt(k_s - sigma^2)) gives the same l and
    l_dot as the zeta-omega_n form, over 1.2 damped periods at 1 ms, to 4e-15 of their
    largest magnitude: the two differ only in rounding."""
    p = SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn)
    t = np.arange(0.0, 1.2 * 2.0 * np.pi / p.omega_d, 1e-3)
    for got, want in zip(analytic_response(v0, p, t), _zeta_omega_n_response(v0, p, t)):
        assert np.max(np.abs(got - want)) <= 4e-15 * np.max(np.abs(want))


# -- simulate_contact ---------------------------------------------------------

def test_contact_matches_oracle_small_impact():
    """Unclamped rebound within 2% of the closed-form zero-crossing speed."""
    p = SpringParams(b_s=30.0, k_s=500.0, l_max=1e6, delta_l=1e-9)
    res = simulate_contact(0.2, p, dt=1e-4)
    expected = 0.2 * np.exp(-p.zeta * p.omega_n * np.pi / p.omega_d)
    assert abs(res.v_rb - expected) / expected < 0.02
    assert not res.saturated


def test_contact_nominal_impact_dissipative():
    res = simulate_contact(1.4, NOMINAL, dt=1e-3)
    assert 0.0 < res.v_rb < 1.4
    assert res.duration > 0.0
    assert res.peak_l <= NOMINAL.l_max


def test_contact_tiny_impact_peak():
    p = SpringParams(b_s=30.0, k_s=500.0, l_max=0.03, delta_l=1e-9)
    res = simulate_contact(0.01, p, dt=1e-4)
    t_pk = np.arctan2(p.omega_d, p.zeta * p.omega_n) / p.omega_d
    l_pk, _ = analytic_response(0.01, p, t_pk)
    assert abs(res.peak_l - l_pk) / l_pk < 0.01
    assert not res.saturated


def test_contact_clamp_saturates():
    # large impact drives the arm into the travel stop
    res = simulate_contact(3.0, NOMINAL, dt=1e-4)
    assert res.saturated
    assert res.peak_l == NOMINAL.l_max


def test_clamp_keeps_an_extending_rate():
    """A step that crosses l_max with the arm already extending keeps its
    outward rate: lossless, 1 rad per 1 ms step, l(2 ms) = sin(2)/1000 is past
    l_max = 8.8e-4 while l_dot = cos(2) < 0. The release that follows is the
    closed form from (l_max, cos 2), not the one from (l_max, 0)."""
    p, dt = SpringParams(b_s=0.0, k_s=1e6, l_max=8.8e-4, delta_l=1e-5), 1e-3
    phi = _transition(p.b_s, p.k_s, dt)
    p11, p12, p21, p22 = phi
    l1, d1, _ = advance_arm(0.0, 1.0, phi, p)
    assert p11 * l1 + p12 * d1 > p.l_max
    assert advance_arm(l1, d1, phi, p) == (p.l_max, p21 * l1 + p22 * d1, False)
    assert p21 * l1 + p22 * d1 == pytest.approx(math.cos(2.0), rel=1e-14, abs=0.0)
    # from (l_max, cos 2) the arm turns 1 rad per step and releases on step 4
    l3 = p.l_max * math.cos(2.0) + math.cos(2.0) * math.sin(2.0) / 1e3
    rate = -1e3 * p.l_max * math.sin(2.0) + math.cos(2.0) ** 2
    assert l3 <= p.delta_l
    res = simulate_contact(1.0, p, dt)
    assert res.duration == pytest.approx(4e-3, abs=1e-15) and res.saturated
    assert res.v_rb == pytest.approx(-rate, rel=1e-12, abs=0.0)


def test_contact_input_validation():
    with pytest.raises(ValueError):
        simulate_contact(0.0, NOMINAL)
    for dt in (0.0, 0.0101):  # ScenarioConfig.dt's bound, [MIN_DT, 0.01]
        with pytest.raises(ValueError, match="dt must be in"):
            simulate_contact(1.0, NOMINAL, dt=dt)
    for v in (math.nan, math.inf):
        with pytest.raises(ValueError, match="v_impact must be positive and finite"):
            simulate_contact(v, NOMINAL)


@pytest.mark.parametrize("dt", [5e-324, MIN_DT / 2])
def test_contact_refuses_a_subnormal_dt_as_integrate_step_does(dt):
    """A dt below MIN_DT is a ValueError with integrate_step's message, not an
    OverflowError from the step limit 1/dt."""
    with pytest.raises(ValueError, match="dt must be in") as arm_error:
        simulate_contact(1.0, NOMINAL, dt=dt)
    with pytest.raises(ValueError) as step_error:
        integrate_step(hover((0.0, 0.0, 0.0)), control_input(), VehicleParams(), dt)
    assert str(arm_error.value) == str(step_error.value)


def test_contact_refuses_a_dt_over_the_step_budget(monkeypatch):
    """A dt whose step limit exceeds MAX_STEPS is refused before the first step: at MIN_DT
    a contact could take about 4.5e307 steps. The arm is stubbed to release on its first
    step, so only the budget can refuse; 1e-7 s is one step over it, and 2e-7 s runs."""
    monkeypatch.setattr(arm_module, "advance_arm", lambda l, l_dot, phi, p: (0.0, -0.5, True))
    assert contact_step_limit(1e-7) == MAX_STEPS + 1
    for dt in (MIN_DT, 1e-7):
        with pytest.raises(ValueError, match=f"over the budget of {MAX_STEPS:,}"):
            simulate_contact(1.0, NOMINAL, dt=dt)
    assert simulate_contact(1.0, NOMINAL, dt=2e-7).duration == 2e-7


@pytest.mark.parametrize("b_s, k_s, dt, stable", [
    (30.0, 1e300, 1e-3, False),  # z ** 3 overflows
    (1e160, 500.0, 1e-3, False),  # b_s ** 2 overflows, and |R(z)| was nan
    (2.5e155, 500.0, 1e-155, True),  # b_s ** 2 overflows; scaled, z is about -2.5
    (2.9e155, 500.0, 1e-155, False),  # scaled, z is about -2.9: |R(z)| = 1.19
    (1e160, 500.0, 1e-200, True)])  # b_s dt = 1e-40
def test_rk4_check_decides_springs_whose_poles_overflow(b_s, k_s, dt, stable):
    """Where b_s^2 or z^3 overflows, the check decides in scaled form, with no
    OverflowError and with today's message."""
    spring = SpringParams(b_s=b_s, k_s=k_s)
    if stable:
        check_rk4_stable(spring, dt)
    else:
        with pytest.raises(ValueError, match=r"is unstable under RK4 at physics_dt="):
            check_rk4_stable(spring, dt)


def test_contact_timeout_guard():
    # a very soft spring has its first peak far beyond the 1 s guard
    soft = SpringParams(b_s=0.0, k_s=1.0, l_max=1e6, delta_l=1e-3)
    with pytest.raises(ContactTimeoutError):
        simulate_contact(1.0, soft, dt=1e-3)


def test_contact_keeps_no_per_step_storage():
    """A contact of about 20,000 steps allocates well under one float per step."""
    p = SpringParams(b_s=1.6, k_s=64.0, l_max=1e6, delta_l=1e-9)
    simulate_contact(2.0, p, dt=2e-5)  # warm-up: first-call allocations are not per step
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        res = simulate_contact(2.0, p, dt=2e-5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert round(res.duration / 2e-5) > 19_000
    assert peak - before < 64 * 1024


# -- the exact step -----------------------------------------------------------

@st.composite
def springs_and_steps(draw):
    """(b_s, k_s, dt) under-, critically, near-critically or over-damped, with
    k_s up to 1e12 and b_s dt up to 1e4."""
    k = 10.0 ** draw(st.floats(-2.0, 12.0))
    branch = draw(st.sampled_from(["under", "critical", "near", "over"]))
    if branch == "under":
        zeta = draw(st.floats(0.0, 1.0, exclude_max=True))
    elif branch == "near":
        zeta = 1.0 + draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(st.floats(-12.0, -3.0))
    else:
        zeta = 1.0 if branch == "critical" else 10.0 ** draw(st.floats(0.0, 6.0))
    b = 2.0 * zeta * math.sqrt(k)
    if branch == "critical":
        k = (0.5 * b) ** 2  # b^2 = 4k exactly in floats
    dt = 10.0 ** draw(st.floats(-6.0, -1.0))
    return b, k, (min(dt, 1e4 / b) if b > 0.0 else dt)


@settings(max_examples=400, deadline=None)
@given(springs_and_steps())
@example((2e6, 500.0, 1e-3))  # b_s dt = 2000: exp(b_s dt/2) alone overflows
@example((0.0, 6978305.848598664, 0.1))  # scipy's expm is off by 1.09x the bound here
def test_transition_matches_expm(case):
    """Phi(dt) equals exp(A dt) of the float inputs taken exactly, in 50-digit mpmath,
    in the energy coordinates (sqrt(k_s) l, l_dot), where |Phi| <= 1, to a bound that
    grows with |A dt| as the rounding of any float evaluation does. scipy's expm is
    no oracle here: its own error passes that bound at large sqrt(k_s) dt."""
    mpmath = pytest.importorskip("mpmath")
    b, k, dt = case
    got = np.reshape(_transition(b, k, dt), (2, 2))
    with mpmath.workdps(50):
        b_, k_, dt_ = (mpmath.mpf(c) for c in case)
        exact = mpmath.expm(mpmath.matrix([[0, dt_], [-k_ * dt_, -b_ * dt_]]))
        want = np.array(exact.tolist(), dtype=float)
    scale = np.array([[1.0, math.sqrt(k)], [1.0 / math.sqrt(k), 1.0]])
    tol = 64 * np.finfo(float).eps * (1.0 + math.sqrt(k) * dt + b * dt)
    assert np.all(np.isfinite(got))
    assert np.max(np.abs((got - want) * scale)) <= tol


def test_composed_exact_steps_match_closed_form():
    """100 steps of 1 ms from the impact equal analytic_response to 1e-14; with
    l_max at 1e6 and delta_l at 1e-9 neither clamp nor release acts."""
    rng = np.random.default_rng(11)
    springs = [SpringParams(b_s=30.0, k_s=500.0, l_max=1e6, delta_l=1e-9)]
    springs += [random_underdamped(rng) for _ in range(8)]
    for p in springs:
        l, l_dot = 0.0, 1.4
        phi = _transition(p.b_s, p.k_s, 1e-3)
        for i in range(1, 101):
            l, l_dot, _ = advance_arm(l, l_dot, phi, p)
            want_l, want_l_dot = analytic_response(1.4, p, i * 1e-3)
            assert l != p.l_max  # a clamped step leaves l at exactly l_max
            assert abs(l - want_l) <= 1e-14 and abs(l_dot - want_l_dot) <= 1e-14


def counting_advance_arm(monkeypatch):
    """Wrap advance_arm where simulate_contact and the contact step look it up;
    the returned list collects what each call returned."""
    calls = []

    def counted(*args):
        calls.append(advance_arm(*args))
        return calls[-1]

    monkeypatch.setattr(arm_module, "advance_arm", counted)
    monkeypatch.setattr(collision, "advance_arm", counted)
    return calls


@pytest.mark.parametrize("v", [0.5, 3.0])  # below and above arm saturation
def test_simulate_contact_makes_one_arm_step_per_step(monkeypatch, v):
    """The benchmark's arm step count is the advance_arm call count; peak_l and
    saturated equal the running max and `or` over those steps."""
    calls = counting_advance_arm(monkeypatch)
    res = simulate_contact(v, NOMINAL, dt=1e-4)
    assert len(calls) == round(res.duration / 1e-4)
    peak, sat = 0.0, False
    for l, _, _ in calls:
        peak, sat = max(peak, l), sat or l == NOMINAL.l_max
    assert (res.peak_l, res.saturated) == (peak, sat)
    assert res.saturated == (v > 1.5)


def test_foldable_run_makes_one_arm_step_per_contact_step(monkeypatch):
    calls = counting_advance_arm(monkeypatch)
    contact_steps = []

    def counted_step(*args):
        contact_steps.append(1)
        return collision.contact_constrained_step(*args)

    monkeypatch.setattr(scenario, "contact_constrained_step", counted_step)
    cfg = scenario.ScenarioConfig(duration=1.0)
    ev = scenario.run_scenario(cfg).events[0]
    n_arm_steps = len(calls)
    oracle = simulate_contact(float(ev.v_c @ ev.normal), cfg.spring, cfg.dt)
    assert n_arm_steps == len(contact_steps) == round(oracle.duration / cfg.dt) > 0


@pytest.mark.parametrize("dt, n", [(1e-3, 1001), (7e-4, 1429), (2e-3, 501)])
def test_run_and_arm_time_out_after_the_same_arm_steps(monkeypatch, dt, n):
    """A spring that does not release within the timeout: run_scenario and
    simulate_contact give up after the same number of arm steps."""
    slow = SpringParams(b_s=0.0, k_s=1.0)
    calls = counting_advance_arm(monkeypatch)
    with pytest.raises(ContactTimeoutError):
        simulate_contact(1.4, slow, dt)
    assert len(calls) == n == arm_module.contact_step_limit(dt)
    calls.clear()
    log = scenario.run_scenario(scenario.ScenarioConfig(spring=slow, dt=dt, duration=2.0))
    assert log.aborted and log.diagnostic.startswith("contact timeout")
    assert len(calls) == n


def test_transition_is_computed_once_per_contact(monkeypatch):
    """Phi(dt) depends only on (b_s, k_s, dt): simulate_contact and run_scenario
    each compute it once, and every arm step reuses it."""
    calls = []

    def counted(*args):
        calls.append(args)
        return _transition(*args)

    monkeypatch.setattr(arm_module, "_transition", counted)
    monkeypatch.setattr(scenario, "_transition", counted)
    res = simulate_contact(1.4, NOMINAL, dt=1e-4)
    assert res.duration > 2e-4 and calls == [(NOMINAL.b_s, NOMINAL.k_s, 1e-4)]
    calls.clear()
    cfg = scenario.ScenarioConfig(duration=1.0)
    log = scenario.run_scenario(cfg)
    assert log.events and log.column("contact").sum() > 2  # a foldable contact of many steps
    assert calls == [(cfg.spring.b_s, cfg.spring.k_s, cfg.dt)]


def reference_advance_arm(l, l_dot, p, dt):
    """Reference arm step: looks Phi(dt) up on every call and returns
    (l, l_dot, saturated, exited)."""
    p11, p12, p21, p22 = _transition(p.b_s, p.k_s, dt)
    l2, d2 = p11 * l + p12 * l_dot, p21 * l + p22 * l_dot
    saturated = l2 >= p.l_max
    if saturated:
        l2, d2 = p.l_max, min(d2, 0.0)
    exited = (l2 <= p.delta_l) and (d2 < 0.0)
    return l2, d2, saturated, exited


def reference_contact(v, p, dt):
    """simulate_contact on reference_advance_arm: (v_rb, duration, peak_l,
    saturated as the `or` of the steps' flags, trace l)."""
    l, l_dot, ls, sat = 0.0, float(v), [0.0], False
    for i in range(1, int(arm_module.CONTACT_TIMEOUT_S / dt) + 2):
        l, l_dot, saturated, exited = reference_advance_arm(l, l_dot, p, dt)
        ls.append(l)
        sat = sat or saturated
        if exited:
            return abs(l_dot), i * dt, max(ls), sat, ls
    raise ContactTimeoutError("reference contact did not release")


def clamp_either_side(draw, b, k, v, dt):
    """(p, saturate): a spring (b, k) that check_rk4_stable accepts at dt, with l_max
    below (saturate) or above the unclamped peak on the grid from l_dot = v, and
    delta_l below l_max."""
    try:
        check_rk4_stable(SpringParams(b_s=b, k_s=k), dt)
    except ValueError:
        assume(False)
    free = SpringParams(b_s=b, k_s=k, l_max=1e6, delta_l=1e-9)
    l, l_dot, peak = 0.0, v, 0.0
    phi = _transition(b, k, dt)
    for _ in range(int(1.0 / dt)):
        l, l_dot, _ = advance_arm(l, l_dot, phi, free)
        peak = max(peak, l)
        if l_dot < 0.0:
            break
    saturate = draw(st.booleans())
    l_max = peak * (draw(st.floats(0.2, 0.95)) if saturate else draw(st.floats(1.05, 3.0)))
    p = SpringParams(b_s=b, k_s=k, l_max=l_max, delta_l=l_max * draw(st.floats(0.01, 0.9)))
    return p, saturate


@st.composite
def contact_cases(draw):
    """An under- or overdamped spring, an impact speed and a dt for
    clamp_either_side."""
    dt = 10.0 ** draw(st.floats(-5.0, -3.0))
    k = 10.0 ** draw(st.floats(1.0, 4.5))
    zeta = draw(st.floats(0.0, 0.95) | st.floats(1.05, 3.0))
    v = draw(st.floats(0.01, 5.0))
    return (*clamp_either_side(draw, 2.0 * zeta * math.sqrt(k), k, v, dt), v, dt)


@settings(max_examples=60, deadline=None)
@given(contact_cases())
def test_simulate_contact_is_bit_identical_to_per_step_transition(case):
    """Phi computed once per contact gives the same floats as Phi looked up on
    every step: v_rb, duration, peak_l, saturated and the l of every arm step,
    bit for bit, or a timeout on both sides."""
    p, saturate, v, dt = case
    try:
        want = reference_contact(v, p, dt)
    except ContactTimeoutError:
        with pytest.raises(ContactTimeoutError):
            simulate_contact(v, p, dt)
        return
    with pytest.MonkeyPatch.context() as mp:  # a fresh recorder for each example
        calls = counting_advance_arm(mp)
        got = simulate_contact(v, p, dt)
    v_rb, duration, peak_l, saturated, ls = want
    assert [float.hex(x) for x in (got.v_rb, got.duration, got.peak_l)] == \
        [float.hex(x) for x in (v_rb, duration, peak_l)]
    assert got.saturated == saturated == saturate
    assert [float.hex(l) for l, _, _ in calls] == [float.hex(x) for x in ls[1:]]


# -- invariants ---------------------------------------------------------------

def test_energy_monotone_along_contact():
    p = NOMINAL
    l, l_dot = 0.0, 1.4
    energy = 0.5 * l_dot**2
    phi = _transition(p.b_s, p.k_s, 1e-3)
    for _ in range(400):
        l, l_dot, exited = advance_arm(l, l_dot, phi, p)
        e_new = 0.5 * l_dot**2 + 0.5 * p.k_s * l**2
        assert e_new <= energy * (1.0 + 1e-9)
        energy = e_new
        if exited:
            break


@st.composite
def arm_impacts(draw):
    """A spring that check_rk4_stable accepts at dt, and an impact speed whose
    unclamped peak on the grid lies above l_max (saturated) or below it."""
    dt = draw(st.floats(1e-4, 2e-3))
    b, k = draw(st.floats(0.0, 400.0)), draw(st.floats(1.0, 2e4))
    v = draw(st.floats(0.05, 5.0))
    return (*clamp_either_side(draw, b, k, v, dt), v, dt)


@settings(max_examples=200, deadline=None)
@given(arm_impacts())
def test_energy_never_rises_over_random_springs(case):
    """The exact step dissipates b_s l_dot^2 and the clamp only removes energy, so
    0.5 l_dot^2 + 0.5 k_s l^2 never rises across advance_arm steps beyond rounding
    (4 eps relative), on both sides of saturation, until release."""
    p, saturate, v, dt = case
    l, l_dot = 0.0, v
    energy, hit = 0.5 * v * v, False
    phi = _transition(p.b_s, p.k_s, dt)
    for _ in range(int(1.0 / dt)):
        l, l_dot, exited = advance_arm(l, l_dot, phi, p)
        hit = hit or l == p.l_max
        e_new = 0.5 * l_dot**2 + 0.5 * p.k_s * l**2
        assert e_new <= energy * (1.0 + 4 * np.finfo(float).eps)
        energy = e_new
        if exited:
            break
    assert hit == saturate


def test_rebound_strictly_below_impact():
    for v in [0.05, 0.2, 0.8, 1.4, 2.5]:
        res = simulate_contact(v, NOMINAL, dt=1e-4)
        assert res.v_rb < v


def test_rebound_linearity():
    p = SpringParams(b_s=30.0, k_s=500.0, l_max=1e6, delta_l=1e-9)
    u = 0.3
    r1 = simulate_contact(u, p, dt=1e-4)
    r2 = simulate_contact(2.0 * u, p, dt=1e-4)
    assert abs(r2.v_rb / r1.v_rb - 2.0) < 1e-6


def test_lossless_spring_limit():
    p = SpringParams(b_s=0.0, k_s=500.0, l_max=1e6, delta_l=1e-9)
    res = simulate_contact(1.0, p, dt=1e-5)
    assert abs(res.v_rb - 1.0) < 1e-4


# -- fitting ------------------------------------------------------------------

def _synthetic_trace(v0=1.4, p=NOMINAL, n=350, dt=1e-3):
    t = np.arange(n) * dt
    l, _ = analytic_response(v0, p, t)
    return t, l


def test_fit_noise_free_round_trip():
    """The template passed in supplies only the result's l_max and delta_l."""
    t, l = _synthetic_trace()
    res = fit_spring_params(DisplacementTrace(t=t, l=l), SpringParams(l_max=1e6, delta_l=1e-9))
    assert res.converged and (res.params.l_max, res.params.delta_l) == (1e6, 1e-9)
    assert abs(res.params.b_s - 30.0) / 30.0 < 0.01
    assert abs(res.params.k_s - 500.0) / 500.0 < 0.01


def test_fit_makes_no_finite_difference_evaluations(monkeypatch):
    """One _modal_response call per distinct point, shared by its residual and its Jacobian:
    3 on this fit (the start's v0, then two points of the search), where a call per residual
    and per Jacobian would make 5 and a 2-point finite-difference Jacobian 9."""
    points = []
    real = arm_module._modal_response

    def counted(sigma, omega_d, v0, t):
        points.append((sigma, omega_d, v0))
        return real(sigma, omega_d, v0, t)

    t, l = _synthetic_trace()
    monkeypatch.setattr(arm_module, "_modal_response", counted)
    res = fit_spring_params(DisplacementTrace(t=t, l=l))
    assert len(points) == len(set(points)) == 3
    assert res.converged
    for got, want in [(res.params.b_s, 30.0), (res.params.k_s, 500.0), (res.v0, 1.4)]:
        assert abs(got - want) <= 1e-8 * want


@pytest.mark.parametrize("noise, n", [(0.0, 1), (0.01, 3)])
def test_fit_evaluates_each_jacobian_point_once(monkeypatch, noise, n):
    """MINPACK asks for the Jacobian once per point it accepts, and the fit computes no other:
    1 on the clean trace above and 3 with 1% noise, each at its own point. scipy's leastsq
    also called the Jacobian at the start to check its shape, before MINPACK called it there
    again."""
    points = []
    real = arm_module._response_jacobian

    def counted(theta, *args):
        points.append(tuple(map(float, theta)))
        return real(theta, *args)

    t, l = _synthetic_trace()
    l = l + noise * np.max(l) * np.random.default_rng(1).standard_normal(len(t))
    monkeypatch.setattr(arm_module, "_response_jacobian", counted)
    assert fit_spring_params(DisplacementTrace(t=t, l=l)).converged
    assert len(points) == len(set(points)) == n


def _check_clean_fit(t, v0, p):
    l, _ = analytic_response(v0, p, t)
    res = fit_spring_params(DisplacementTrace(t=t, l=l))
    assert res.converged
    for got, want in [(res.params.b_s, p.b_s), (res.params.k_s, p.k_s), (res.v0, v0)]:
        assert abs(got - want) <= 1e-8 * want


def _clean_fit_grid(wn, zeta):
    p = SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn)
    return np.arange(0.0, 1.2 * 2.0 * np.pi / p.omega_d, 1e-3), p


@settings(deadline=None)
@given(wn=st.floats(8.0, 40.0), zeta=st.floats(0.1, 0.9), v0=st.floats(0.2, 2.0))
def test_fit_recovers_a_clean_trace(wn, zeta, v0):
    """Over 1.2 damped periods at 1 ms, from the trace alone, the fit recovers b_s, k_s and
    v0 to 1e-8 relative (8.7e-16 at worst over 500 draws)."""
    t, p = _clean_fit_grid(wn, zeta)
    _check_clean_fit(t, v0, p)


def test_fit_recovers_a_well_damped_spring_off_a_uniform_grid():
    """b_s 15, k_s 100 (zeta 0.75) with one sample dropped. A search in (b_s, k_s) that kept
    off b_s^2 >= 3.999 k_s by a penalty stopped on that wall, at b_s 25.87 and k_s 167.38,
    from the guess (20, 300), and reported it converged."""
    t = np.arange(0.0, 0.6, 1e-3)
    p = SpringParams(b_s=15.0, k_s=100.0)
    _check_clean_fit(np.delete(t, 300), 1.0, p)


@settings(deadline=None)
@given(wn=st.floats(8.0, 40.0), zeta=st.floats(0.1, 0.9), v0=st.floats(0.2, 2.0),
       gap=st.sampled_from(["one_dropped", "five_dropped", "jitter"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_fit_recovers_a_non_uniform_clean_trace(wn, zeta, v0, gap, seed):
    """The same traces off a uniform grid: one or five samples dropped, or each time after the
    first moved by up to 0.3 ms. The start comes from the trace resampled onto a uniform grid,
    and the fit recovers b_s, k_s and v0 to 1e-8 relative (4.7e-16 at worst over 1,500 draws)."""
    t, p = _clean_fit_grid(wn, zeta)
    rng = np.random.default_rng(seed)
    if gap == "jitter":
        t[1:] += rng.uniform(-3e-4, 3e-4, len(t) - 1)  # the first sample stays at the touch
    else:
        t = np.delete(t, rng.choice(np.arange(1, len(t) - 1), 1 if gap == "one_dropped" else 5,
                                    replace=False))
    _check_clean_fit(t, v0, p)


@settings(deadline=None)
@given(wn=st.floats(8.0, 40.0), zeta=st.floats(0.01, 0.95), v0=st.floats(0.2, 2.0),
       periods=st.floats(1.2, 3.0))
def test_recurrence_start_is_exact_on_a_clean_uniform_trace(wn, zeta, v0, periods):
    """With no guess and no search, the recurrence of a clean trace sampled at 1 ms over 1.2
    or more damped periods gives sigma, omega_d and v0 to 1e-6 relative (about 3e-14 on 5,000
    random draws)."""
    p = SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn)
    t = np.arange(0.0, periods * 2.0 * np.pi / p.omega_d, 1e-3)
    l, _ = analytic_response(v0, p, t)
    start = _recurrence_start(t, l, np.diff(t))
    assert start is not None
    for got, want in zip(start, (0.5 * p.b_s, p.omega_d, v0)):
        assert abs(got - want) <= 1e-6 * want


def _lstsq_start(t, l, steps):
    """_recurrence_start with each lag's (a, b) from np.linalg.lstsq on the two lag columns, as
    the start solved them before the 2x2 normal equations: the oracle of the closed form."""
    if steps.max() - steps.min() > 1e-9 * steps.max():
        grid = np.linspace(t[0], t[-1], len(t))
        t, l = grid, np.interp(grid, t, l)
    n, m, best = len(l), 1, None
    while 3 * m < n:
        a, b = np.linalg.lstsq(np.column_stack([l[m:n - m], l[:n - 2 * m]]), l[2 * m:],
                               rcond=None)[0]
        if b < 0.0 and abs(a) < 2.0 * math.sqrt(-b):
            angle, lag = math.acos(0.5 * a / math.sqrt(-b)), m * float(t[-1]) / (n - 1)
            if best is None or abs(angle - 1.0) < abs(best[1] * best[2] - 1.0):
                best = -0.5 * math.log(-b) / lag, angle / lag, lag
            if angle > 1.0:
                break
        m *= 2
    if best is not None and best[0] >= 0.0:
        phi = _modal_response(best[0], best[1], 1.0, t)[0]
        v0 = float(phi @ l) / float(phi @ phi)
        if v0 > 0.0:
            return best[0], best[1], v0
    k = int(np.argmax(l))
    if k == 0:
        raise ValueError("the trace's largest sample is its first")
    omega_d = math.atan2(0.8, 0.6) / float(t[k])
    return 0.75 * omega_d, omega_d, float(l[k]) * omega_d


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("l, want", [
    (np.r_[np.zeros(49), 1.0], (14.193294153085901, 18.924392204114536, 18.924392204114536)),
    (0.75 * (-0.5) ** np.arange(49.0, -1.0, -1.0),
     (14.193294153085901, 18.924392204114536, 14.193294153085901))],
    ids=["zero_lag_columns", "proportional_lag_columns"])
def test_recurrence_start_skips_a_degenerate_lag(l, want):
    """At every lag of these 50-sample windows the 2x2 normal equations are singular (det 0):
    the columns are all zeros, or l[k+1] = -2 l[k] exactly. Each lag is skipped, with no
    division by zero, and the start comes from the peak time, as from the lstsq start, whose
    minimum-norm (a, b) gives no damped pair here: a = b = 0, or b > 0."""
    t = np.arange(50) * 1e-3
    assert _recurrence_start(t, l, np.diff(t)) == _lstsq_start(t, l, np.diff(t)) == want


@pytest.mark.parametrize("k", [-300, -30, 30, 300])
def test_recurrence_start_does_not_depend_on_the_unit_of_l(k):
    """The lags read l times a power of two that puts its peak in [0.5, 1), so the start of
    l 2^k is that of l, bit for bit, with v0 times 2^k. Unscaled, det = pp qq - pq^2 goes as
    l^4: at 2^-300 (about 1e-90) it underflows to 0 and at 2^300 it overflows, every lag is
    skipped, and the start fell back to the peak time (sigma 13.9 against 15)."""
    t, l = _synthetic_trace()
    steps = np.diff(t)
    sigma, omega_d, v0 = _recurrence_start(t, l, steps)
    assert abs(sigma - 15.0) <= 1e-12 * 15.0
    assert _recurrence_start(t, np.ldexp(l, k), steps) == (sigma, omega_d, math.ldexp(v0, k))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("k", [-1000, -600, -300, 300, 600, 1000])
def test_fit_does_not_depend_on_the_unit_of_l(k):
    """The README trace times 2^k fits the same b_s and k_s bit for bit, with v0 and the
    residual norm times 2^k, and converges. The 3/4-energy rule compares amp |fvec| with
    |l| / 2, both times 2^-e for amp's exponent e: unscaled, |l| underflowed to 0 at 2^-600
    and 2^-1000 (converged False), and at 2^600 and 2^1000 it overflowed to inf with a
    RuntimeWarning, where any residual would have passed."""
    t, l = _synthetic_trace(v0=1.0, n=600)
    want = fit_spring_params(DisplacementTrace(t=t, l=l))
    res = fit_spring_params(DisplacementTrace(t=t, l=np.ldexp(l, k)))
    assert res.converged and want.converged
    assert (res.params.b_s, res.params.k_s) == (want.params.b_s, want.params.k_s)
    assert (res.v0, res.residual_norm) == (math.ldexp(want.v0, k),
                                           math.ldexp(want.residual_norm, k))


@settings(max_examples=60, deadline=None)
@given(wn=st.floats(2.0, 400.0), zeta=st.floats(0.02, 0.95), v0=st.floats(0.05, 3.0),
       noise=st.floats(0.0, 0.05), dt=st.floats(1e-4, 2e-3), periods=st.floats(1.2, 3.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_closed_form_start_matches_the_lstsq_start(wn, zeta, v0, noise, dt, periods, seed):
    """The start's normal equations against lstsq on a noisy trace of 12 to 2,000 samples over
    up to 3 damped periods: sigma, omega_d and v0 agree to 1e-12 relative (1.2e-13 at worst
    over 21,000 searched draws). The fits from either start converge alike and give b_s, k_s
    and v0 to 1e-10: the search stops at its tolerances, not at the exact minimum, and a
    start one ulp off ended 1.8e-12 apart at zeta 0.93 with 3.5% noise (7e-14 at worst over
    15,000 random draws at zeta 0.8-0.95). Where one fit raises, so does the other."""
    p = SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn)
    t = np.arange(min(max(12, math.ceil(periods * 2.0 * np.pi / p.omega_d / dt)), 2000)) * dt
    l, _ = analytic_response(v0, p, t)
    trace = DisplacementTrace(t=t, l=l + noise * np.max(np.abs(l))
                              * np.random.default_rng(seed).standard_normal(len(t)))
    try:
        res = fit_spring_params(trace)
    except ValueError:
        with mock.patch.object(arm_module, "_recurrence_start", _lstsq_start), \
                pytest.raises(ValueError):
            fit_spring_params(trace)
        return
    steps = np.diff(t)
    for got, ref in zip(_recurrence_start(t, trace.l, steps), _lstsq_start(t, trace.l, steps)):
        assert abs(got - ref) <= 1e-12 * abs(ref)
    with mock.patch.object(arm_module, "_recurrence_start", _lstsq_start):
        want = fit_spring_params(trace)
    assert res.converged == want.converged
    for got, ref in [(res.params.b_s, want.params.b_s), (res.params.k_s, want.params.k_s),
                     (res.v0, want.v0)]:
        assert abs(got - ref) <= 1e-10 * abs(ref)


def _leastsq_fit(trace):
    """fit_spring_params as it called scipy's leastsq, which checks the residual's and the
    Jacobian's shapes at x0 and adds a covariance before it returns MINPACK's lmder result:
    the oracle of the direct lmder call. Returns (b_s, k_s, v0, residual_norm, converged)."""
    from scipy.optimize import leastsq

    if len(trace) < 10 or not _has_oscillation(trace.l):
        raise ValueError("too short, or no oscillation")
    t = trace.t - trace.t[0]
    amp = float(trace.l[np.argmax(np.abs(trace.l))])
    if amp < 0.0:
        raise ValueError("largest deflection negative")
    sigma, omega_d, v0 = _recurrence_start(t, trace.l, np.diff(t))
    x0 = [math.sqrt(max(sigma, 0.01 * omega_d)), float(omega_d), math.sqrt(v0)]

    def response(x):
        return _modal_response(x[0] * x[0], x[1], x[2] * x[2], t)

    def jacobian(x):
        sigma, omega_d, v0 = x[0] * x[0], x[1], x[2] * x[2]
        l, l_dot = response(x)
        return (np.array([-t * l, (t * (l_dot + sigma * l) - l) / omega_d, l / v0]).T
                * [2.0 * x[0] / amp, 1.0 / amp, 2.0 * x[2] / amp]).T

    sol, _, info, _, ier = leastsq(
        lambda x: (response(x)[0] - trace.l) / amp, x0, full_output=True, col_deriv=True,
        ftol=1e-8, xtol=1e-8, gtol=1e-5, maxfev=2000, Dfun=jacobian)
    sigma, omega_d, fvec = float(sol[0]) ** 2, abs(float(sol[1])), info["fvec"]
    if omega_d >= math.pi / float(np.max(np.diff(t))):
        raise ValueError("at or above the Nyquist frequency")
    fit = SpringParams(b_s=2.0 * sigma, k_s=sigma * sigma + omega_d * omega_d)
    if omega_d * t[-1] < math.pi or not fit.is_underdamped:
        raise ValueError("critical damping")
    residual_norm = amp * float(np.linalg.norm(fvec))
    return (fit.b_s, fit.k_s, float(sol[2]) ** 2, residual_norm,
            bool(1 <= ier <= 4 and np.isfinite(fvec @ fvec)
                 and residual_norm <= 0.5 * float(np.linalg.norm(trace.l))))


@settings(max_examples=100, deadline=None)
@given(wn=st.floats(2.0, 400.0), zeta=st.floats(0.02, 0.95), v0=st.floats(0.05, 3.0),
       noise=st.floats(0.0, 0.05), dt=st.floats(1e-4, 2e-3), periods=st.floats(1.2, 3.0),
       grid=st.sampled_from(["uniform", "one_dropped", "jitter"]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_direct_lmder_fit_is_bit_identical_to_leastsq(wn, zeta, v0, noise, dt, periods, grid,
                                                      seed):
    """The fit calls MINPACK's lmder with leastsq's arguments, so on a noisy trace of 12 to
    2,000 samples, on a uniform grid, with a sample dropped or with times jittered by up to
    0.3 dt, b_s, k_s, v0, the residual norm and converged equal the leastsq fit's bit for
    bit, and where one raises so does the other. A scipy whose lmder changed its contract
    fails here."""
    p = SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn)
    t = np.arange(min(max(12, math.ceil(periods * 2.0 * np.pi / p.omega_d / dt)), 2000)) * dt
    rng = np.random.default_rng(seed)
    if grid == "jitter":
        t[1:] += rng.uniform(-0.3 * dt, 0.3 * dt, len(t) - 1)
    elif grid == "one_dropped":
        t = np.delete(t, rng.integers(1, len(t) - 1))
    l, _ = analytic_response(v0, p, t)
    trace = DisplacementTrace(t=t, l=l + noise * np.max(np.abs(l)) * rng.standard_normal(len(t)))
    try:
        res = fit_spring_params(trace)
    except ValueError:
        with pytest.raises(ValueError):
            _leastsq_fit(trace)
        return
    want = _leastsq_fit(trace)
    got = (res.params.b_s, res.params.k_s, res.v0, res.residual_norm)
    assert list(map(float.hex, got)) == list(map(float.hex, want[:4]))
    assert res.converged == want[4]


# the set-up of each fresh-interpreter fit: a noisy 400-sample trace and the bits of a fit
_FRESH_FIT = """
import sys
import numpy as np
from foldquad.arm import DisplacementTrace, SpringParams, analytic_response, fit_spring_params
t = np.arange(400) * 1e-3
l = analytic_response(1.0, SpringParams(b_s=30.0, k_s=500.0), t)[0]
trace = DisplacementTrace(t=t, l=l + 0.01 * np.random.default_rng(1).standard_normal(len(t)))
def bits(res):
    return [x.hex() for x in (res.params.b_s, res.params.k_s, res.v0, res.residual_norm)]
"""


def _fresh_fit(code):
    """The lines that code prints, run after _FRESH_FIT in a fresh interpreter that imports
    foldquad and this module."""
    path = os.pathsep.join([str(Path(arm_module.__file__).parents[1]), str(Path(__file__).parent)])
    return subprocess.run([sys.executable, "-c", _FRESH_FIT + code], check=True, text=True,
                          env={"PYTHONPATH": path, "PATH": ""},
                          capture_output=True).stdout.splitlines()


def _in_process_bits():
    names = {}
    exec(_FRESH_FIT, names)
    return str(names["bits"](fit_spring_params(names["trace"])))


def test_fit_loads_minpack_without_the_scipy_optimize_package():
    """A fit in a fresh interpreter loads scipy's compiled MINPACK module and no other module
    of scipy.optimize, nor the package itself (321 modules, about 49 MiB), and its result
    equals this process's bit for bit."""
    assert _fresh_fit("""
res = fit_spring_params(trace)
print(sorted(m for m in sys.modules if m.startswith("scipy.optimize")))
print(bits(res))
""") == ["['scipy.optimize._minpack']", _in_process_bits()]


def test_scipy_optimize_imported_after_a_fit_reuses_its_minpack():
    """`import scipy.optimize` after a fit takes the module the fit loaded, and leastsq, which
    calls it, then fits the same bits as the fit."""
    assert _fresh_fit("""
res = fit_spring_params(trace)
loaded = sys.modules["scipy.optimize._minpack"]
import scipy.optimize
from test_arm_spring import _leastsq_fit
print(scipy.optimize._minpack_py._minpack is loaded)
print([x.hex() for x in _leastsq_fit(trace)[:4]] == bits(res))
""") == ["True", "True"]


def test_fit_after_import_scipy_optimize_calls_its_minpack():
    """After `import scipy.optimize`, a fit calls lmder on that package's module: a counting
    wrapper set on it sees the fit's one call, and the fit keeps its bits."""
    assert _fresh_fit("""
import scipy.optimize
loaded, calls = scipy.optimize._minpack_py._minpack, []
lmder = loaded._lmder
loaded._lmder = lambda *args: calls.append(1) or lmder(*args)
res = fit_spring_params(trace)
print(sys.modules["scipy.optimize._minpack"] is loaded, len(calls))
print(bits(res))
""") == ["True 1", _in_process_bits()]


def test_fit_without_a_minpack_extension_names_it_and_the_scipy_version(monkeypatch):
    """A scipy whose optimize directory holds no _minpack extension makes the fit raise an
    ImportError that names the module and the scipy version."""
    import scipy

    monkeypatch.delitem(sys.modules, "scipy.optimize._minpack", raising=False)
    monkeypatch.setattr(arm_module, "machinery", SimpleNamespace(
        PathFinder=SimpleNamespace(find_spec=lambda name, path: None)))
    t, l = _synthetic_trace()
    with pytest.raises(ImportError) as err:
        fit_spring_params(DisplacementTrace(t=t, l=l))
    assert "scipy.optimize._minpack" in str(err.value) and scipy.__version__ in str(err.value)


@pytest.mark.parametrize("guess, drop", [
    (None, None), (SpringParams(b_s=20.0, k_s=300.0), None),
    (SpringParams(b_s=20.0, k_s=5e6), None),
    (SpringParams(b_s=20.0, k_s=100.0 + 2500.0 ** 2), None),
    (SpringParams(b_s=20.0, k_s=100.0 + 3140.0 ** 2), None),
    (SpringParams(b_s=20.0, k_s=2e6), 300)],
    ids=["no_guess", "k_s_300", "k_s_5e6", "omega_d_2500", "omega_d_3140", "dropped_sample"])
def test_fit_of_the_readme_trace_does_not_depend_on_the_guess(guess, drop):
    """The clean b_s 30, k_s 500 trace of the README, whatever spring is passed as the template.
    A search from such a spring as a guess ended in a wrong basin and reported it converged:
    b_s 306.7, k_s 5.02e6 from k_s 5e6, and, with the 301st sample dropped, b_s 92.06,
    k_s 1.98e6 from (20, 2e6). The fit starts from the trace alone; the template only supplies
    l_max and delta_l."""
    t, l = _synthetic_trace(v0=1.0, n=600)
    if drop is not None:
        t, l = np.delete(t, drop), np.delete(l, drop)
    trace = DisplacementTrace(t=t, l=l)
    res = fit_spring_params(trace) if guess is None else fit_spring_params(trace, guess)
    assert res.converged
    for got, want in [(res.params.b_s, 30.0), (res.params.k_s, 500.0), (res.v0, 1.0)]:
        assert abs(got - want) <= 1e-8 * want


@pytest.mark.parametrize("b_s, drop", [(0.0, None), (0.0, 300), (30.0, None)],
                         ids=["undamped", "undamped_dropped_sample", "damped_from_sigma_zero"])
def test_fit_starts_off_s_zero(monkeypatch, b_s, drop):
    """The search runs in s = sqrt(sigma), whose Jacobian column vanishes at s = 0, so from
    s = 0 it never moves s: the damped trace from a start at sigma 0 and omega_d sqrt(300)
    would end at b_s 0, k_s 292. Every search starts at sigma >= 0.01 omega_d, and from there
    that trace fits b_s 30, and the undamped trace, whose recurrence gives sigma -0.0, fits
    b_s 0, on its uniform grid and with a sample dropped."""
    t, l = _synthetic_trace(v0=1.0, p=SpringParams(b_s=b_s, k_s=500.0), n=600)
    if drop is not None:
        t, l = np.delete(t, drop), np.delete(l, drop)
    if b_s:
        monkeypatch.setattr(arm_module, "_recurrence_start",
                            lambda t, l, steps: (0.0, math.sqrt(300.0), math.sqrt(300.0)))
    res = fit_spring_params(DisplacementTrace(t=t, l=l))
    assert res.converged
    assert abs(res.params.b_s - b_s) <= 1e-9 and abs(res.params.k_s - 500.0) <= 1e-8 * 500.0


def test_fit_that_explains_too_little_of_the_trace_is_not_converged(tmp_path, capsys):
    """A fit counts as converged only if its residual is at most half the trace's norm. A
    piecewise-linear trace that no damped response fits ends at 0.73 of its norm: MINPACK
    reports success there; the fit does not, and `foldquad fit` exits 3. The 400
    arm_identification fits of seeds 1-10 leave at most 0.028 of it."""
    from foldquad.cli import main as cli_main
    t = np.arange(600) * 1e-3
    l = np.interp(t, [0.0, 0.1, 0.2, 0.3, 0.6], [0.0, 1.0, -1.0, 1.0, 0.0])
    res = fit_spring_params(DisplacementTrace(t=t, l=l))
    assert 0.5 * np.linalg.norm(l) < res.residual_norm < 0.8 * np.linalg.norm(l)
    assert not res.converged
    trace_path = tmp_path / "trace.csv"
    np.savetxt(trace_path, np.column_stack([t, l]), delimiter=",")
    assert cli_main(["fit", str(trace_path)]) == 3
    assert json.loads(capsys.readouterr().out)["converged"] is False


def _evaluate_twice_fit(trace):
    """fit_spring_params's start and search with no shared evaluation: the residual calls
    analytic_response at the spring of each point, and the Jacobian calls it again.
    Returns the solution (sigma, omega_d, v0) and whether it converged, by the fit's rule:
    the search succeeded and its residual is at most half the trace's norm."""
    from scipy.optimize import least_squares

    t = trace.t - trace.t[0]
    amp = float(np.max(np.abs(trace.l)))
    sigma, omega_d, v0 = _recurrence_start(t, trace.l, np.diff(t))

    def response(x):
        s2, w2 = x[0] ** 2, x[2] ** 2
        return analytic_response(w2, SpringParams(2.0 * s2, s2 * s2 + x[1] * x[1]), t)

    sol = least_squares(
        lambda x: (response(x)[0] - trace.l) / amp,
        [math.sqrt(max(sigma, 0.01 * omega_d)), float(omega_d), math.sqrt(v0)],
        jac=lambda x: _response_jacobian((x[0] ** 2, x[1], x[2] ** 2), t, *response(x),
                                         (2.0 * x[0] / amp, 1.0 / amp, 2.0 * x[2] / amp)).T,
        method="lm", max_nfev=2000, gtol=1e-5)
    return ((sol.x[0] ** 2, abs(sol.x[1]), sol.x[2] ** 2),
            bool(sol.status > 0 and np.isfinite(sol.cost)
                 and amp * np.linalg.norm(sol.fun) <= 0.5 * np.linalg.norm(trace.l)))


@settings(deadline=None)
@given(wn=st.floats(8.0, 40.0), zeta=st.floats(0.1, 0.9), v0=st.floats(0.2, 2.0),
       noise=st.floats(0.0, 0.01), seed=st.integers(0, 2 ** 32 - 1))
def test_shared_evaluation_fit_matches_the_evaluate_twice_search(wn, zeta, v0, noise, seed):
    """Sharing one evaluation between a point's residual and its Jacobian changes only
    rounding: on a trace with 0-1% noise, b_s, k_s and v0 agree with the evaluate-twice
    search to 1e-10 relative, and so does convergence."""
    p = SpringParams(b_s=2.0 * zeta * wn, k_s=wn * wn)
    t = np.arange(0.0, 1.2 * 2.0 * np.pi / p.omega_d, 1e-3)
    l, _ = analytic_response(v0, p, t)
    l = l + noise * np.max(np.abs(l)) * np.random.default_rng(seed).standard_normal(len(t))
    trace = DisplacementTrace(t=t, l=l)
    res = fit_spring_params(trace)
    x, converged = _evaluate_twice_fit(trace)
    want = SpringParams(2.0 * x[0], x[0] * x[0] + x[1] * x[1])
    assert res.converged == converged
    for got, ref in [(res.params.b_s, want.b_s), (res.params.k_s, want.k_s), (res.v0, x[2])]:
        assert abs(got - ref) <= 1e-10 * abs(ref)


@settings(deadline=None)
@given(wn=st.floats(8.0, 40.0), zeta=st.floats(0.1, 0.95), v0=st.floats(0.2, 2.0))
def test_response_jacobian_is_the_model_derivative(wn, zeta, v0):
    """Each column matches central differences of the model in the fit's coordinates
    (sigma, omega_d, v0), over 1.2 damped periods sampled at 1 ms, to 1e-6 of the
    column's largest entry."""
    theta = np.array([zeta * wn, wn * math.sqrt(1.0 - zeta * zeta), v0])
    t = np.arange(0.0, 1.2 * 2.0 * np.pi / theta[1], 1e-3)
    jac = _response_jacobian(theta, t, *_modal_response(*theta, t), (1.0, 1.0, 1.0)).T
    assert jac.shape == (len(t), 3)
    for i in range(3):
        up, down = theta.copy(), theta.copy()
        up[i] *= 1.0 + 1e-6
        down[i] *= 1.0 - 1e-6
        l_up, l_down = (analytic_response(v, SpringParams(2.0 * s, s * s + w * w), t)[0]
                        for s, w, v in (up, down))
        central = (l_up - l_down) / (up[i] - down[i])
        assert np.max(np.abs(jac[:, i] - central)) <= 1e-6 * np.max(np.abs(jac[:, i]))


def test_fit_rejects_constant_trace():
    t = np.arange(50) * 1e-3
    with pytest.raises(ValueError):
        fit_spring_params(DisplacementTrace(t=t, l=np.zeros(50)))


@pytest.mark.parametrize("noise", [0.01, 0.05])
def test_fit_of_an_overdamped_trace_reaches_critical_damping_and_raises(noise):
    """b_s 60, k_s 400 (zeta 1.5) with noise: the best underdamped fit lies at
    critical damping, which is an error, not a converged fit on the boundary."""
    t = np.arange(0.0, 0.6, 1e-3)
    slow, fast = -30.0 + math.sqrt(500.0), -30.0 - math.sqrt(500.0)  # s^2 + 60 s + 400 = 0
    l = (np.exp(slow * t) - np.exp(fast * t)) / (slow - fast)  # from l(0) = 0, l_dot(0) = 1
    l += noise * np.max(np.abs(l)) * np.random.default_rng(0).standard_normal(len(t))
    with pytest.raises(ValueError, match="the fit reached critical damping"):
        fit_spring_params(DisplacementTrace(t=t, l=l))


def test_fit_rejects_a_trace_whose_largest_deflection_is_negative():
    """An arm trace starts with compression. Without this rule the README trace negated
    fits as b_s 184, k_s 9874 and v0 7e-7, with its own norm as the residual, converged."""
    t, l = _synthetic_trace(v0=1.0, n=600)
    with pytest.raises(ValueError, match="largest deflection is negative"):
        fit_spring_params(DisplacementTrace(t=t, l=-l))


def test_fit_rejects_an_omega_d_at_or_above_the_nyquist_frequency():
    """At or above pi/dt, dt the largest sample spacing, a spring aliases onto the samples: the
    trace of b_s 20, k_s 100 + 2000^2 on a 1 ms grid with its 301st sample dropped fits
    omega_d 2000, above the 1570.8 rad/s that its one 2 ms gap leaves."""
    t, l = _synthetic_trace(v0=1.0, p=SpringParams(b_s=20.0, k_s=100.0 + 2000.0 ** 2), n=600)
    t, l = np.delete(t, 300), np.delete(l, 300)
    with pytest.raises(ValueError, match=r"the fitted omega_d=[0-9.]+ rad/s is at or above "
                                         r"the trace's Nyquist frequency pi/dt=1570.8 rad/s"):
        fit_spring_params(DisplacementTrace(t=t, l=l))


def test_fit_rejects_monotone_trace():
    t = np.arange(50) * 1e-3
    with pytest.raises(ValueError):
        fit_spring_params(DisplacementTrace(t=t, l=t * 0.1))


def test_fit_rejects_short_trace():
    t = np.arange(5) * 1e-3
    with pytest.raises(ValueError):
        fit_spring_params(DisplacementTrace(t=t, l=np.sin(40 * t)))


def test_trace_csv_round_trip(tmp_path):
    t, l = _synthetic_trace(n=50)
    path = tmp_path / "trace.csv"
    path.write_text("t,l\n" + "\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(t, l)))
    trace = DisplacementTrace.from_csv(path)
    assert np.array_equal(trace.t, t)
    assert np.array_equal(trace.l, l)
    # headerless variant
    path2 = tmp_path / "trace2.csv"
    path2.write_text("\n".join(f"{float(a)!r},{float(b)!r}" for a, b in zip(t, l)))
    trace2 = DisplacementTrace.from_csv(path2)
    assert np.array_equal(trace2.l, l)


@pytest.mark.parametrize("column, index, value", [("l", 300, np.nan), ("l", 300, np.inf),
                                                  ("t", 300, np.nan), ("t", 0, np.nan)])
def test_trace_rejects_a_non_finite_value(column, index, value):
    """Rejected before scipy sees it. NaN comparisons are false, so the
    strictly-increasing check alone lets a NaN in t through."""
    t, l = _synthetic_trace(n=600)
    columns = {"t": t, "l": l}
    columns[column][index] = value
    with pytest.raises(ValueError, match=rf"^trace {column}\[{index}\] is not finite$"):
        DisplacementTrace(**columns)


def test_trace_validation():
    with pytest.raises(ValueError):
        DisplacementTrace(t=[0.0, 1.0], l=[0.0])
    with pytest.raises(ValueError):
        DisplacementTrace(t=[0.0, 0.0], l=[0.0, 1.0])
