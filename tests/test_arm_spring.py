"""Folding-arm spring model: closed form, contact integration, identification."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from foldquad import arm as arm_module
from foldquad import collision, scenario
from foldquad.arm import (ContactTimeoutError, DisplacementTrace,
                          SpringParams, _transition, advance_arm, analytic_response,
                          check_rk4_stable, fit_spring_params, simulate_contact)

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


def test_spring_derivative():
    """The exact arm step's slope at dt -> 0 (forward differences at dt and dt/2,
    Richardson-extrapolated) is (l_dot, l_ddot), l_ddot = -b_s l_dot - k_s l."""
    l, l_dot, h = 0.01, 0.5, 1e-6

    def slope(dt):
        l2, d2, _, _ = advance_arm(l, l_dot, NOMINAL, dt)
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
    assert np.array_equal(a.trace.t, b.trace.t) and np.array_equal(a.trace.l, b.trace.l)


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


def test_contact_input_validation():
    with pytest.raises(ValueError):
        simulate_contact(0.0, NOMINAL)
    with pytest.raises(ValueError):
        simulate_contact(1.0, NOMINAL, dt=2e-3)


def test_contact_timeout_guard():
    # a very soft spring has its first peak far beyond the 1 s guard
    soft = SpringParams(b_s=0.0, k_s=1.0, l_max=1e6, delta_l=1e-3)
    with pytest.raises(ContactTimeoutError):
        simulate_contact(1.0, soft, dt=1e-3)


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
        for i in range(1, 101):
            l, l_dot, saturated, _ = advance_arm(l, l_dot, p, 1e-3)
            want_l, want_l_dot = analytic_response(1.4, p, i * 1e-3)
            assert not saturated
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
    assert len(calls) == len(res.trace) - 1 == round(res.duration / 1e-4)
    peak, sat = 0.0, False
    for l, _, saturated, _ in calls:
        peak, sat = max(peak, l), sat or saturated
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


# -- invariants ---------------------------------------------------------------

def test_energy_monotone_along_contact():
    p = NOMINAL
    l, l_dot = 0.0, 1.4
    energy = 0.5 * l_dot**2
    for _ in range(400):
        l, l_dot, _, exited = advance_arm(l, l_dot, p, 1e-3)
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
    try:
        check_rk4_stable(SpringParams(b_s=b, k_s=k), dt)
    except ValueError:
        assume(False)
    v = draw(st.floats(0.05, 5.0))
    free = SpringParams(b_s=b, k_s=k, l_max=1e6, delta_l=1e-9)
    l, l_dot, peak = 0.0, v, 0.0
    for _ in range(int(1.0 / dt)):
        l, l_dot, _, _ = advance_arm(l, l_dot, free, dt)
        peak = max(peak, l)
        if l_dot < 0.0:
            break
    saturate = draw(st.booleans())
    l_max = peak * (draw(st.floats(0.2, 0.95)) if saturate else draw(st.floats(1.05, 3.0)))
    p = SpringParams(b_s=b, k_s=k, l_max=l_max, delta_l=l_max * draw(st.floats(0.01, 0.9)))
    return p, v, dt, saturate


@settings(max_examples=200, deadline=None)
@given(arm_impacts())
def test_energy_never_rises_over_random_springs(case):
    """The exact step dissipates b_s l_dot^2 and the clamp only removes energy, so
    0.5 l_dot^2 + 0.5 k_s l^2 never rises across advance_arm steps beyond rounding
    (4 eps relative), on both sides of saturation, until release."""
    p, v, dt, saturate = case
    l, l_dot = 0.0, v
    energy, hit = 0.5 * v * v, False
    for _ in range(int(1.0 / dt)):
        l, l_dot, saturated, exited = advance_arm(l, l_dot, p, dt)
        hit = hit or saturated
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
    t, l = _synthetic_trace()
    res = fit_spring_params(DisplacementTrace(t=t, l=l),
                            SpringParams(b_s=20.0, k_s=300.0))
    assert res.converged
    assert abs(res.params.b_s - 30.0) / 30.0 < 0.01
    assert abs(res.params.k_s - 500.0) / 500.0 < 0.01


def test_fit_rejects_constant_trace():
    t = np.arange(50) * 1e-3
    with pytest.raises(ValueError):
        fit_spring_params(DisplacementTrace(t=t, l=np.zeros(50)),
                          SpringParams(b_s=20.0, k_s=300.0))


def test_fit_rejects_monotone_trace():
    t = np.arange(50) * 1e-3
    with pytest.raises(ValueError):
        fit_spring_params(DisplacementTrace(t=t, l=t * 0.1),
                          SpringParams(b_s=20.0, k_s=300.0))


def test_fit_rejects_short_trace():
    t = np.arange(5) * 1e-3
    with pytest.raises(ValueError):
        fit_spring_params(DisplacementTrace(t=t, l=np.sin(40 * t)),
                          SpringParams(b_s=20.0, k_s=300.0))


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


def test_trace_validation():
    with pytest.raises(ValueError):
        DisplacementTrace(t=[0.0, 1.0], l=[0.0])
    with pytest.raises(ValueError):
        DisplacementTrace(t=[0.0, 0.0], l=[0.0, 1.0])
