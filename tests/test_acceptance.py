"""End-to-end acceptance gate: seven criteria, one pass/fail line each.

Each test prints `ACCEPTANCE <n> <name>: PASS|FAIL` so the gate can be read
off the pytest -s output at a glance; assertions carry the same conditions.
"""
import time

import numpy as np

from foldquad.arm import (DisplacementTrace, SpringParams, analytic_response,
                          fit_spring_params, simulate_contact)
from foldquad.collision import impact_force_estimate
from foldquad.control import ControllerConfig, recovery_setpoint
from foldquad.dynamics import (VehicleParams, body_state, control_input, hover, integrate_step,
                               quaternion_to_rotation)
from foldquad.scenario import ScenarioConfig, run_scenario, sweep_velocities
from foldquad.simlog import compute_metrics


def report(num, name, ok):
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def test_acceptance_1_recovery_setpoint_exactness():
    cfg = ControllerConfig(gamma1=0.5, gamma2=0.5)
    a = recovery_setpoint([0.6, 0.0, -0.5], [2.1, 0.0], cfg)
    b = recovery_setpoint([0.4, 0.0, -0.5], [2.1, 0.0], cfg)
    ok = (np.max(np.abs(a - np.array([-0.45, 0.0, -0.5]))) <= 1e-12
          and np.max(np.abs(b - np.array([-0.65, 0.0, -0.5]))) <= 1e-12)
    report(1, "recovery-setpoint exactness", ok)


def test_acceptance_2_impulse_force():
    report(2, "impulse-force estimate", impact_force_estimate(1.0, 5.0, 0.05) == 100.0)


def test_acceptance_3_reference_collision_scenario():
    cfg = ScenarioConfig()  # wall at 0.3 m, setpoint [2,0,-4], foldable, defaults
    t0 = time.time()
    log = run_scenario(cfg)
    runtime = time.time() - t0
    m = compute_metrics(log, cfg)
    t_c = log.events[0].t_c if log.events else None
    converged = (m.settling_time is not None
                 and t_c is not None and t_c + m.contact_duration + m.settling_time <= 5.0)
    ok = (not log.aborted
          and t_c is not None and 0.1 <= t_c <= 0.4
          and abs(m.v_c - 1.4) <= 0.3
          and 0.0 < m.v_rb <= 0.42
          and m.re_collision_count == 0
          and converged
          and runtime < 5.0)
    report(3, "reference collision scenario", ok)


def test_acceptance_4_foldable_vs_rigid_sweep():
    t0 = time.time()
    rows = sweep_velocities(ScenarioConfig(), [1.0, 1.5, 2.0, 2.5])
    runtime = time.time() - t0
    by_speed = {}
    for r in rows:
        by_speed.setdefault(r.speed, {})[r.mode] = r
    ok = runtime < 60.0 and len(rows) == 8
    for speed, modes in by_speed.items():
        fold, rigid = modes["foldable"], modes["rigid"]
        ok = ok and not fold.unreachable and not rigid.unreachable
        if not ok:
            break
        fm, rm = fold.metrics, rigid.metrics
        ok = (ok and fm.v_rb < rm.v_rb
              and fm.overshoot < rm.overshoot
              and fm.contact_duration >= 10.0 * rm.contact_duration
              and fm.overshoot < 0.1)
    report(4, "foldable-vs-rigid sweep ordering", ok)


def test_acceptance_5_spring_ode_oracle_equivalence():
    rng = np.random.default_rng(2024)
    t0 = time.time()
    ok = True
    for _ in range(20):
        omega_n = rng.uniform(8.0, 40.0)
        zeta = rng.uniform(0.1, 0.8)
        p = SpringParams(b_s=2.0 * zeta * omega_n, k_s=omega_n**2,
                         l_max=1e6, delta_l=1e-9)  # delta_l -> 0, no clamp
        v0 = rng.uniform(0.2, 2.0)
        res = simulate_contact(v0, p, dt=2e-5)
        v_oracle = v0 * np.exp(-zeta * omega_n * np.pi / p.omega_d)
        t_pk = np.arctan2(p.omega_d, zeta * omega_n) / p.omega_d
        l_oracle, _ = analytic_response(v0, p, t_pk)
        ok = (ok and abs(res.v_rb - v_oracle) / v_oracle <= 0.005
              and abs(res.peak_l - l_oracle) / l_oracle <= 0.005)
    ok = ok and (time.time() - t0) < 5.0
    report(5, "spring-ODE oracle equivalence", ok)


def test_acceptance_6_identification_round_trip():
    p_true = SpringParams(b_s=30.0, k_s=500.0)
    guess = SpringParams(b_s=20.0, k_s=300.0)
    t = np.arange(0, 0.35, 1e-3)
    l, _ = analytic_response(1.4, p_true, t)
    t0 = time.time()
    clean = fit_spring_params(DisplacementTrace(t=t, l=l), guess)
    ok = (clean.converged
          and abs(clean.params.b_s - 30.0) / 30.0 <= 0.01
          and abs(clean.params.k_s - 500.0) / 500.0 <= 0.01)
    amplitude = float(np.max(np.abs(l)))
    hits = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = l + 0.01 * amplitude * rng.standard_normal(len(l))
        try:
            res = fit_spring_params(DisplacementTrace(t=t, l=noisy), guess)
        except ValueError:
            continue
        if (res.converged and abs(res.params.b_s - 30.0) / 30.0 <= 0.1
                and abs(res.params.k_s - 500.0) / 500.0 <= 0.1):
            hits += 1
    ok = ok and hits >= 95 and (time.time() - t0) < 30.0
    report(6, "identification round-trip", ok)


def test_acceptance_7_invariant_suites():
    t0 = time.time()
    p = VehicleParams()
    ok = True

    # SO(3) orthonormality per integration step (<= 1e-9)
    s = body_state(x=np.zeros(3), v=np.zeros(3), R=np.eye(3),
                   omega=np.array([0.4, -0.7, 0.9]))
    u = control_input(f=p.m * p.g, tau=[0.001, 0.002, -0.001])
    for _ in range(1000):
        s = integrate_step(s, u, p, 1e-3)
        R = np.array(quaternion_to_rotation(s[6:10])).reshape(3, 3)
        ok = ok and np.linalg.norm(R.T @ R - np.eye(3)) <= 1e-9

    # hover fixed point
    h = hover(np.array([0.0, 0.0, -1.0]))
    uh = control_input(f=p.m * p.g)
    x0 = np.array(h[:3])
    for _ in range(1000):
        h = integrate_step(h, uh, p, 1e-3)
    ok = ok and np.linalg.norm(h[:3] - x0) < 1e-9 and np.linalg.norm(h[3:6]) < 1e-9

    # spring energy monotonicity
    from foldquad.arm import _transition, advance_arm
    sp = SpringParams()
    l, ld = 0.0, 1.4
    energy = 0.5 * ld**2
    for _ in range(400):
        l, ld, exited = advance_arm(l, ld, _transition(sp.b_s, sp.k_s, 1e-3), sp)
        e_new = 0.5 * ld**2 + 0.5 * sp.k_s * l**2
        ok = ok and e_new <= energy * (1.0 + 1e-9)
        energy = e_new
        if exited:
            break

    # rebound linearity
    lin = SpringParams(b_s=30.0, k_s=500.0, l_max=1e6, delta_l=1e-9)
    r1 = simulate_contact(0.3, lin, dt=1e-4)
    r2 = simulate_contact(0.6, lin, dt=1e-4)
    ok = ok and abs(r2.v_rb / r1.v_rb - 2.0) <= 1e-6

    # recovery-setpoint altitude bit-equality
    cfg = ControllerConfig()
    rng = np.random.default_rng(7)
    for _ in range(100):
        x = rng.normal(size=3)
        x_d = recovery_setpoint(x, rng.normal(size=2), cfg)
        ok = ok and x_d[2] == x[2]

    # determinism: byte-identical repeated runs
    scen = ScenarioConfig(duration=2.0)
    ok = ok and run_scenario(scen).to_csv() == run_scenario(scen).to_csv()

    ok = ok and (time.time() - t0) < 60.0
    report(7, "invariant suites", ok)
