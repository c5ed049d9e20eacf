"""The benchmark's workloads: seeded inputs, one operation, and its checks.

Every workload is closed loop: one caller runs an operation, waits for it
to return, checks it, then runs the next. An operation has two timed
phases: `simulate`, the call that integrates the physics, then `finish`,
what the user does with the result (CSV round trip, parameter fit; nothing
for a sweep). An iteration is one pass over the workload's inputs; the
inputs are built once from the seed. `step_layer` names the traced function
called once per integration step of `step_dt` simulated seconds.

Checks use physical bounds, not bit-exact values, so a change that
legitimately shifts trajectories still passes. Golden values (the Metrics
of the commit that added this benchmark) are only compared, as drift.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from foldquad import arm, scenario, simlog

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

# impact_sweep draws its speeds from this grid, so that every speed a seed
# can pick has a golden value: SWEEP_GRID_STEPS + 1 speeds in [0.8, 2.6] m/s.
SWEEP_LO, SWEEP_HI, SWEEP_GRID_STEPS = 0.8, 2.6, 72
SWEEP_POINTS = 8
SWEEP_DURATION = 0.4  # s; the impact and rebound, not the settling
SWEEP_V_C_TOL = 0.04  # m/s, the start-gap search tolerance

ARM_DRAWS = 40
ARM_DT = 2e-5  # s; fine step, so the integrated arm matches the closed form
ARM_ORACLE_TOL = 0.005
ARM_FIT_TOL = 0.10
ARM_NOISE = 0.01  # of the trace amplitude
ARM_TRACE_DT = 1e-3


@dataclass
class Outcome:
    """What the checks found for one operation."""

    ok: bool
    why: str
    oracle_err: float  # largest relative gap to the independent oracle
    drift: float | None = None  # largest relative gap to the golden values
    mismatches: int = 0  # golden fields that are None on one side only
    useful_fits: int = 0  # identifications that converged within tolerance
    csv_bytes: int = 0  # bytes of CSV log the operation wrote


def _rel(a, b):
    return abs(a - b) / max(abs(b), 1e-9)


def metrics_drift(got: dict, golden: dict):
    """(largest relative difference, fields None on exactly one side)."""
    worst, mismatches = 0.0, 0
    for key, want in golden.items():
        have = got.get(key)
        if want is None or have is None:
            mismatches += (want is None) != (have is None)
            continue
        worst = max(worst, _rel(float(have), float(want)))
    return worst, mismatches


def load_golden():
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def contact_oracle_err(m, cfg):
    """Largest relative gap of a foldable run's v_rb and contact duration to
    the arm-only simulation from the run's own impact speed."""
    ref = arm.simulate_contact(m.v_c, cfg.spring, cfg.dt)
    return max(_rel(m.v_rb, ref.v_rb), _rel(m.contact_duration, ref.duration))


class ReferenceCompare:
    """`foldquad compare` then `foldquad metrics` on the default scenario.

    Why: the long free-flight case. 5 s simulated at dt = 1 ms in both modes
    with 5 ms logging; contact is under 2% of steps, so `dynamics` and
    `control` dominate and `collision`/`arm` are nearly bypassed. The
    scenario is fixed; the seed changes nothing.
    """

    name = "reference_compare"
    op_name = "compares"  # what one operation completes
    step_layer = "dynamics.integrate_step"

    def __init__(self, seed, workdir):
        self.cfg = scenario.ScenarioConfig()
        self.step_dt = self.cfg.dt
        self.inputs = [self.cfg]
        self.workdir = Path(workdir)

    def simulate(self, cfg):
        return scenario.compare_modes(cfg)

    def finish(self, cfg, report):
        out = {"report": report, "csv_metrics": {}, "csv_bytes": 0}
        for mode, log in (("foldable", report.foldable_log), ("rigid", report.rigid_log)):
            path = self.workdir / f"reference_{mode}_log.csv"
            log.write_csv(path)
            out["csv_bytes"] += path.stat().st_size
            out["csv_metrics"][mode] = simlog.compute_metrics(simlog.SimLog.from_csv(path), cfg)
        return out

    def check(self, cfg, out, golden):
        report = out["report"]
        fold, log = report.foldable, report.foldable_log
        t_c = log.events[0].t_c if log.events else None
        reasons = []
        if log.aborted or report.rigid_log.aborted:
            reasons.append("run aborted")
        elif t_c is None:
            reasons.append("no wall contact")
        else:
            # acceptance criterion 3, without its wall-time limit
            if not 0.1 <= t_c <= 0.4:
                reasons.append(f"t_c {t_c}")
            if abs(fold.v_c - 1.4) > 0.3:
                reasons.append(f"v_c {fold.v_c}")
            if not 0.0 < fold.v_rb <= 0.42:
                reasons.append(f"v_rb {fold.v_rb}")
            if fold.re_collision_count != 0:
                reasons.append("re-collision")
            if (fold.settling_time is None
                    or t_c + fold.contact_duration + fold.settling_time > cfg.duration):
                reasons.append("did not settle")
        drift, mismatches = 0.0, 0
        for mode in ("foldable", "rigid"):
            mem = getattr(report, mode).to_dict()
            csv = out["csv_metrics"][mode].to_dict()
            round_trip, rt_mismatch = metrics_drift(csv, mem)
            if round_trip > 1e-9 or rt_mismatch:
                reasons.append(f"{mode} metrics change through the CSV round trip")
            d, mm = metrics_drift(mem, golden[self.name][mode])
            drift, mismatches = max(drift, d), mismatches + mm
        oracle = contact_oracle_err(fold, cfg) if not reasons else math.inf
        return Outcome(ok=not reasons, why="; ".join(reasons), oracle_err=oracle,
                       drift=drift, mismatches=mismatches, csv_bytes=out["csv_bytes"])


def sweep_grid_speed(k):
    return round(SWEEP_LO + k * (SWEEP_HI - SWEEP_LO) / SWEEP_GRID_STEPS, 6)


class ImpactSweep:
    """`sweep_velocities` over SWEEP_POINTS distinct seeded speeds, one call
    per sweep point, on a 0.4 s horizon logged every physics step.

    Why: most of the work is the impact itself. One speed is drawn from
    each of SWEEP_POINTS equal bins of [0.8, 2.6] m/s, so the speeds
    straddle arm saturation (peak_l reaches l_max above about 1.5 m/s) and
    every seed does a similar amount of work. 1 ms logging makes `simlog`
    row building a visible share, and each point runs the start-gap probes.
    """

    name = "impact_sweep"
    op_name = "points"  # what one operation completes
    step_layer = "dynamics.integrate_step"

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        bins = np.array_split(np.arange(SWEEP_GRID_STEPS + 1), SWEEP_POINTS)
        self.grid_index = {}
        for b in bins:
            k = int(rng.choice(b))
            self.grid_index[sweep_grid_speed(k)] = k
        self.inputs = list(self.grid_index)
        self.cfg = scenario.ScenarioConfig(duration=SWEEP_DURATION, log_interval=1e-3)
        self.step_dt = self.cfg.dt

    def simulate(self, speed):
        return scenario.sweep_velocities(self.cfg, [speed])

    def finish(self, speed, rows):
        return rows

    def check(self, speed, rows, golden):
        by_mode = {r.mode: r for r in rows}
        fold, rigid = by_mode.get("foldable"), by_mode.get("rigid")
        reasons = []
        if fold is None or rigid is None or fold.unreachable or rigid.unreachable:
            return Outcome(False, f"speed {speed} unreachable", math.inf)
        fm, rm = fold.metrics, rigid.metrics
        if abs(fold.achieved_v_c - speed) > SWEEP_V_C_TOL:
            reasons.append(f"achieved v_c {fold.achieved_v_c} for {speed}")
        if fm.v_rb is None or rm.v_rb is None:
            return Outcome(False, f"speed {speed}: no contact in the run", math.inf)
        if not fm.v_rb < rm.v_rb:
            reasons.append(f"foldable v_rb {fm.v_rb} >= rigid {rm.v_rb}")
        if not fm.contact_duration >= 10.0 * rm.contact_duration:
            reasons.append("foldable contact not 10x rigid")
        want = golden[self.name][str(self.grid_index[speed])]
        drift, mismatches = metrics_drift({"achieved_v_c": fold.achieved_v_c},
                                          {"achieved_v_c": want["achieved_v_c"]})
        for mode, m in (("foldable", fm), ("rigid", rm)):
            d, mm = metrics_drift(m.to_dict(), want[mode])
            drift, mismatches = max(drift, d), mismatches + mm
        return Outcome(ok=not reasons, why="; ".join(reasons),
                       oracle_err=contact_oracle_err(fm, self.cfg),
                       drift=drift, mismatches=mismatches)


@dataclass
class ArmDraw:
    spring: arm.SpringParams
    v0: float
    trace: arm.DisplacementTrace
    guess: arm.SpringParams


class ArmIdentification:
    """Seeded draws of (omega_n, zeta, v0): the contact ODE at fine dt, then
    identification of (b_s, k_s) from a noisy closed-form trace.

    Why: no rigid-body step runs at all; `arm.advance_arm` and the scipy
    least-squares loop do all the work. This is the bypass workload for
    `dynamics`/`control` changes and the exercise workload for `arm`.
    (omega_n, zeta) is a Latin hypercube over [8, 40] rad/s x [0.1, 0.8]
    (the ranges of acceptance criterion 5): one draw in each of ARM_DRAWS
    equal bins of each, so every seed integrates a similar number of steps.
    v0 is uniform in [0.2, 2.0] m/s.
    """

    name = "arm_identification"
    op_name = "fits"  # what one operation completes
    step_layer = "arm.advance_arm"
    step_dt = ARM_DT

    def __init__(self, seed, workdir):
        rng = np.random.default_rng(seed)
        edges = np.linspace(8.0, 40.0, ARM_DRAWS + 1)
        zeta_bins = rng.permutation(ARM_DRAWS)
        self.inputs = []
        for lo, hi, zb in zip(edges[:-1], edges[1:], zeta_bins):
            # plain floats, as a YAML config gives: numpy scalars would make
            # the arm's scalar RK4 about twice as slow
            omega_n = float(rng.uniform(lo, hi))
            zeta = float(0.1 + 0.7 * (zb + rng.uniform()) / ARM_DRAWS)
            v0 = float(rng.uniform(0.2, 2.0))
            # no travel clamp and a vanishing release threshold, so the
            # closed form is exact for the whole contact
            p = arm.SpringParams(b_s=2.0 * zeta * omega_n, k_s=omega_n ** 2,
                                 l_max=1e6, delta_l=1e-9)
            t = np.arange(0.0, 1.2 * 2.0 * np.pi / p.omega_d, ARM_TRACE_DT)
            clean, _ = arm.analytic_response(v0, p, t)
            noisy = clean + ARM_NOISE * np.max(np.abs(clean)) * rng.standard_normal(len(t))
            guess = arm.SpringParams(b_s=0.7 * p.b_s, k_s=0.6 * p.k_s,
                                     l_max=p.l_max, delta_l=p.delta_l)
            self.inputs.append(ArmDraw(p, v0,
                                       arm.DisplacementTrace(t=t, l=noisy), guess))

    def simulate(self, draw):
        return arm.simulate_contact(draw.v0, draw.spring, dt=ARM_DT)

    def finish(self, draw, res):
        return res, arm.fit_spring_params(draw.trace, draw.guess)

    def check(self, draw, out, golden):
        res, fit = out
        p = draw.spring
        decay = p.zeta * p.omega_n
        v_oracle = draw.v0 * math.exp(-decay * math.pi / p.omega_d)
        t_peak = math.atan2(p.omega_d, decay) / p.omega_d
        l_peak, _ = arm.analytic_response(draw.v0, p, t_peak)
        reasons = []
        if _rel(res.v_rb, v_oracle) > ARM_ORACLE_TOL:
            reasons.append(f"v_rb {res.v_rb} vs oracle {v_oracle}")
        if _rel(res.peak_l, float(l_peak)) > ARM_ORACLE_TOL:
            reasons.append(f"peak_l {res.peak_l} vs oracle {float(l_peak)}")
        fit_err = max(_rel(fit.params.b_s, p.b_s), _rel(fit.params.k_s, p.k_s))
        useful = fit.converged and fit_err <= ARM_FIT_TOL
        if not useful:
            reasons.append(f"fit off by {fit_err:.3g} (converged={fit.converged})")
        return Outcome(ok=not reasons, why="; ".join(reasons),
                       oracle_err=fit_err, useful_fits=int(useful))


WORKLOADS = {w.name: w for w in (ReferenceCompare, ImpactSweep, ArmIdentification)}
