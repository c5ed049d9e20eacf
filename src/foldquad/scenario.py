"""Scenario configuration and closed-loop simulation orchestration."""
from __future__ import annotations

import cmath
import copy
from dataclasses import dataclass, field

import numpy as np
import yaml

from .arm import ArmState, ContactTimeoutError, SpringParams
from .collision import (ContactMode, Foldable, Rigid, Wall,
                        contact_constrained_step, detect_contact, resolve_rigid)
from .control import ControllerConfig, ControllerState, Setpoint, recovery_setpoint, step_controller
from .dynamics import BodyState, ControlInput, StateBlowUpError, VehicleParams, integrate_step
from .simlog import Metrics, SimLog, compute_metrics, rotation_to_quaternion

_EPS = 1e-12


@dataclass
class ScenarioConfig:
    """Full description of one reproducible run."""

    vehicle: VehicleParams = field(default_factory=VehicleParams)
    spring: SpringParams = field(default_factory=SpringParams)
    mode: ContactMode = field(default_factory=lambda: Foldable())
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    wall: Wall | None = field(default_factory=lambda: Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3))
    start_position: np.ndarray = field(default_factory=lambda: np.array([0.0, 0.0, -0.5]))
    start_velocity: np.ndarray = field(default_factory=lambda: np.array([1.4, 0.0, 0.0]))
    start_yaw: float = 0.0
    setpoint: np.ndarray = field(default_factory=lambda: np.array([2.0, 0.0, -4.0]))
    setpoint_yaw: float = 0.0
    duration: float = 5.0
    dt: float = 1e-3
    log_interval: float = 5e-3

    def __post_init__(self):
        self.start_position = np.asarray(self.start_position, dtype=float).reshape(3)
        self.start_velocity = np.asarray(self.start_velocity, dtype=float).reshape(3)
        self.setpoint = np.asarray(self.setpoint, dtype=float).reshape(3)
        if self.duration <= 0:
            raise ValueError("duration must be positive")
        if not (0.0 < self.dt <= 0.01):
            raise ValueError("dt must be in (0, 0.01]")
        if self.log_interval < self.dt:
            raise ValueError("log_interval must be >= dt")
        # the contact step runs arm RK4 at dt: each root of s^2 + b_s s + k_s, times dt, is stable
        b, k = self.spring.b_s, self.spring.k_s
        d = cmath.sqrt(b * b - 4.0 * k)
        for z in (0.5 * (-b + d) * self.dt, 0.5 * (-b - d) * self.dt):
            if abs(1 + z + z * z / 2 + z ** 3 / 6 + z ** 4 / 24) > 1.0:
                raise ValueError(f"arm spring (b_s={b:g}, k_s={k:g}) is unstable "
                                 f"under RK4 at physics_dt={self.dt:g}")

    # -- flat key-value (YAML) persistence --------------------------------

    def to_dict(self):
        c = self.controller

        def vec(a):
            return [float(x) for x in a]

        d = {
            "mass": float(self.vehicle.m),
            "inertia": vec(np.diag(self.vehicle.J)),
            "gravity": float(self.vehicle.g),
            "arm_length": float(self.vehicle.l_arm),
            "arm_travel_max": float(self.vehicle.l_max),
            "contact_radius": float(self.vehicle.r_contact),
            "spring_damping": float(self.spring.b_s),
            "spring_stiffness": float(self.spring.k_s),
            "contact_exit_threshold": float(self.spring.delta_l),
            "contact_mode": "rigid" if isinstance(self.mode, Rigid) else "foldable",
            "restitution": float(self.mode.restitution) if isinstance(self.mode, Rigid) else 0.9,
            "k_p": c.k_p, "k_v": c.k_v, "k_vi": c.k_vi, "k_vd": c.k_vd,
            "k_r": c.k_r, "k_omega": c.k_omega,
            "gamma1": c.gamma1, "gamma2": c.gamma2,
            "attitude_rate": c.attitude_rate, "position_rate": c.position_rate,
            "max_thrust": c.max_thrust, "integral_limit": c.integral_limit,
            "wall_normal": vec(self.wall.normal) if self.wall else None,
            "wall_offset": float(self.wall.offset) if self.wall else None,
            "start_position": vec(self.start_position),
            "start_velocity": vec(self.start_velocity),
            "start_yaw": float(self.start_yaw),
            "setpoint": vec(self.setpoint),
            "setpoint_yaw": float(self.setpoint_yaw),
            "duration": float(self.duration),
            "physics_dt": float(self.dt),
            "log_interval": float(self.log_interval),
        }
        return d

    @classmethod
    def from_dict(cls, d):
        base = cls().to_dict()
        unknown = set(d) - set(base)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        base.update(d)
        d = base
        vehicle = VehicleParams(
            m=d["mass"], J=np.diag(d["inertia"]), g=d["gravity"],
            l_arm=d["arm_length"], l_max=d["arm_travel_max"],
            r_contact=d["contact_radius"],
        )
        spring = SpringParams(
            b_s=d["spring_damping"], k_s=d["spring_stiffness"],
            l_max=d["arm_travel_max"], delta_l=d["contact_exit_threshold"],
        )
        if d["contact_mode"] == "rigid":
            mode = Rigid(restitution=d["restitution"])
        elif d["contact_mode"] == "foldable":
            mode = Foldable()
        else:
            raise ValueError(f"unknown contact_mode: {d['contact_mode']!r}")
        controller = ControllerConfig(
            k_p=d["k_p"], k_v=d["k_v"], k_vi=d["k_vi"], k_vd=d["k_vd"],
            k_r=d["k_r"], k_omega=d["k_omega"],
            gamma1=d["gamma1"], gamma2=d["gamma2"],
            attitude_rate=d["attitude_rate"], position_rate=d["position_rate"],
            max_thrust=d["max_thrust"], integral_limit=d["integral_limit"],
        )
        wall = None
        if d["wall_normal"] is not None:
            wall = Wall(normal=d["wall_normal"], offset=d["wall_offset"])
        return cls(
            vehicle=vehicle, spring=spring, mode=mode, controller=controller,
            wall=wall, start_position=d["start_position"],
            start_velocity=d["start_velocity"], start_yaw=d["start_yaw"],
            setpoint=d["setpoint"], setpoint_yaw=d["setpoint_yaw"],
            duration=d["duration"], dt=d["physics_dt"],
            log_interval=d["log_interval"],
        )

    def save(self, path):
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path, overrides=None):
        with open(path) as fh:
            d = yaml.safe_load(fh) or {}
        if overrides:
            d.update(overrides)
        return cls.from_dict(d)

    def with_mode(self, mode: ContactMode):
        cfg = copy.deepcopy(self)
        cfg.mode = mode
        return cfg


def run_scenario(cfg: ScenarioConfig, stop_at_first_contact=False) -> SimLog:
    """Integrate the closed loop and return the sampled log.

    The controller runs on its own schedule (attitude rate, position loop
    sub-sampled). Each first touch of the wall generates the recovery
    setpoint, held until the next one; a foldable touch then steps the
    arm-constrained contact until the arm releases. A state blow-up or a
    contact that never releases aborts with the partial log and a diagnostic.
    """
    state = BodyState.hover(cfg.start_position, yaw=cfg.start_yaw)
    if np.any(cfg.start_velocity != 0.0):
        state = BodyState(x=state.x, v=cfg.start_velocity, R=state.R, omega=state.omega)
    cs = ControllerState()
    sp = Setpoint(x_d=cfg.setpoint, yaw_d=cfg.setpoint_yaw)
    u = ControlInput(f=cfg.vehicle.m * cfg.vehicle.g)

    n_steps = int(round(cfg.duration / cfg.dt))
    t = 0.0
    next_att = 0.0
    next_log = 0.0
    att_dt = 1.0 / cfg.controller.attitude_rate

    in_contact = False
    arm = ArmState()  # after release its deflection stays in the log
    contact_start = 0.0
    contact_since_log = False

    rows = []
    events = []
    aborted = False
    diagnostic = ""

    def log_row():
        q = rotation_to_quaternion(state.R)
        rows.append([
            t, *state.x, *state.v, *q, *state.omega, arm.l,
            u.f, *u.tau, 1.0 if (in_contact or contact_since_log) else 0.0,
            *sp.x_d,
        ])

    try:
        for _ in range(n_steps):
            if t >= next_att - _EPS:
                u, cs = step_controller(state, sp, cs, cfg.controller, cfg.vehicle, t)
                next_att += att_dt

            if t >= next_log - _EPS:
                log_row()
                next_log += cfg.log_interval
                contact_since_log = False

            if not in_contact:
                ev = detect_contact(state, cfg.wall, cfg.vehicle, t) if cfg.wall else None
                if ev is None:
                    state = integrate_step(state, u, cfg.vehicle, cfg.dt)
                else:
                    events.append(ev)
                    contact_since_log = True
                    sp = recovery_setpoint(state.x, ev.v_c[:2], cfg.controller,
                                           yaw_d=sp.yaw_d)
                    if isinstance(cfg.mode, Rigid):  # rigid contact exits in one step
                        state = resolve_rigid(state, ev, cfg.mode.restitution,
                                              cfg.wall, cfg.vehicle)
                        state = integrate_step(state, u, cfg.vehicle, cfg.dt)
                    else:
                        in_contact = True
                        contact_start = t
                        # snap to touching contact with the arm at rest length
                        state = BodyState(
                            x=state.x + (cfg.vehicle.r_contact
                                         - cfg.wall.distance(state.x)) * cfg.wall.normal,
                            v=state.v, R=state.R, omega=state.omega,
                        )
                        arm = ArmState(l=0.0, l_dot=float(ev.v_c @ ev.normal))
            if in_contact:
                contact_since_log = True
                state, arm, exited = contact_constrained_step(
                    state, arm, cfg.wall, u, cfg.vehicle, cfg.spring, cfg.dt)
                if exited:
                    in_contact = False
                elif t - contact_start > 1.0:
                    raise ContactTimeoutError(
                        "foldable contact did not release within 1 s")
            t += cfg.dt
            if stop_at_first_contact and events:
                break
    except StateBlowUpError as exc:
        aborted = True
        diagnostic = f"state blow-up at t={t:.4f} s: {exc}"
    except ContactTimeoutError as exc:
        aborted = True
        diagnostic = f"contact timeout at t={t:.4f} s: {exc}"

    if not aborted:
        log_row()

    return SimLog(data=np.array(rows), events=events,
                  aborted=aborted, diagnostic=diagnostic)


@dataclass
class ComparisonReport:
    """Side-by-side foldable vs rigid outcomes for one scenario."""

    foldable: Metrics
    rigid: Metrics
    foldable_log: SimLog
    rigid_log: SimLog

    def to_dict(self):
        return {"foldable": self.foldable.to_dict(), "rigid": self.rigid.to_dict()}


def compare_modes(cfg: ScenarioConfig) -> ComparisonReport:
    """Run the identical scenario in foldable and rigid modes."""
    fold_cfg = cfg.with_mode(Foldable())
    rigid_mode = cfg.mode if isinstance(cfg.mode, Rigid) else Rigid()
    rigid_cfg = cfg.with_mode(rigid_mode)
    fold_log = run_scenario(fold_cfg)
    rigid_log = run_scenario(rigid_cfg)
    return ComparisonReport(
        foldable=compute_metrics(fold_log, fold_cfg),
        rigid=compute_metrics(rigid_log, rigid_cfg),
        foldable_log=fold_log,
        rigid_log=rigid_log,
    )


@dataclass
class SweepRow:
    speed: float
    mode: str
    achieved_v_c: float | None
    metrics: Metrics | None
    unreachable: bool = False

    def to_dict(self):
        return {
            "speed": self.speed,
            "mode": self.mode,
            "achieved_v_c": self.achieved_v_c,
            "unreachable": self.unreachable,
            "metrics": self.metrics.to_dict() if self.metrics else None,
        }


def _start_at_gap(cfg, gap):
    """Copy of cfg with the start placed `gap` metres before touching contact."""
    out = copy.deepcopy(cfg)
    n = cfg.wall.normal
    coord = cfg.wall.offset + cfg.vehicle.r_contact + gap
    out.start_position = cfg.start_position + (coord - float(n @ cfg.start_position)) * n
    return out


_CRUISE_MARGIN = 1.15


def _cruise_cfg(cfg, speed, gap):
    """Level cruise toward the wall at roughly `speed`, starting `gap` m out.

    The setpoint is placed just past the touch point so the commanded
    approach velocity at contact is about `speed` (distance speed/k_p scaled
    by a small margin); tangential coordinates including altitude are held
    at the start values, so the vehicle arrives level rather than still
    accelerating toward a distant goal.
    """
    out = _start_at_gap(cfg, gap)
    n = cfg.wall.normal
    coord = cfg.wall.offset + cfg.vehicle.r_contact - _CRUISE_MARGIN * speed / cfg.controller.k_p
    out.setpoint = out.start_position + (coord - float(n @ out.start_position)) * n
    out.start_velocity = -speed * n
    return out

def _probe_v_c(cfg, gap, speed=None):
    """Approach speed at first contact when starting `gap` m from touching."""
    probe = _cruise_cfg(cfg, speed, gap) if speed is not None else _start_at_gap(cfg, gap)
    probe.duration = min(cfg.duration, 10.0)
    log = run_scenario(probe, stop_at_first_contact=True)
    if not log.events:
        return None
    ev = log.events[0]
    return float(ev.v_c @ ev.normal)


def find_start_gap(cfg: ScenarioConfig, target_speed, tol=0.04, cruise=False):
    """Start distance whose first-contact speed matches target_speed.

    Scans increasing gaps and bisects on the rising branch of v_c(gap);
    returns (gap, achieved_v_c) or (None, best_v_c) when unreachable. With
    cruise=True each probe uses the level cruise setpoint for target_speed.
    """
    speed = target_speed if cruise else None
    gaps = [0.02, 0.05, 0.1, 0.2, 0.35, 0.6, 1.0, 1.6, 2.5, 4.0, 6.0]
    best = (None, -np.inf)
    lo = hi = None
    v_lo = v_hi = None
    prev_gap, prev_v = None, None
    for gap in gaps:
        v = _probe_v_c(cfg, gap, speed)
        if v is None:
            continue
        if v > best[1]:
            best = (gap, v)
        if abs(v - target_speed) <= tol:
            return gap, v
        if prev_v is not None and prev_v < target_speed <= v:
            lo, hi, v_lo, v_hi = prev_gap, gap, prev_v, v
            break
        prev_gap, prev_v = gap, v
    if lo is None:
        return None, best[1] if np.isfinite(best[1]) else None
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        v = _probe_v_c(cfg, mid, speed)
        if v is None:
            return None, best[1]
        if abs(v - target_speed) <= tol:
            return mid, v
        if v < target_speed:
            lo, v_lo = mid, v
        else:
            hi, v_hi = mid, v
    return hi, v_hi


def sweep_velocities(cfg: ScenarioConfig, speeds) -> list[SweepRow]:
    """Metrics per (speed, mode); start distance auto-matched per speed.

    Each sweep point is a level cruise toward the wall: the setpoint sits
    just past the touch point so the vehicle arrives near-level at the
    target speed instead of still accelerating toward a distant goal. The
    pre-contact approach is mode-independent, so the start search is shared
    between foldable and rigid runs of the same target speed.
    """
    rows = []
    for speed in speeds:
        if speed <= 0:
            raise ValueError("sweep speeds must be positive")
        gap, achieved = find_start_gap(cfg, speed, cruise=True)
        if gap is None:
            for mode in ("foldable", "rigid"):
                rows.append(SweepRow(speed=speed, mode=mode, achieved_v_c=achieved,
                                     metrics=None, unreachable=True))
            continue
        base = _cruise_cfg(cfg, speed, gap)
        report = compare_modes(base)
        rows.append(SweepRow(speed=speed, mode="foldable",
                             achieved_v_c=achieved, metrics=report.foldable))
        rows.append(SweepRow(speed=speed, mode="rigid",
                             achieved_v_c=achieved, metrics=report.rigid))
    return rows
