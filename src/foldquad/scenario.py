"""Scenario configuration and closed-loop simulation orchestration."""
from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .arm import CONTACT_TIMEOUT_S, SpringParams, _transition, check_rk4_stable, contact_step_limit
from .collision import (ContactMode, Foldable, Rigid, Wall,
                        contact_constrained_step, detect_contact, resolve_rigid)
from .control import (ControllerConfig, ControllerState, position_loop, recovery_setpoint,
                      step_controller)
from .dynamics import (MAX_DT, MAX_STEPS, MIN_DT, StateBlowUpError, VehicleParams, as_vec3,
                       hover, integrate_step)
from .simlog import SETTLE_RADIUS, Metrics, SimLog, compute_metrics, log_row

# flat YAML key -> the one field it sets: (part, field) on a part of the config,
# or (None, field) on the config itself. contact_mode and wall_* are handled by
# to_dict/from_dict.
_KEYS = {
    "mass": ("vehicle", "m"),
    "inertia": ("vehicle", "J"),
    "gravity": ("vehicle", "g"),
    "contact_radius": ("vehicle", "r_contact"),
    "spring_damping": ("spring", "b_s"),
    "spring_stiffness": ("spring", "k_s"),
    "arm_travel_max": ("spring", "l_max"),
    "contact_exit_threshold": ("spring", "delta_l"),
    **{f.name: ("controller", f.name) for f in fields(ControllerConfig)},
    "restitution": (None, "restitution"),
    "start_position": (None, "start_position"),
    "start_velocity": (None, "start_velocity"),
    "start_yaw": (None, "start_yaw"),
    "setpoint": (None, "setpoint"),
    "setpoint_yaw": (None, "setpoint_yaw"),
    "duration": (None, "duration"),
    "physics_dt": (None, "dt"),
    "log_interval": (None, "log_interval"),
}
_PARTS = {"vehicle": VehicleParams, "spring": SpringParams, "controller": ControllerConfig}
_MODES = {"foldable": Foldable, "rigid": Rigid}


def _plain(value):
    """A float, or a list of floats, for YAML."""
    return np.asarray(value, dtype=float).tolist()


@dataclass
class ScenarioConfig:
    """Full description of one reproducible run.

    `restitution` sets the rigid mode's stiff arm; `compare_modes` and
    `sweep_velocities` use it for their rigid runs whatever `mode` is.
    """

    vehicle: VehicleParams = field(default_factory=VehicleParams)
    spring: SpringParams = field(default_factory=SpringParams)
    mode: ContactMode = field(default_factory=lambda: Foldable())
    restitution: float = 0.9
    controller: ControllerConfig = field(default_factory=ControllerConfig)
    wall: Wall | None = field(default_factory=lambda: Wall(normal=[-1.0, 0.0, 0.0], offset=-0.3))
    start_position: tuple = (0.0, 0.0, -0.5)
    start_velocity: tuple = (1.4, 0.0, 0.0)
    start_yaw: float = 0.0
    setpoint: tuple = (2.0, 0.0, -4.0)
    setpoint_yaw: float = 0.0
    duration: float = 5.0
    dt: float = 1e-3
    log_interval: float = 5e-3

    def __post_init__(self):
        for name in ("start_position", "start_velocity", "setpoint"):
            setattr(self, name, as_vec3(getattr(self, name), name))
        if not (math.isfinite(self.start_yaw) and math.isfinite(self.setpoint_yaw)):
            raise ValueError("start_yaw and setpoint_yaw must be finite")
        if not (0.0 < self.restitution <= 1.0):  # e = 0 has no finite contact time
            raise ValueError("restitution must lie in (0, 1]")
        if not self.spring.l_max < self.vehicle.r_contact:  # the centroid stays off the wall
            raise ValueError("arm_travel_max must be below contact_radius")
        if not (MIN_DT <= self.dt <= MAX_DT):
            raise ValueError(f"dt must be in [{MIN_DT:g}, {MAX_DT:g}]")
        if not (self.dt <= self.duration < math.inf and self.dt <= self.log_interval < math.inf):
            raise ValueError("duration and log_interval must be finite and >= dt")
        if not self.duration / self.dt <= MAX_STEPS:  # an overflow to inf too
            raise ValueError(f"duration / physics_dt = {self.duration / self.dt:g} steps is over "
                             f"the budget of {MAX_STEPS:,} steps")
        if self.controller.attitude_rate * self.dt > 1.0:  # position_rate is never faster
            raise ValueError("attitude_rate * physics_dt must be <= 1: one tick per step at most")
        check_rk4_stable(self.spring, self.dt)  # the physics grid must resolve the spring

    # -- flat key-value (YAML) persistence --------------------------------

    def to_dict(self):
        d = {key: _plain(getattr(getattr(self, part) if part else self, name))
             for key, (part, name) in _KEYS.items()}
        d["contact_mode"] = "rigid" if isinstance(self.mode, Rigid) else "foldable"
        d["wall_normal"] = _plain(self.wall.normal) if self.wall else None
        d["wall_offset"] = _plain(self.wall.offset) if self.wall else None
        return d

    @classmethod
    def from_dict(cls, d):
        base = cls().to_dict()
        unknown = set(d) - set(base)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown, key=str)}")
        if d.get("wall_normal", base["wall_normal"]) is None and d.get("wall_offset") is not None:
            raise ValueError("wall_offset is set but wall_normal is null: give both or neither")
        d = {**base, **d}
        mode = _MODES.get(str(d["contact_mode"]))
        if mode is None:
            raise ValueError(f"unknown contact_mode: {d['contact_mode']!r}")
        has_wall = d["wall_normal"] is not None
        for key in (*_KEYS, *(("wall_normal", "wall_offset") if has_wall else ())):
            try:
                value = np.asarray(d[key])
            except ValueError:  # a ragged list, refused below as an object array
                value = np.asarray(d[key], dtype=object)
            if (value.dtype.kind not in "iuf" or value.shape != np.shape(base[key])
                    or not np.isfinite(value).all()):
                raise ValueError(f"{key} must be a number or a list of numbers shaped like "
                                 f"the default {base[key]!r}, all finite, not {d[key]!r}")
        kwargs = {part: {} for part in (*_PARTS, None)}
        for key, (part, name) in _KEYS.items():
            kwargs[part][name] = d[key]
        wall = Wall(normal=d["wall_normal"], offset=d["wall_offset"]) if has_wall else None
        return cls(**{part: make(**kwargs[part]) for part, make in _PARTS.items()},
                   mode=mode(), wall=wall, **kwargs[None])

    def save(self, path):
        import yaml  # here, as scipy in fit_spring_params: `import foldquad` skips it
        with open(path, "w") as fh:
            yaml.safe_dump(self.to_dict(), fh, sort_keys=True)

    @classmethod
    def load(cls, path, overrides=None):
        import yaml
        with open(path) as fh:
            try:
                d = yaml.safe_load(fh)
            except yaml.YAMLError as exc:  # one line, so that the CLI prints one error line
                raise ValueError(f"{path} is not valid YAML: {' '.join(str(exc).split())}") from exc
        if not isinstance(d, dict | None):  # an empty file is all defaults
            raise ValueError(f"config top level must be a mapping of keys, not {type(d).__name__}")
        return cls.from_dict({**(d or {}), **(overrides or {})})

    def with_mode(self, mode: ContactMode):
        return replace(self, mode=mode)


def run_scenario(cfg: ScenarioConfig) -> SimLog:
    """Integrate the closed loop and return its log.

    Step i runs at t = i*dt. Attitude tick k fires at the first step at or
    after k/attitude_rate, position tick k at the first attitude tick at or
    after k/position_rate (its outputs held in between), and grid row k at the
    first step at or after k*log_interval. Each first touch of the wall
    generates the recovery setpoint, held until the next one. Each step is free
    (integrate_step) or in contact (contact_constrained_step from the touch until the
    arm releases; the arm is cfg.spring, or resolve_rigid's in Rigid mode). A state
    blow-up or a contact that never releases aborts with the partial log and a diagnostic.

    The log also holds every step that decides a metric (README, "One clock"),
    so no metric depends on log_interval. `contact` is 1 on contact steps, and
    on the final row if the run ends in contact.
    """
    state = hover(cfg.start_position, cfg.start_yaw, cfg.start_velocity)
    cs = ControllerState()
    xd0, xd1, xd2 = x_d = cfg.setpoint

    dt, ctl, yaw_d = cfg.dt, cfg.controller, cfg.setpoint_yaw
    wall, vehicle, log_interval = cfg.wall, cfg.vehicle, cfg.log_interval
    spring = (resolve_rigid(cfg.restitution, vehicle.r_contact) if isinstance(cfg.mode, Rigid)
              else cfg.spring)
    phi = _transition(spring.b_s, spring.k_s, dt)  # the arm's step, for every contact
    max_arm_steps = contact_step_limit(dt)  # a contact that needs more times out
    att_rate, pos_rate = ctl.attitude_rate, ctl.position_rate
    n_steps = int(round(cfg.duration / dt))
    n_att = n_pos = n_log = 0  # ticks fired so far, per loop

    touch, after = None, -1  # the contact's first step or None; the step after the last release
    l = l_dot = 0.0  # the arm's deflection and rate; after release l stays in the log

    # steps tracked as (t, state, u, x_d, l); the farthest from the wall from the first release on
    far = after_far = farthest = None
    d_max = -math.inf
    c0, c1, c2, offset = (*wall.normal, wall.offset) if wall else (0.0,) * 4
    r2 = SETTLE_RADIUS ** 2

    rows = {}  # t -> row
    events = []
    diagnostic = ""

    try:
        for i in range(n_steps):
            t = i * dt
            # a tick k is due at the first step with t >= k/rate
            if t * att_rate > n_att - 1e-9:
                if t * pos_rate > n_pos - 1e-9:
                    cs = position_loop(state, x_d, yaw_d, cs, ctl, vehicle, 1.0 / pos_rate)
                    n_pos += 1
                u = step_controller(state, cs, ctl, vehicle)
                n_att += 1

            x0, x1, x2 = state[:3]
            d = c0 * x0 + c1 * x1 + c2 * x2  # n . x, as detect_contact: a touch needs it in reach
            ev = (detect_contact(state, wall, vehicle, t)
                  if wall and touch is None and d - offset <= vehicle.r_contact else None)
            contact = touch is not None or ev is not None
            grid = t / log_interval > n_log - 1e-9
            if grid or contact or i == after:
                rows[t] = log_row(t, state, u, x_d, l, contact)
                if grid:
                    n_log += 1

            # the same float expressions as compute_metrics, so a tie picks the same row
            e0, e1, e2 = x0 - xd0, x1 - xd1, x2 - xd2
            if e0 * e0 + e1 * e1 + e2 * e2 > r2:
                far, after_far = (t, state, u, x_d, l), None
            elif far and not after_far:
                after_far = (t, state, u, x_d, l)
            if after >= 0 and d > d_max:  # the least x . (-normal), which the overshoot reads
                d_max, farthest = d, (t, state, u, x_d, l)

            if ev is not None:
                if after < 0:  # settling is measured again from after the first contact
                    far = after_far = None
                events.append(ev)
                xd0, xd1, xd2 = x_d = recovery_setpoint(state[:3], ev.v_c[:2], ctl)
                touch, l, l_dot = i, 0.0, float(ev.v_c @ ev.normal)
            if touch is None:
                state = integrate_step(state, u, vehicle, dt)
            else:
                state, l, l_dot, exited = contact_constrained_step(
                    state, l, l_dot, wall, u, vehicle, spring, phi, dt)
                if exited:
                    touch, after = None, i + 1
                elif i + 1 - touch >= max_arm_steps:  # i + 1 - touch arm steps so far
                    diagnostic = (f"contact timeout at t={t:.4f} s: contact did not "
                                  f"release within {CONTACT_TIMEOUT_S:g} s")
                    break
    except StateBlowUpError as exc:
        diagnostic = f"state blow-up at t={t:.4f} s: {exc}"

    # an aborted run ends at the step that aborted; were it a contact step, it is logged
    last = (t, state, u, x_d, l) if diagnostic else None
    for ref in (farthest, far, after_far, last):
        if ref and ref[0] not in rows:
            rows[ref[0]] = log_row(*ref, False)
    if not diagnostic:
        rows[(i + 1) * dt] = log_row((i + 1) * dt, state, u, x_d, l, touch is not None)

    return SimLog(data=np.array([rows[t] for t in sorted(rows)]), events=events,
                  aborted=bool(diagnostic), diagnostic=diagnostic)


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
    fold_cfg, rigid_cfg = cfg.with_mode(Foldable()), cfg.with_mode(Rigid())
    fold_log, rigid_log = run_scenario(fold_cfg), run_scenario(rigid_cfg)
    return ComparisonReport(foldable=compute_metrics(fold_log, fold_cfg),
                            rigid=compute_metrics(rigid_log, rigid_cfg),
                            foldable_log=fold_log, rigid_log=rigid_log)


@dataclass
class SweepRow:
    speed: float
    mode: str
    achieved_v_c: float | None
    unreachable: bool = False
    aborted: bool = False  # a run ended early: metrics from its partial log, None before the touch
    diagnostic: str = ""
    metrics: Metrics | None = None

    def to_dict(self):
        return asdict(self)


_CRUISE_MARGIN = 1.15


def _cruise_cfg(cfg, speed, gap):
    """Level cruise toward the wall at roughly `speed`, starting `gap` m
    before touching contact.

    The setpoint is placed just past the touch point so the commanded
    approach velocity at contact is about `speed` (distance speed/k_p scaled
    by a small margin); tangential coordinates including altitude are held
    at the start values, so the vehicle arrives level rather than still
    accelerating toward a distant goal.
    """
    if cfg.wall is None:
        raise ValueError("sweep needs a wall: wall_normal and wall_offset are null")
    n, x = np.array(cfg.wall.normal), np.array(cfg.start_position)
    touch = cfg.wall.offset + cfg.vehicle.r_contact
    start = x + (touch + gap - float(n @ x)) * n
    coord = touch - _CRUISE_MARGIN * speed / cfg.controller.k_p
    return replace(cfg, start_position=start, start_velocity=-speed * n,
                   setpoint=start + (coord - float(n @ start)) * n)


_START_GAP = 0.02  # m of run-up before the touch
_V_C_TOL = 0.04  # m/s: how far a cruise's first-contact speed may miss its target


def find_start_gap(log: SimLog, target_speed):
    """The sweep's reachability rule, on the log of the level cruise at target_speed
    from _START_GAP before the touch. Starts no run.

    Returns (_START_GAP, v_c) when its first-contact speed v_c is within _V_C_TOL
    of target_speed, else (None, v_c), or (None, None) if it never touches the wall.
    The cruise starts at target_speed and is commanded faster still, so a longer
    run-up would only arrive faster."""
    if not log.events:
        return None, None
    ev = log.events[0]
    v_c = float(ev.v_c @ ev.normal)
    return (_START_GAP if abs(v_c - target_speed) <= _V_C_TOL else None), v_c


def sweep_velocities(cfg: ScenarioConfig, speeds) -> list[SweepRow]:
    """Metrics per (speed, mode), each speed a level cruise into the wall.

    The setpoint sits just past the touch point, so the vehicle arrives
    near-level at the target speed instead of still accelerating toward a
    distant goal. Each speed makes one compare_modes call on the cruise from
    _START_GAP; the approach does not depend on the mode, so find_start_gap
    judges the foldable run's first touch. A point the cruise misses is
    `unreachable`, with that touch speed as `achieved_v_c`; a blow-up before
    the touch makes both rows `aborted`. Neither has metrics.
    """
    speeds = list(speeds)  # checked in full before the first run
    if not all(0.0 < speed < math.inf for speed in speeds):
        raise ValueError("sweep speeds must be positive and finite")
    rows = []
    for speed in speeds:
        report = compare_modes(_cruise_cfg(cfg, speed, _START_GAP))
        gap, achieved = find_start_gap(report.foldable_log, speed)
        # with no touch, an aborted run blew up on the approach, which both modes share
        unreachable = gap is None and not (achieved is None and report.foldable_log.aborted)
        for mode, log in (("foldable", report.foldable_log), ("rigid", report.rigid_log)):
            rows.append(SweepRow(speed=speed, mode=mode, achieved_v_c=achieved,
                                 unreachable=unreachable, aborted=log.aborted and not unreachable,
                                 diagnostic="" if unreachable else log.diagnostic,
                                 metrics=None if gap is None else getattr(report, mode)))
    return rows
