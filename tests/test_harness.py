"""Scenario orchestration, logging, metrics, comparisons and the CLI."""
import dataclasses
import io
import json
import math
import subprocess
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import foldquad
from foldquad import scenario
from foldquad.arm import SpringParams, analytic_response, simulate_contact
from foldquad.cli import _parse_overrides
from foldquad.cli import main as cli_main
from foldquad.collision import RIGID_CONTACT_TIME, Foldable, Rigid, Wall
from foldquad.control import ControllerConfig, recovery_setpoint
from foldquad.dynamics import MAX_STEPS, MIN_DT, VehicleParams
from foldquad.scenario import (_START_GAP, ScenarioConfig, _cruise_cfg, compare_modes,
                               run_scenario, sweep_velocities)
from foldquad.simlog import (COLUMNS, SETTLE_RADIUS, Metrics, SimLog, _contact_episodes,
                             compute_metrics)


def quiet_config(**kw):
    """A short run without a wall, starting at rest near its setpoint."""
    base = dict(wall=None, start_position=[0.0, 0.0, -1.0],
                start_velocity=[0.0, 0.0, 0.0], setpoint=[0.2, 0.0, -1.0],
                duration=1.0)
    base.update(kw)
    return ScenarioConfig(**base)


# -- config persistence --------------------------------------------------------

def test_config_yaml_round_trip(tmp_path):
    cfg = ScenarioConfig()
    path = tmp_path / "scenario.yaml"
    cfg.save(path)
    loaded = ScenarioConfig.load(path)
    assert loaded.to_dict() == cfg.to_dict()


@pytest.mark.parametrize("name", ["free_flight", "wall_collision", "wall_collision_rigid"])
def test_config_file_saves_and_loads_to_an_equal_config(tmp_path, name):
    """Configs compare by value, so a shipped config saved and loaded again is equal."""
    cfg = ScenarioConfig.load(Path(__file__).parents[1] / "configs" / f"{name}.yaml")
    cfg.save(tmp_path / "saved.yaml")
    assert ScenarioConfig.load(tmp_path / "saved.yaml") == cfg


@pytest.mark.parametrize("make, kwargs", [
    (ScenarioConfig, {"duration": math.inf}), (ScenarioConfig, {"log_interval": math.inf}),
    (ScenarioConfig, {"start_yaw": math.nan}),
    (ScenarioConfig, {"setpoint_yaw": -math.inf}),
    (ScenarioConfig, {"start_position": [0.0, math.inf, -0.5]}),
    (ScenarioConfig, {"start_velocity": [math.nan, 0.0, 0.0]}),
    (ScenarioConfig, {"setpoint": [2.0, 0.0, math.nan]}),
    (VehicleParams, {"m": math.nan}), (VehicleParams, {"m": math.inf}),
    (VehicleParams, {"g": math.nan}), (VehicleParams, {"r_contact": math.inf}),
    (Wall, {"normal": [1, 0, 0], "offset": math.nan}),
    (Wall, {"normal": [1, math.nan, 0], "offset": 0.0}),
    (ControllerConfig, {"k_p": math.inf}), (ControllerConfig, {"integral_limit": math.inf})])
def test_config_rejects_a_non_finite_value_when_built(make, kwargs):
    """A config built in code refuses a non-finite value, as from_dict does for the CLI:
    duration = inf would overflow the step count, g = NaN blow up at t = 0, and a NaN
    start velocity fail only when the run starts."""
    with pytest.raises(ValueError, match="finite"):
        make(**kwargs)


def test_config_overrides(tmp_path):
    cfg = ScenarioConfig()
    path = tmp_path / "scenario.yaml"
    cfg.save(path)
    loaded = ScenarioConfig.load(path, overrides={"contact_mode": "rigid",
                                                  "restitution": 0.5})
    assert isinstance(loaded.mode, Rigid)
    assert loaded.restitution == 0.5


def test_config_rejects_unknown_keys():
    with pytest.raises(ValueError):
        ScenarioConfig.from_dict({"no_such_key": 1})


def test_config_validation():
    with pytest.raises(ValueError):
        ScenarioConfig(duration=0.0)
    with pytest.raises(ValueError):  # under half a step rounds to a run of no steps
        ScenarioConfig(dt=1e-3, duration=4e-4)
    with pytest.raises(ValueError):
        ScenarioConfig(dt=0.02)
    with pytest.raises(ValueError):
        ScenarioConfig(dt=1e-3, log_interval=1e-4)


def test_config_rejects_arm_travel_beyond_contact_radius():
    """A fully folded arm leaves the centroid off the wall; a radius must be positive."""
    with pytest.raises(ValueError, match="arm_travel_max must be below contact_radius"):
        ScenarioConfig(spring=SpringParams(l_max=0.5))
    with pytest.raises(ValueError, match="arm_travel_max must be below contact_radius"):
        ScenarioConfig.from_dict({"arm_travel_max": 0.145})
    ScenarioConfig.from_dict({"arm_travel_max": 0.14})
    with pytest.raises(ValueError, match="contact radius must be positive"):
        ScenarioConfig.from_dict({"contact_radius": 0.0})
    with pytest.raises(ValueError, match="unknown config keys: \\['arm_length'\\]"):
        ScenarioConfig.from_dict({"arm_length": 0.11})


@pytest.mark.parametrize("override", ["k_p=abc", "mass=abc", "restitution=abc",
                                      "restitution=true", "start_position=[1, 2, \"x\"]",
                                      "mass=[1, 2]", "wall_offset=[1, 2]",
                                      "start_position=[1, 2]"])
def test_cli_rejects_non_numeric_value(tmp_path, capsys, override):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=0.1).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path), "--set", override])
    assert rc == 1
    assert "must be a number" in capsys.readouterr().err


def test_cli_rejects_zero_restitution(tmp_path, capsys):
    """A stop dead has no finite rigid contact time: exit 1, naming the key."""
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=0.1).save(cfg_path)
    rc = cli_main(["compare", str(cfg_path), "--out-dir", str(tmp_path), "--set", "restitution=0"])
    assert rc == 1
    assert "restitution must lie in (0, 1]" in capsys.readouterr().err


def test_cli_null_wall_override_runs_without_a_wall(tmp_path):
    """null decodes to None, so a wall config runs as free flight; a bare word
    stays a string."""
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=0.5).save(cfg_path)
    overrides = ["wall_normal=null", "wall_offset=null", "contact_mode=rigid"]
    assert _parse_overrides(overrides) == {"wall_normal": None, "wall_offset": None,
                                           "contact_mode": "rigid"}
    cfg = ScenarioConfig.load(cfg_path, overrides=_parse_overrides(overrides))
    assert cfg.wall is None and isinstance(cfg.mode, Rigid)
    args = ["run", str(cfg_path), "--out-dir", str(tmp_path)]
    assert cli_main([*args, *(a for o in overrides for a in ("--set", o))]) == 0
    assert not SimLog.from_csv(tmp_path / "wall_log.csv").column("contact").any()
    # the same start with its wall touches it within the half second
    assert cli_main(args) == 0
    assert SimLog.from_csv(tmp_path / "wall_log.csv").column("contact").any()


@pytest.mark.parametrize("override", ["log_interval=NaN", "duration=Infinity", "mass=NaN",
                                      "k_r=NaN", "setpoint_yaw=NaN", "inertia=[0.003, NaN, 0.005]",
                                      "start_position=[0, -Infinity, 0]", "wall_offset=NaN"])
def test_cli_rejects_non_finite_value(tmp_path, capsys, override):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=0.1).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path), "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{override.split('=')[0]} must be a number" in err and "all finite" in err
    assert not (tmp_path / "wall_log.csv").exists()


@pytest.mark.parametrize("override", ["inertia=[0.003,0.004]", "inertia=[1,0,0,0,1,0,0,0,1]",
                                      "inertia=[[1,0],[0,1]]", "start_position=[0,0]",
                                      "inertia=[[0.0034,1e-4,0],[1e-4,0.0034,0],[0,0,0.0053]]",
                                      "inertia=[[0.0034,0,0],[0,0.0034,0],[0,0,0.0053]]",
                                      "inertia=[[1,0],[1]]", "start_position=[[1,0],[1],2]"])
def test_cli_rejects_a_misshapen_value(tmp_path, capsys, override):
    """inertia is the 3 principal moments, so 3x3 rows, with a product of inertia or
    without, are refused; any other shape, a ragged list included, gets the error every key
    gets, naming the key, and not numpy's reshape or inhomogeneous-shape error."""
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=0.1).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path), "--set", override])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {override.split('=')[0]} must be a number or a list of "
                          "numbers shaped like the default ") and err.count("\n") == 1
    assert not (tmp_path / "wall_log.csv").exists()


@pytest.mark.parametrize("text", ["wall_normal: [-1.0, 0.0, 0.0]\nwall_offset: null\n",
                                  "wall_normal: null\nwall_offset: 5.0\n"])
def test_cli_rejects_wall_with_one_side_null(tmp_path, capsys, text):
    cfg_path = tmp_path / "wall.yaml"
    cfg_path.write_text(text)
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 1
    assert "wall_offset" in capsys.readouterr().err
    assert not (tmp_path / "wall_log.csv").exists()


def test_config_wall_normal_null_alone_means_no_wall():
    assert ScenarioConfig.from_dict({"wall_normal": None}).wall is None
    assert ScenarioConfig.from_dict({"wall_normal": None, "wall_offset": None}).wall is None


def test_import_does_not_load_scipy_or_yaml():
    """Only fit_spring_params needs scipy, and only ScenarioConfig.load and save need
    PyYAML; `import foldquad` and `import foldquad.cli`, inside every run's start-up
    (and `foldquad fit` or `metrics` without a config), load neither."""
    env = {"PYTHONPATH": str(Path(foldquad.__file__).parents[1]), "PATH": ""}
    for module in ("foldquad", "foldquad.cli"):
        code = (f"import sys, {module}; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'yaml')))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]", module


@pytest.mark.parametrize("make", [ScenarioConfig, lambda: ScenarioConfig.from_dict({}),
                                  lambda: ScenarioConfig().with_mode(Rigid())],
                         ids=["constructed", "from_dict", "with_mode"])
def test_config_vehicle_and_wall_are_frozen(make):
    """The run reads J, J_inv (set from J at construction) and the wall's unit normal as
    float tuples, so none may be reassigned. The spring and the controller, checked against
    the rest at construction, are frozen too."""
    cfg = make()
    for part, name in [(cfg.spring, "k_s"), (cfg.controller, "k_p"), (cfg.vehicle, "m")]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, name, 1e9)
    for part, name, value in [(cfg.vehicle, "J", (0.01, 0.01, 0.02)),
                              (cfg.wall, "normal", (-0.8, 0.6, 0.0))]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(part, name, value)


def test_configs_compare_by_value_and_hash():
    """Configs and their parts hold floats and float tuples, so they compare by value.
    Equal VehicleParams and Walls hash equal; a ScenarioConfig, mutable, has no hash."""
    assert ScenarioConfig() == ScenarioConfig() == ScenarioConfig.from_dict({})
    assert ScenarioConfig() != ScenarioConfig(duration=4.0)
    assert ScenarioConfig() != ScenarioConfig().with_mode(Rigid())
    for a, b, other in [(VehicleParams(), VehicleParams(J=np.array([0.0034, 0.0034, 0.0053])),
                         VehicleParams(m=1.0)),
                        (Wall([-1.0, 0.0, 0.0], -0.3), Wall(np.array([-2.0, 0.0, 0.0]), -0.3),
                         Wall([-1.0, 0.0, 0.0], 0.0))]:
        assert a == b and hash(a) == hash(b)
        assert a != other and len({a, b, other}) == 2
    with pytest.raises(TypeError, match="unhashable"):
        hash(ScenarioConfig())


def test_config_inertia_round_trips_as_moments():
    moments = ScenarioConfig.from_dict({"inertia": [0.004, 0.005, 0.006]})
    assert moments.vehicle.J == (0.004, 0.005, 0.006)
    assert moments.to_dict()["inertia"] == [0.004, 0.005, 0.006]


def test_compare_rigid_side_uses_config_restitution():
    """A foldable config's restitution reaches the rigid run of compare_modes,
    whose stiff arm returns half the impact speed."""
    report = compare_modes(ScenarioConfig.from_dict({"restitution": 0.5}))
    rigid_cfg = ScenarioConfig.from_dict({"contact_mode": "rigid", "restitution": 0.5})
    rigid = compute_metrics(run_scenario(rigid_cfg), rigid_cfg)
    assert report.rigid.v_rb == rigid.v_rb
    assert report.rigid.v_rb == pytest.approx(0.7153, abs=1e-4)
    assert report.rigid.v_rb == pytest.approx(0.5 * report.rigid.v_c, rel=1e-12, abs=0.0)


# -- run_scenario ----------------------------------------------------------------

def test_no_wall_run_converges_without_contact():
    log = run_scenario(quiet_config(duration=3.0))
    assert not log.aborted
    assert np.all(log.column("contact") == 0.0)
    assert not log.events
    final_err = np.linalg.norm(log.vec("x")[-1] - log.vec("xd")[-1])
    assert final_err < 0.05


def test_log_shape_and_timestamps():
    """Without a wall the log is the grid rows, the final row, and the last step
    farther than SETTLE_RADIUS from the setpoint with the step after it."""
    cfg = quiet_config(duration=2.0)
    log = run_scenario(cfg)
    n = round(cfg.duration / cfg.dt)
    grid = {k * 5 for k in range(n // 5)}  # log_interval is 5 steps
    dense = run_scenario(dataclasses.replace(cfg, log_interval=cfg.dt))
    dev = np.linalg.norm(dense.vec("x") - dense.vec("xd"), axis=1)
    last_far = int(np.flatnonzero(dev > SETTLE_RADIUS)[-1])
    steps = [round(t / cfg.dt) for t in log.column("t")]
    assert steps == sorted(grid | {last_far, last_far + 1, n})
    assert last_far % 5 != 0  # the tracked steps are rows the grid would miss
    assert np.all(np.diff(log.column("t")) > 0)
    assert log.data.shape[1] == len(COLUMNS)


def test_aborted_run_ends_at_the_step_that_aborted():
    """A run within SETTLE_RADIUS of its setpoint that blows up at step 7, before
    its second 20 ms grid row, logs that step: it reads as settled, as logged
    at every step."""
    cfg = quiet_config(setpoint=[0.02, 0.0, -1.0], controller=ControllerConfig(k_omega=1e5),
                       log_interval=0.02)
    log = run_scenario(cfg)
    assert log.aborted and log.column("t").tolist() == [0.0, 7 * cfg.dt]
    dense = dataclasses.replace(cfg, log_interval=cfg.dt)
    assert compute_metrics(log, cfg) == compute_metrics(run_scenario(dense), dense)
    assert compute_metrics(log, cfg) == Metrics(settling_time=0.0)


def test_run_deterministic_byte_identical():
    cfg = ScenarioConfig(duration=2.0)
    a = run_scenario(cfg).to_csv()
    b = run_scenario(cfg).to_csv()
    assert a == b


def test_default_scenario_contact_and_recovery():
    log = run_scenario(ScenarioConfig())
    assert len(log.events) >= 1
    m = compute_metrics(log, ScenarioConfig())
    assert m.re_collision_count == 0
    assert m.v_rb is not None and 0.0 < m.v_rb < m.v_c
    # recovery setpoint altitude equals altitude at the collision instant
    assert log.vec("xd")[-1][2] == log.events[0].x_c[2]


@pytest.mark.parametrize("mode, t_c2", [("foldable", 2.317), ("rigid", 2.449)])
def test_recollision_regenerates_recovery_setpoint(mode, t_c2):
    """A second touch of the wall generates a fresh recovery setpoint."""
    cfg = ScenarioConfig(controller=ControllerConfig(gamma1=1e-6, gamma2=1e-6),
                         start_velocity=[2.5, 0.0, 0.0], duration=3.0,
                         log_interval=1e-3)
    if mode == "rigid":
        cfg = cfg.with_mode(Rigid())
    log = run_scenario(cfg)
    assert len(log.events) == 2
    ev1, ev2 = log.events
    assert ev1.t_c == pytest.approx(0.063, abs=1e-9)
    assert ev2.t_c == pytest.approx(t_c2, abs=1e-9)
    x_d1 = recovery_setpoint(ev1.x_c, ev1.v_c[:2], cfg.controller)
    x_d2 = recovery_setpoint(ev2.x_c, ev2.v_c[:2], cfg.controller)
    assert np.array_equal(log.vec("xd")[-1], x_d2)
    assert not np.array_equal(x_d1, x_d2)


def test_contact_uses_scenario_spring():
    """compare_modes carries ScenarioConfig.spring into the foldable contact."""
    cfg = ScenarioConfig(spring=SpringParams(k_s=900.0), log_interval=1e-3)
    m = compare_modes(cfg).foldable
    oracle = simulate_contact(m.v_c, cfg.spring, cfg.dt)
    assert abs(m.contact_duration - oracle.duration) <= 1e-12
    default = simulate_contact(m.v_c, SpringParams(), cfg.dt)
    assert abs(m.contact_duration - default.duration) > 10 * cfg.dt


@pytest.mark.parametrize("angle, dt", [  # the 1 ms cases keep their ids
    pytest.param(angle, dt, id=str(angle) if dt == 1e-3 else f"{angle}-dt{dt:g}")
    for dt in (1e-3, 2e-3, 5e-3) for angle in (0.0, 30.0)])
@pytest.mark.parametrize("speed, saturated", [(1.0, False), (2.6, True)])
def test_closed_loop_contact_matches_arm_oracle(angle, dt, speed, saturated):
    """The closed-loop foldable contact is the arm-only contact from the run's own
    v_c: bit for bit on the default wall, within 1e-12 relative on a wall turned
    30 degrees about the vertical, on both sides of the arm's saturation, at
    physics steps of 1, 2 and 5 ms."""
    a = np.radians(angle)
    base = ScenarioConfig(wall=Wall(normal=[-np.cos(a), np.sin(a), 0.0], offset=-0.3), dt=dt)
    cfg = _cruise_cfg(base, speed, 0.3)
    m = compute_metrics(run_scenario(cfg), cfg)
    oracle = simulate_contact(m.v_c, cfg.spring, cfg.dt)
    assert oracle.saturated == saturated
    assert abs(m.contact_duration - oracle.duration) <= 1e-12
    if angle == 0.0:
        assert (m.v_rb, m.peak_l) == (oracle.v_rb, oracle.peak_l)
    else:
        assert m.v_rb == pytest.approx(oracle.v_rb, rel=1e-12, abs=0.0)
        assert m.peak_l == pytest.approx(oracle.peak_l, rel=1e-12, abs=0.0)


def test_saturated_arm_rebounds_at_one_speed():
    """Above saturation the arm stops at l_max with no inward rate, so every
    faster impact rebounds at one and the same speed, below the rigid one."""
    rows = sweep_velocities(ScenarioConfig(), [1.8, 2.2, 2.6, 3.0])
    fold = {r.metrics.v_rb for r in rows if r.mode == "foldable"}
    assert len(fold) == 1
    assert all(r.metrics.v_rb > max(fold) for r in rows if r.mode == "rigid")


@pytest.mark.parametrize("dt", [2.5e-4, 5e-4, 1e-3, 2e-3, 5e-3])
def test_rigid_contact_does_not_depend_on_physics_dt(dt):
    """On every grid that divides RIGID_CONTACT_TIME the closed-loop rigid contact
    lasts exactly that long and returns restitution x v_c, so its mean impact
    force is m (1 + e) v_c / T whatever the step."""
    cfg = ScenarioConfig(mode=Rigid(), dt=dt, duration=0.3)
    m = compute_metrics(run_scenario(cfg), cfg)
    assert abs(m.contact_duration - RIGID_CONTACT_TIME) <= 1e-12
    assert m.v_rb / m.v_c == pytest.approx(cfg.restitution, rel=1e-12, abs=0.0)
    force = cfg.vehicle.m * (1.0 + cfg.restitution) * m.v_c / RIGID_CONTACT_TIME
    assert m.mean_impact_force == pytest.approx(force, rel=1e-9, abs=0.0)


def test_rigid_mode_oscillates_more_than_foldable():
    report = compare_modes(ScenarioConfig())
    assert report.foldable.v_rb < report.rigid.v_rb
    assert report.foldable.overshoot < report.rigid.overshoot


# -- simlog / metrics ---------------------------------------------------------------

def test_simlog_csv_round_trip(tmp_path):
    log = run_scenario(quiet_config())
    path = tmp_path / "log.csv"
    log.write_csv(path)
    loaded = SimLog.from_csv(path)
    assert np.array_equal(loaded.data, log.data)


def test_simlog_from_csv_keeps_the_first_row_of_a_headerless_log(tmp_path):
    """A log without a header keeps its first row: a first line with a number is data,
    as for a trace."""
    log = run_scenario(quiet_config(duration=0.1))
    path = tmp_path / "log.csv"
    path.write_text(log.to_csv().split("\n", 1)[1])
    assert np.array_equal(SimLog.from_csv(path).data, log.data)


def test_simlog_rejects_malformed():
    with pytest.raises(ValueError):
        SimLog(data=np.zeros((3, 5)))
    bad = np.zeros((3, len(COLUMNS)))
    bad[:, 0] = [0.0, 1.0, 1.0]  # non-increasing time
    with pytest.raises(ValueError):
        SimLog(data=bad)


def _hand_built_log():
    """Eight rows with one contact episode in rows 2-3: the touch, then a folded step."""
    n = 8
    data = np.zeros((n, len(COLUMNS)))
    col = {name: i for i, name in enumerate(COLUMNS)}
    data[:, col["t"]] = np.arange(n) * 0.01
    data[:, col["qw"]] = 1.0
    data[:, col["v1"]] = [1.25, 1.25, 1.25, 0.5, -0.25, -0.2, -0.1, 0.0]
    data[:, col["x1"]] = [0.10, 0.12, 0.14, 0.14, 0.13, 0.12, 0.11, 0.11]
    data[:, col["l"]] = [0.0, 0.0, 0.02, 0.01, 0.0, 0.0, 0.0, 0.0]
    data[:, col["contact"]] = [0, 0, 1, 1, 0, 0, 0, 0]
    data[:, col["xd1"]] = 0.11
    return SimLog(data=data)


def test_contact_episodes_match_loop_reference():
    """The vectorized run finder returns what a plain scan over the flags does."""
    def scan(flags):
        runs, start = [], None
        for i, on in enumerate(flags > 0.5):
            if on and start is None:
                start = i
            elif not on and start is not None:
                runs.append((start, i - 1))
                start = None
        return runs + ([(start, len(flags) - 1)] if start is not None else [])

    rng = np.random.default_rng(31)
    for n in range(30):
        for _ in range(50):
            flags = (rng.random(n) < rng.random()).astype(float)
            assert _contact_episodes(flags) == scan(flags)


def test_metrics_hand_built_contact_window():
    m = compute_metrics(_hand_built_log(), ScenarioConfig())  # wall normal -e1
    assert m.v_c == 1.25          # first flagged row, the touch
    assert m.v_rb == 0.25         # row after the flag falls, the first step after release
    assert abs(m.contact_duration - 0.02) < 1e-12
    assert m.peak_l == 0.02
    assert m.re_collision_count == 0
    assert abs(m.overshoot - 0.0) < 1e-12  # never passes xd1 = 0.11 going down
    expected_force = 1.112 * (1.25 + 0.25) / m.contact_duration
    assert abs(m.mean_impact_force - expected_force) < 1e-9


def test_metrics_no_contact():
    log = run_scenario(quiet_config(duration=2.0))
    m = compute_metrics(log, quiet_config(duration=2.0))
    assert m.v_c is None and m.v_rb is None
    assert m.re_collision_count == 0
    assert m.settling_time is not None


def test_metrics_rejects_malformed_log():
    with pytest.raises(ValueError):
        compute_metrics(SimLog(data=np.zeros((1, len(COLUMNS)))), ScenarioConfig())


def test_metrics_json_fields():
    m = Metrics(v_c=1.0, v_rb=0.1)
    d = json.loads(m.to_json())
    assert set(d) == {"v_c", "v_rb", "contact_duration", "peak_l", "overshoot",
                      "settling_time", "re_collision_count", "mean_impact_force"}


# -- comparisons and sweeps -----------------------------------------------------------

def test_compare_modes_deterministic():
    cfg = ScenarioConfig(duration=2.0)
    a = compare_modes(cfg)
    b = compare_modes(cfg)
    assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
    assert a.foldable_log.to_csv() == b.foldable_log.to_csv()



# Metrics of compare_modes(ScenarioConfig()), each read at the step that decides
# it, so at any log_interval; later changes to the hot path may reorder
# arithmetic, not results.
GOLDEN_REFERENCE = {
    "foldable": dict(v_c=1.4306753006078459, v_rb=0.13352777622224268,
                     contact_duration=0.16900000000000004, peak_l=0.03,
                     overshoot=0.022114840030167615, settling_time=2.0900000000000003,
                     re_collision_count=0, mean_impact_force=10.292271132751823),
    "rigid": dict(v_c=1.4306753006078459, v_rb=1.2876077705470617,
                  contact_duration=0.009999999999999995, peak_l=0.004320285639416583,
                  overshoot=0.07175028214135659, settling_time=2.256,
                  re_collision_count=0, mean_impact_force=302.2730775124259),
}


def test_reference_compare_matches_golden_metrics():
    report = compare_modes(ScenarioConfig())
    for mode, metrics in (("foldable", report.foldable), ("rigid", report.rigid)):
        got = metrics.to_dict()
        assert got.keys() == GOLDEN_REFERENCE[mode].keys()
        for name, want in GOLDEN_REFERENCE[mode].items():
            assert got[name] == pytest.approx(want, rel=1e-9, abs=0.0), (mode, name)


@pytest.mark.parametrize("k_p, speed, reachable", [(1.0, 1.5, True), (10.0, 0.02, False)],
                         ids=["default", "overshoot"])
def test_sweep_point_makes_two_runs(monkeypatch, k_p, speed, reachable):
    """A sweep point makes the foldable and the rigid run on the 2 cm cruise and no
    other, reachable or not. A cruise that touches within 0.04 m/s of its target keeps
    both runs' metrics; one that misses it (k_p 10 at 0.02 m/s touches at about
    0.09 m/s) is unreachable at the foldable run's touch speed, with no metrics."""
    runs = []
    real_run = scenario.run_scenario

    def counted_run(cfg):
        runs.append(cfg)
        return real_run(cfg)

    monkeypatch.setattr(scenario, "run_scenario", counted_run)
    cfg = ScenarioConfig(controller=ControllerConfig(k_p=k_p))
    rows = sweep_velocities(cfg, [speed])
    cruise = _cruise_cfg(cfg, speed, _START_GAP)
    assert [run.to_dict() for run in runs] == [
        cruise.with_mode(mode).to_dict() for mode in (Foldable(), Rigid())]
    achieved = rows[0].achieved_v_c
    assert [(r.mode, r.unreachable, r.achieved_v_c) for r in rows] == [
        ("foldable", not reachable, achieved), ("rigid", not reachable, achieved)]
    if reachable:
        assert abs(achieved - speed) <= 0.04
        assert all(r.metrics is not None and not r.aborted for r in rows)
    else:
        assert speed < achieved < 0.2
        assert all(r.metrics is None and not r.aborted and r.diagnostic == "" for r in rows)


def test_single_speed_sweep_matches_compare():
    cfg = ScenarioConfig()
    rows = sweep_velocities(cfg, [1.5])
    assert len(rows) == 2
    assert {r.mode for r in rows} == {"foldable", "rigid"}
    assert not any(r.unreachable or r.aborted for r in rows)


def test_sweep_rejects_nonpositive_speed():
    with pytest.raises(ValueError):
        sweep_velocities(ScenarioConfig(), [0.0])


def test_altitude_hold_through_recovery():
    """|x3(t) - x3(t_c)| stays within 0.15 m after a level-cruise impact."""
    log = run_scenario(_cruise_cfg(ScenarioConfig(), 2.0, _START_GAP))
    ev = log.events[0]
    t = log.column("t")
    x3 = log.column("x3")
    after = x3[np.searchsorted(t, ev.t_c):]
    assert np.max(np.abs(after - ev.x_c[2])) <= 0.15


# -- CLI --------------------------------------------------------------------------------

def test_cli_run(tmp_path):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "wall_log.csv").exists()
    metrics = json.loads((tmp_path / "wall_metrics.json").read_text())
    assert metrics["v_c"] is not None


def test_cli_run_with_override(tmp_path):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path),
                   "--set", "contact_mode=rigid"])
    assert rc == 0


def test_cli_compare(tmp_path):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["compare", str(cfg_path), "--out-dir", str(tmp_path)])
    assert rc == 0
    report = json.loads((tmp_path / "wall_compare.json").read_text())
    assert report["foldable"]["v_rb"] < report["rigid"]["v_rb"]
    for mode in ("foldable", "rigid"):
        assert (tmp_path / f"wall_{mode}_log.csv").stat().st_size > 0
    # the rigid side is the stiff arm: a 10 ms contact returning restitution (0.9) x v_c,
    # at the default step and at 2 ms
    assert cli_main(["compare", str(cfg_path), "--out-dir", str(tmp_path / "dt2"),
                     "--set", "physics_dt=0.002"]) == 0
    for out in (tmp_path, tmp_path / "dt2"):
        rigid = json.loads((out / "wall_compare.json").read_text())["rigid"]
        assert abs(rigid["contact_duration"] - 0.01) <= 1e-9, out
        assert abs(rigid["v_rb"] / rigid["v_c"] - 0.9) <= 1e-9, out


def test_cli_fit(tmp_path, capsys):
    from foldquad.arm import SpringParams, analytic_response
    t = np.arange(0, 0.35, 1e-3)
    l, _ = analytic_response(1.4, SpringParams(), t)
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("t,l\n" + "\n".join(
        f"{float(a)!r},{float(b)!r}" for a, b in zip(t, l)))
    rc = cli_main(["fit", str(trace_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["b_s"] - 30.0) / 30.0 < 0.01
    assert abs(out["k_s"] - 500.0) / 500.0 < 0.01


def test_cli_fit_of_a_trace_off_a_uniform_grid(tmp_path, capsys):
    """b_s 15, k_s 100 on a uniform grid and with one sample dropped, and the README trace
    with its 301st sample dropped. Off a uniform grid the start comes from the trace
    resampled onto one; before, such a trace was an error without a guess."""
    from foldquad.arm import analytic_response
    trace_path = tmp_path / "trace.csv"
    t = np.arange(0.0, 0.6, 1e-3)
    l15, _ = analytic_response(1.0, SpringParams(b_s=15.0, k_s=100.0), t)
    for rows in (np.column_stack([t, l15]), np.delete(np.column_stack([t, l15]), 300, axis=0)):
        np.savetxt(trace_path, rows, delimiter=",")
        assert cli_main(["fit", str(trace_path)]) == 0
        assert abs(json.loads(capsys.readouterr().out)["b_s"] - 15.0) <= 0.15
    assert cli_main(["fit", _trace_csv(tmp_path / "gap.csv", drop_row=300)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert abs(out["b_s"] - 30.0) <= 1e-6 and abs(out["k_s"] - 500.0) <= 1e-6


def test_cli_fit_rejects_a_malformed_first_row(tmp_path, capsys):
    """A header-less trace whose first row holds a bad value is an error. Read as a
    header, the row was dropped and the fit ran on the other 599 rows."""
    from foldquad.arm import analytic_response
    t = np.arange(0.0, 0.6, 1e-3)
    l, _ = analytic_response(1.4, SpringParams(), t)
    rows = [f"{float(a)!r},{float(b)!r}" for a, b in zip(t, l)]
    rows[0] = "0.0,0.0x"
    trace_path = tmp_path / "trace.csv"
    trace_path.write_text("\n".join(rows))
    assert cli_main(["fit", str(trace_path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out


@pytest.mark.parametrize("text", ["", "t,l\n", "t,l\n\n# no rows\n"],
                         ids=["empty", "header_only", "header_blank_comment"])
@pytest.mark.parametrize("command", ["fit", "metrics"])
def test_cli_rejects_a_csv_without_data_rows(tmp_path, capsys, command, text):
    """An input with no data row ends in exit 1 and one "error:" line, raised before
    np.loadtxt, which warns of an empty input and then fails on its shape."""
    path = tmp_path / "empty.csv"
    path.write_text(text.replace("t,l", "t,l" if command == "fit" else ",".join(COLUMNS)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning fails the test instead of printing
        assert cli_main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "has no data rows" in captured.err
    assert captured.err.count("\n") == 1 and not captured.out


def test_cli_metrics_from_log(tmp_path, capsys):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    rc = cli_main(["metrics", str(tmp_path / "wall_log.csv"),
                   "--config", str(cfg_path)])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["v_c"] is not None
    # on each shipped config, the metrics recomputed from the CSV are the ones the run
    # wrote, byte for byte
    for cfg_path in sorted((Path(__file__).parents[1] / "configs").glob("*.yaml")):
        assert cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path)]) == 0
        capsys.readouterr()
        stem = tmp_path / cfg_path.stem
        assert cli_main(["metrics", f"{stem}_log.csv", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().out == Path(f"{stem}_metrics.json").read_text(), cfg_path


def test_cli_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("no_such_key: 1\n")
    assert cli_main(["run", str(bad), "--out-dir", str(tmp_path)]) == 1


def test_cli_malformed_yaml_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mass: [1,\n")
    assert cli_main(["run", str(bad), "--out-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err  # ScenarioConfig.load names the file, on one line
    assert err.startswith(f"error: {bad} is not valid YAML: ") and err.count("\n") == 1


def _trace_csv(path, nan_first_row=False, scale=1.0, drop_row=None, l=None):
    t = np.arange(0.0, 0.6, 1e-3)
    l = scale * analytic_response(1.0, SpringParams(), t)[0] if l is None else l(t)
    rows = np.column_stack([t, l])
    if nan_first_row:
        rows[0] = np.nan  # t[0] too: a nan passes the strictly-increasing check
    if drop_row is not None:
        rows = np.delete(rows, drop_row, axis=0)
    np.savetxt(path, rows, delimiter=",", header="t,l", comments="")
    return str(path)


def _a_file(path):
    path.write_text("")
    return str(path)


WALL_CONFIG = str(Path(__file__).parents[1] / "configs" / "wall_collision.yaml")


def test_cli_wall_normal_of_length_1e200_runs_as_the_unit_normal(tmp_path, capsys):
    """Scaled before it is normalized, the long normal is (-1, 0, 0) exactly: the run
    touches the wall and prints the metrics of the config as it is."""
    args = ["run", WALL_CONFIG, "--out-dir", str(tmp_path)]
    assert cli_main(args) == 0
    want = capsys.readouterr().out
    assert cli_main([*args, "--set", "wall_normal=[-1e200, 0, 0]"]) == 0
    assert capsys.readouterr().out == want and json.loads(want)["v_c"] is not None


@pytest.mark.parametrize("argv", [
    lambda d: ["run", str(d), "--out-dir", str(d / "out")],
    lambda d: ["metrics", str(d)],
    lambda d: ["fit", str(d)],
    lambda d: ["run", WALL_CONFIG, "--out-dir", _a_file(d / "out")],
    lambda d: ["run", WALL_CONFIG, "--out-dir", str(d / "out"), "--set", "foo"],
    lambda d: ["fit", str(d / "missing.csv")],
    lambda d: ["fit", _trace_csv(d / "zero.csv", scale=0.0)],
    lambda d: ["fit", _trace_csv(d / "negated.csv", scale=-1.0)],
    lambda d: ["fit", _trace_csv(d / "nan.csv", nan_first_row=True)],
    # a damped pair whose v0 comes out negative, so the start needs the peak time, here 0
    lambda d: ["fit", _trace_csv(d / "peak_first.csv",
                                 l=lambda t: np.exp(-5.0 * t) * np.cos(100.0 * t + 0.3))],
], ids=["config_is_a_directory", "log_is_a_directory", "trace_is_a_directory",
        "out_dir_is_a_file", "override_without_equals", "missing_trace", "zero_trace",
        "sign_flipped_trace", "nan_trace", "largest_sample_first"])
def test_cli_failure_is_one_error_line(tmp_path, capfd, argv):
    """Exit 1 with one "error:" line and nothing on stdout: no traceback, no SystemExit
    out of main(), and for the nan trace no LAPACK lines (it is rejected before scipy)."""
    assert cli_main(argv(tmp_path)) == 1
    out, err = capfd.readouterr()
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    assert out == ""
    assert not (tmp_path / "out").is_dir()


@pytest.mark.parametrize("overrides", [[], ["--set", "mass=2.0"]], ids=["plain", "set"])
@pytest.mark.parametrize("text, kind", [("- mass: 1.0\n", "list"), ("5\n", "int")],
                         ids=["list", "scalar"])
def test_cli_rejects_config_whose_top_level_is_not_a_mapping(tmp_path, capsys, text, kind,
                                                             overrides):
    bad = tmp_path / "bad.yaml"
    bad.write_text(text)
    assert cli_main(["run", str(bad), "--out-dir", str(tmp_path / "out"), *overrides]) == 1
    err = capsys.readouterr().err
    assert err == f"error: config top level must be a mapping of keys, not {kind}\n"
    assert not (tmp_path / "out").exists()


def test_cli_rejects_config_whose_unknown_keys_do_not_sort_together(tmp_path, capsys):
    """YAML reads `1:` as an int key, which does not compare with a str key: the message
    sorts the unknown keys by their text, where sorting them as they are raised TypeError
    and `foldquad compare` ended in a traceback."""
    bad = tmp_path / "bad.yaml"
    bad.write_text("1: 2\nfoo: 3\n")
    assert cli_main(["compare", str(bad), "--out-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: unknown config keys: [1, 'foo']\n"
    assert not (tmp_path / "out").exists()


def test_cli_contact_timeout_aborts_with_partial_log(tmp_path, capsys):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path),
                   "--set", "spring_damping=0", "--set", "spring_stiffness=1"])
    assert rc == 2
    t_last = SimLog.from_csv(tmp_path / "wall_log.csv").column("t")[-1]
    err = capsys.readouterr().err
    assert f"contact timeout at t={t_last:.4f} s" in err  # the step that aborted
    assert "did not release" in err


def test_cli_sweep_flags_aborted_point_and_exits_2(tmp_path):
    """A sweep point whose contact never releases is not reported as complete."""
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--speeds", "1.5",
                   "--set", "spring_damping=0", "--set", "spring_stiffness=1"])
    assert rc == 2
    rows = {r["mode"]: r for r in json.loads((tmp_path / "wall_sweep.json").read_text())}
    assert rows["foldable"]["aborted"] and "did not release" in rows["foldable"]["diagnostic"]
    assert not rows["rigid"]["aborted"] and rows["rigid"]["diagnostic"] == ""
    # with the default spring the same sweep completes: exit 0, no row aborted
    rc = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--speeds", "1,2"])
    assert rc == 0
    rows = json.loads((tmp_path / "wall_sweep.json").read_text())
    assert len(rows) == 4 and not any(r["aborted"] or r["unreachable"] for r in rows)


def test_cli_sweep_flags_aborted_start_gap_probe_and_exits_2(tmp_path):
    """A cruise that blows up before the touch marks its point aborted, not unreachable,
    with the runs' own diagnostic and no metrics."""
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--speeds", "1.5",
                   "--set", "inertia=[1e-12,1e-12,1e-12]"])
    assert rc == 2
    rows = json.loads((tmp_path / "wall_sweep.json").read_text())
    assert [r["mode"] for r in rows] == ["foldable", "rigid"]
    for r in rows:
        assert r["aborted"] and not r["unreachable"] and r["metrics"] is None
        assert r["diagnostic"].startswith("state blow-up at t=0.0000 s")


def test_cli_compare_aborted_on_first_step_writes_logs_and_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["compare", str(cfg_path), "--out-dir", str(tmp_path),
                   "--set", "inertia=[1e-12,1e-12,1e-12]"])
    assert rc == 2
    err = capsys.readouterr().err
    for mode in ("foldable", "rigid"):
        assert len(SimLog.from_csv(tmp_path / f"wall_{mode}_log.csv").data) == 1
        assert f"{mode} run aborted: state blow-up" in err
    report = json.loads((tmp_path / "wall_compare.json").read_text())
    assert report["foldable"] == report["rigid"] == Metrics().to_dict()


def test_cli_rejects_loop_faster_than_physics_step(tmp_path, capsys):
    """A 300 Hz attitude loop on 5 ms physics steps would tick at 200 Hz."""
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path), "--set", "physics_dt=0.005",
                   "--set", "attitude_rate=300", "--set", "position_rate=250"])
    assert rc == 1
    assert not (tmp_path / "wall_log.csv").exists()
    assert "attitude_rate * physics_dt must be <= 1" in capsys.readouterr().err


@pytest.mark.parametrize("speed", ["inf", "nan"])
def test_cli_sweep_rejects_non_finite_speed(tmp_path, capsys, speed):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--speeds", f"1,{speed}"])
    assert rc == 1
    assert "sweep speeds must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "wall_sweep.json").exists()


def test_cli_sweep_rejects_config_without_a_wall(tmp_path, capsys):
    cfg_path = Path(__file__).parents[1] / "configs" / "free_flight.yaml"
    rc = cli_main(["sweep", str(cfg_path), "--out-dir", str(tmp_path), "--speeds", "1,2"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: sweep needs a wall")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("override", ["k_r=1e6", "k_omega=1e5", "inertia=[1e-7,1e-7,1e-7]"])
def test_cli_state_blow_up_aborts_with_partial_log(tmp_path, capsys, override):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path), "--set", override])
    assert rc == 2
    t_last = SimLog.from_csv(tmp_path / "wall_log.csv").column("t")[-1]
    assert f"state blow-up at t={t_last:.4f} s" in capsys.readouterr().err  # the step that aborted


@pytest.mark.parametrize("k_s", [1e9, 1e12])
def test_cli_rejects_arm_spring_unstable_at_physics_dt(tmp_path, capsys, k_s):
    cfg_path = tmp_path / "wall.yaml"
    ScenarioConfig(duration=2.0).save(cfg_path)
    rc = cli_main(["run", str(cfg_path), "--out-dir", str(tmp_path),
                   "--set", f"spring_stiffness={k_s}"])
    assert rc == 1
    assert not (tmp_path / "wall_log.csv").exists()
    assert "unstable under RK4" in capsys.readouterr().err


@pytest.mark.parametrize("b_s,k_s", [(30.0, 500.0), (30.0, 900.0)])
def test_arm_spring_stable_at_physics_dt_accepted(b_s, k_s):
    ScenarioConfig(spring=SpringParams(b_s=b_s, k_s=k_s))


def test_config_refuses_a_run_over_the_step_budget():
    """duration / physics_dt may reach MAX_STEPS and no further; an overflow to inf is over."""
    ScenarioConfig(dt=1e-3, duration=MAX_STEPS * 1e-3)
    for dt, duration in ((1e-3, 1.001e4), (1e-9, 5.0), (MIN_DT, 5.0), (1e-3, 1e300)):
        with pytest.raises(ValueError, match=r"duration / physics_dt = .* over the budget"):
            ScenarioConfig(dt=dt, duration=duration)


# -- every accepted config ends in a documented exit -------------------------------------

def _compare_exit(config, overrides, out_dir):
    """`foldquad compare` in-process with warnings as errors; checks what its exit promises
    (1: one error line and no CSV; 0 and 2: both CSVs) and returns (exit, stderr)."""
    argv = ["compare", str(config), "--out-dir", str(out_dir)]
    for override in overrides:
        argv += ["--set", override]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(out), redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli_main(argv)
    err = err.getvalue()
    stem = Path(out_dir) / Path(config).stem
    logs = [Path(f"{stem}_{mode}_log.csv") for mode in ("foldable", "rigid")]
    assert code in (0, 1, 2), code
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not any(path.exists() for path in logs)
    else:
        assert all(path.is_file() for path in logs)
        assert (code == 2) == bool(err)
        assert all(" run aborted: " in line for line in err.splitlines())
    return code, err


@pytest.mark.parametrize("overrides, code, message", [
    (["physics_dt=2.2250738585072014e-308"], 1, "over the budget"),
    (["physics_dt=1e-9"], 1, "over the budget"),
    (["duration=1e300"], 1, "over the budget"),
    (["spring_stiffness=1e300"], 1, "unstable under RK4"),
    (["spring_damping=1e160"], 1, "unstable under RK4"),
    (["contact_radius=1e300"], 0, ""),
    (["gravity=-1e300"], 0, ""),
    (["start_velocity=[1e300,0,0]"], 0, ""),
    (["setpoint=[1e300,0,0]"], 0, ""),
    (["wall_offset=1e300"], 0, ""),
    (["gamma1=1e300"], 0, ""),
    (["gamma1=1e300", "start_velocity=[1e10,0,0]"], 2, "state blow-up")])
def test_cli_extreme_override_ends_in_a_documented_exit(tmp_path, overrides, code, message):
    """A step count past the budget, a spring whose poles overflow, squared distances that
    overflow in the metrics, and an infinite recovery target each end in their exit code,
    with no traceback and no warning."""
    got, err = _compare_exit(WALL_CONFIG, overrides, tmp_path)
    assert got == code and message in err


_FUZZ_KEYS = sorted([*scenario._KEYS, "wall_normal", "wall_offset"])
_FUZZ_DEFAULTS = ScenarioConfig().to_dict()
_EXTREMES = [0.0, MIN_DT, -MIN_DT, 5e-324, 1e-300, 1e300, -1e300, math.inf, -math.inf, math.nan,
             -1.0]
_FUZZ_STEPS = 2000  # a run is cut to this many steps


def _fuzz_value(key):
    """A value for key: near its default, or from the pool of extremes, or misshapen."""
    def near(d):  # half to twice a nonzero default
        return st.floats(0.5, 2.0).map(lambda f: f * d) if d else st.floats(-1.0, 1.0)

    default = _FUZZ_DEFAULTS[key]
    extreme = st.sampled_from(_EXTREMES)
    wrong_shape = st.just([1.0, 2.0])
    if not isinstance(default, list):
        return st.one_of(near(default), extreme, wrong_shape)
    moderate = st.tuples(*map(near, default)).map(list)
    one_extreme = st.tuples(moderate, st.integers(0, 2), extreme).map(
        lambda t: [*t[0][:t[1]], t[2], *t[0][t[1] + 1:]])
    return st.one_of(moderate, one_extreme, extreme, wrong_shape)


flat_overrides = st.lists(st.sampled_from(_FUZZ_KEYS), min_size=1, max_size=3,
                          unique=True).flatmap(
    lambda keys: st.fixed_dictionaries({key: _fuzz_value(key) for key in keys}))


@settings(max_examples=60, deadline=None)
@given(flat_overrides)
def test_any_flat_override_ends_in_a_documented_exit(d):
    """One to three flat keys, near their defaults or extreme: a config over the step budget
    is refused, and `foldquad compare`, cut to _FUZZ_STEPS steps, exits 1 exactly when the
    config is refused, else 0 or 2, with no exception and no warning."""
    try:
        cfg = ScenarioConfig.from_dict(d)
    except ValueError:
        cfg = None
    else:
        assert cfg.duration / cfg.dt <= MAX_STEPS
        if cfg.duration / cfg.dt > _FUZZ_STEPS:
            d = {**d, "duration": _FUZZ_STEPS * cfg.dt}
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "fuzz.yaml"
        config.write_text("")  # all defaults
        code, _ = _compare_exit(config, [f"{k}={json.dumps(v)}" for k, v in d.items()], tmp)
    assert (code == 1) == (cfg is None)


# -- the output digest (tests/output_digest.py) ------------------------------------------

def test_output_digest_is_reproducible_and_reports_a_change():
    """The cut-down item set, run twice, gives equal digests under stable item names (no
    hash is pinned: libm may differ across hosts); a moved metric or fit field is reported
    as such, and a flipped converged flag as a differing discrete outcome."""
    import output_digest
    a, b = output_digest.digest(quick=True), output_digest.digest(quick=True)
    assert a == b
    assert list(a["items"]) == ["compare/default", "sweep/k24", "config/wall_collision", "fit/s1"]
    assert output_digest.compare(a, b)[1]
    item = b["items"]["compare/default"]
    item["sha256"], v_rb = "0" * 64, item["metrics"]["foldable.v_rb"]
    item["metrics"]["foldable.v_rb"] = v_rb + 4 * math.ulp(v_rb)
    lines, equal = output_digest.compare(a, b)
    assert not equal and "first item that differs: compare/default" in lines
    assert "discrete outcomes: all equal" in lines
    assert any(line.startswith("largest relative Metrics or fit change: ") and
               line.endswith("(compare/default foldable.v_rb)") for line in lines)
    fit = b["items"]["fit/s1"]
    fit["metrics"]["1.k_s"] *= 1.0 + 1e-12
    lines, _ = output_digest.compare(a, b)
    assert "discrete outcomes: all equal" in lines
    assert any(line.startswith("largest relative Metrics or fit change: 1e-12") and
               line.endswith("(fit/s1 1.k_s)") for line in lines)
    fit["discrete"]["converged"][0] = not fit["discrete"]["converged"][0]
    assert "discrete outcomes: differ in fit/s1" in output_digest.compare(a, b)[0]
