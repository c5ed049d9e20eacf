"""Per-layer tracing of the foldquad package from outside it.

The package stays untouched: `Tracer.install` replaces each traced function
with a timing wrapper at every place a caller looks it up, and `uninstall`
puts the originals back. A function is found by identity in the namespace
of every loaded `foldquad` module, so a `from .dynamics import
integrate_step` in `collision` is wrapped as well as the attribute of
`foldquad.dynamics` that `scenario._integrate` imports on each call.

Each call records its self time (its span minus the spans of the traced
calls made inside it) and the name of the traced span that called it.
`check_counts` runs short scenarios and compares the counts with the step
and tick counts the run must have made, so a lookup site the wrapping
missed shows up as a failed check instead of an undercount.
"""
from __future__ import annotations

import functools
import math
import sys
import time
from array import array

ROOT = "bench.op"

# span name -> (module, attribute); an attribute "Class.method" patches the
# class, which is where an instance or the class itself looks methods up.
LAYERS = {
    "dynamics.integrate_step": ("foldquad.dynamics", "integrate_step"),
    "control.step_controller": ("foldquad.control", "step_controller"),
    "control.position_loop": ("foldquad.control", "position_loop"),
    "control.recovery_setpoint": ("foldquad.control", "recovery_setpoint"),
    "collision.detect_contact": ("foldquad.collision", "detect_contact"),
    "collision.contact_constrained_step": ("foldquad.collision", "contact_constrained_step"),
    "collision.resolve_rigid": ("foldquad.collision", "resolve_rigid"),
    "arm.advance_arm": ("foldquad.arm", "advance_arm"),
    "arm.simulate_contact": ("foldquad.arm", "simulate_contact"),
    "arm.analytic_response": ("foldquad.arm", "analytic_response"),
    "arm.fit_spring_params": ("foldquad.arm", "fit_spring_params"),
    "simlog.rotation_to_quaternion": ("foldquad.simlog", "rotation_to_quaternion"),
    "simlog.compute_metrics": ("foldquad.simlog", "compute_metrics"),
    "simlog.write_csv": ("foldquad.simlog", "SimLog.write_csv"),
    "simlog.from_csv": ("foldquad.simlog", "SimLog.from_csv"),
    "scenario.run_scenario": ("foldquad.scenario", "run_scenario"),
    "scenario.find_start_gap": ("foldquad.scenario", "find_start_gap"),
    "scenario.compare_modes": ("foldquad.scenario", "compare_modes"),
    "scenario.sweep_velocities": ("foldquad.scenario", "sweep_velocities"),
}


class LayerStat:
    """Self time of every call (seconds) and call counts by calling span."""

    __slots__ = ("self_s", "parents")

    def __init__(self):
        self.self_s = array("d")
        self.parents = {}


class Tracer:
    def __init__(self):
        self.enabled = False
        self.stats = {name: LayerStat() for name in (ROOT, *LAYERS)}
        self._stack = [[ROOT, 0.0]]
        self._patches = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, name, fn):
        stack = self._stack
        clock = time.perf_counter
        stat = self.stats[name]
        samples, parents = stat.self_s, stat.parents

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            caller = stack[-1]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span = clock() - t0
                stack.pop()
                caller[1] += span
                samples.append(span - frame[1])
                parents[caller[0]] = parents.get(caller[0], 0) + 1

        return traced

    def install(self, skip=()):
        """Wrap every binding of every layer function; `skip` lists
        (module, attribute) binding sites to leave alone (for self-checks)."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "foldquad" or k.startswith("foldquad.")) and m is not None]
        for name, (modname, attr) in LAYERS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patches.append((cls, meth, raw))
                setattr(cls, meth, new)
                continue
            fn = getattr(owner, attr)
            wrapped = self._wrap(name, fn)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn and (mod.__name__, key) not in skip:
                        self._patches.append((mod, key, fn))
                        setattr(mod, key, wrapped)

    def uninstall(self):
        """Put back every original binding, newest first."""
        self.enabled = False
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    # -- spans opened by the benchmark ---------------------------------------

    def run_op(self, fn, *args):
        """Call fn(*args) as one traced operation; returns (result, wall_s)."""
        root = self._stack[0]
        root[1] = 0.0
        self.enabled = True
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            self.enabled = False
            self.stats[ROOT].self_s.append(wall - root[1])
        return result, wall

    def exclude(self, seconds):
        """Count `seconds` of the benchmark's own work done while a span is
        open as a child of the innermost span, so no self time includes it."""
        self._stack[-1][1] += seconds

    # -- reading the record --------------------------------------------------

    def snapshot(self):
        """Calls so far, per span and per (span, caller)."""
        return {name: (len(st.self_s), dict(st.parents)) for name, st in self.stats.items()}

    @staticmethod
    def diff(after, before):
        out = {}
        for name, (calls, parents) in after.items():
            calls0, parents0 = before.get(name, (0, {}))
            out[name] = (calls - calls0, {k: v - parents0.get(k, 0)
                                          for k, v in parents.items()
                                          if v - parents0.get(k, 0)})
        return out


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an already sorted sequence."""
    if not sorted_values:
        return None
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def expected_ticks(n_steps, dt, rate):
    """Ticks of a loop at `rate` on a grid of n_steps physics steps of dt:
    one at every multiple of 1/rate before n_steps*dt."""
    return math.ceil(n_steps * dt * rate - 1e-9)


def check_counts(scenario, skip=()):
    """Trace short runs of the scenario layer and return the problems found.

    For a free flight and for a foldable and a rigid wall collision:
    `integrate_step` runs exactly once per physics step, contact steps
    included; `step_controller` once per attitude tick; `position_loop`
    once per position tick. After the runs every patched binding must be
    the original object again. `skip` is passed to `Tracer.install`, so a
    self-check can leave a lookup site unwrapped and see the counts fail.
    """
    import foldquad.collision as collision

    base = scenario.ScenarioConfig(duration=0.5)
    runs = {
        "free_flight": scenario.ScenarioConfig(duration=0.2, wall=None),
        "foldable_wall": base,
        "rigid_wall": base.with_mode(collision.Rigid()),
    }
    tracer = Tracer()
    tracer.install(skip=skip)
    sites = list(tracer._patches)
    problems = []
    try:
        for label, cfg in runs.items():
            before = tracer.snapshot()
            log, _ = tracer.run_op(scenario.run_scenario, cfg)
            got = Tracer.diff(tracer.snapshot(), before)
            n = int(round(cfg.duration / cfg.dt))
            checks = [
                ("integrate_step calls", got["dynamics.integrate_step"][0], n),
                ("step_controller calls", got["control.step_controller"][0],
                 expected_ticks(n, cfg.dt, cfg.controller.attitude_rate)),
                ("position_loop calls", got["control.position_loop"][0],
                 expected_ticks(n, cfg.dt, cfg.controller.position_rate)),
            ]
            if label != "free_flight" and not log.events:
                problems.append(f"{label}: no wall contact in the check run")
            for what, value, want in checks:
                if value != want:
                    problems.append(f"{label}: {what} {value} != {want}")
    finally:
        tracer.uninstall()
    for owner, key, original in sites:
        if vars(owner)[key] is not original:
            problems.append(f"{owner.__name__}.{key} not restored after tracing")
    return problems
