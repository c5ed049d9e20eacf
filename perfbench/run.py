"""foldquad benchmark: end-to-end and per-layer timing of three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py for why each exists): reference_compare,
impact_sweep, arm_identification. The program is imported from ./src; no
install step is needed.

An operation is one compare, one sweep point or one arm draw, timed in
two phases (see workloads.py); an iteration is one pass over the
workload's seeded inputs. One warm-up iteration runs traced and untimed:
it counts the integration steps an iteration makes. Then whole iterations
run until --seconds have passed.

Every time is scaled to the reference machine speed (see speed.py); the
measured times are in the report line beside the scaled ones.

With --trace 0 the run is untraced and reports the end-to-end metrics:
  setup_s          median over SETUP_SAMPLES fresh interpreters of the time
                   to import foldquad and build the workload's inputs
  wall_s           median wall time of one iteration
  realtime_factor  simulated seconds per host second of the simulation
                   phase: integration steps of the iteration times their
                   dt, over the median time the iteration spent simulating
  peak_rss_mb      peak resident memory of this process, MiB
With --trace 1 it first runs untraced, then with every layer traced, and
reports per-layer counts per iteration, self-time shares and the tracing
overhead. Either way every operation's output is checked, one line of
environment and one line with the full report are printed, and the last
line is the JSON result: {"correct", "attempted", "failed", "metrics"}.
"""
import os

# Single-threaded numerics; must be set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
UNTRACED_SHARE = 1 / 3  # of --seconds, in a traced run, for the overhead baseline

# Per-call percentiles are reported in the unit the layer's calls are sized in.
US_LAYERS = {
    "dynamics.integrate_step", "control.step_controller", "control.position_loop",
    "control.recovery_setpoint", "collision.detect_contact",
    "collision.contact_constrained_step", "collision.resolve_rigid", "arm.advance_arm",
    "arm.analytic_response", "simlog.rotation_to_quaternion",
}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def environment():
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
    }


def setup_seconds(name, seed, workdir):
    """Median set-up time over SETUP_SAMPLES fresh interpreters, scaled
    (each sample by its own speed factor) and as measured."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    raw, scaled = [], []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed), str(workdir)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        r, s = map(float, done.stdout.split())
        raw.append(r)
        scaled.append(s)
    return statistics.median(scaled), statistics.median(raw), scaled


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


@dataclass
class Op:
    iteration: int
    sim_wall: float | None  # the simulate phase; None when the operation raised
    wall: float | None  # both phases
    outcome: object


class Recorder:
    """Runs a workload's operations in whole iterations; keeps every
    operation's times and outcome, and each iteration's speed factor."""

    def __init__(self, wl, golden, outcome_cls):
        self.wl, self.golden, self.outcome_cls = wl, golden, outcome_cls
        self.ops = []
        self.scale = []  # per iteration: speed.SpeedSampler.factor()
        self.cal_samples = []
        self.speed = None

    def _phase(self, runner, fn, *args):
        busy = self.speed.busy
        result, wall = runner(fn, *args)
        return result, wall - (self.speed.busy - busy)

    def _op(self, inp, runner):
        """Run and check one operation; an exception is a failed operation."""
        try:
            sim, sim_wall = self._phase(runner, self.wl.simulate, inp)
            out, finish_wall = self._phase(runner, self.wl.finish, inp, sim)
            wall = sim_wall + finish_wall
            outcome = self.wl.check(inp, out, self.golden)
        except Exception as exc:  # noqa: BLE001 -- recorded as a failure, not fatal
            outcome = self.outcome_cls(False, f"{type(exc).__name__}: {exc}", math.inf)
            sim_wall = wall = None
        self.ops.append(Op(len(self.scale), sim_wall, wall, outcome))

    def iterate(self, seconds, runner=timed, exclude=None, before=None, after=None):
        """Whole iterations over the inputs until `seconds` have passed (at
        least one), sampling machine speed throughout. Returns the range of
        iteration numbers run."""
        first = len(self.scale)
        start = time.perf_counter()
        while True:
            if before:
                before()
            with speed.SpeedSampler(exclude) as self.speed:
                for inp in self.wl.inputs:
                    self._op(inp, runner)
            self.cal_samples += self.speed.samples
            self.scale.append(self.speed.factor())
            if after:
                after()
            if time.perf_counter() - start >= seconds:
                return range(first, len(self.scale))

    def select(self, iterations):
        return [op for op in self.ops if op.iteration in iterations]

    def iteration_walls(self, iterations, field="wall", norm=True):
        """Per iteration: the sum of its operations' `field` times, scaled to
        the reference machine speed unless norm is False."""
        walls = [0.0] * len(self.scale)
        for op in self.select(iterations):
            t = getattr(op, field)
            if t is not None:
                walls[op.iteration] += t * self.scale[op.iteration] if norm else t
        return [walls[i] for i in iterations]

    @property
    def failed(self):
        return sum(1 for op in self.ops if not op.outcome.ok)

    @property
    def reasons(self):
        return [op.outcome.why for op in self.ops if not op.outcome.ok]


def tail(values):
    """Highest nearest-rank percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    pct = math.floor(100.0 * (n - 10) / n)
    return {"pct": pct, "value": sorted(values)[math.ceil(pct / 100.0 * n) - 1]}


def finite_max(values):
    values = [v for v in values if v is not None and math.isfinite(v)]
    return max(values) if values else None


def ratio(a, b):
    """a / b, or 0.0 when nothing was timed (every operation raised)."""
    return a / b if b else 0.0


def end_to_end(rec, iterations, setup, steps, step_dt, throughput):
    """`steps` is the integration steps of one iteration, each `step_dt`
    simulated seconds. Times count every operation that returned, checked
    or not; failures are counted separately."""
    ops = rec.select(iterations)
    returned = [op for op in ops if op.wall is not None]
    op_walls = [op.wall * rec.scale[op.iteration] for op in returned]
    walls = rec.iteration_walls(iterations)
    sim_walls = rec.iteration_walls(iterations, "sim_wall")
    sim_s = steps * step_dt
    setup_s, setup_raw, setup_samples = setup
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": statistics.median(walls), "unit": "s"},
        "realtime_factor": {"value": ratio(sim_s, statistics.median(sim_walls)),
                            "unit": "s/s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "unit": "MiB"},
    }
    raw = rec.iteration_walls(iterations, norm=False)
    raw_sim = rec.iteration_walls(iterations, "sim_wall", norm=False)
    report = {
        "setup_s": {"median": setup_s, "raw_median": setup_raw, "samples": setup_samples},
        "wall_s": {"p50": metrics["wall_s"]["value"], "tail": tail(walls), "n": len(walls),
                   "raw_p50": statistics.median(raw)},
        "op_wall_s": {"p50": statistics.median(op_walls) if op_walls else None,
                      "tail": tail(op_walls), "n": len(op_walls)},
        "realtime_factor": {"value": metrics["realtime_factor"]["value"],
                            "raw": ratio(sim_s, statistics.median(raw_sim)),
                            "sim_s_per_iteration": sim_s, "steps_per_iteration": steps,
                            "simulate_share": ratio(sum(sim_walls), sum(walls))},
        f"{throughput}_per_s": ratio(len(returned), sum(op_walls)),
        "failed_frac": rec.failed / len(rec.ops),
        "oracle_max_rel_err": finite_max([op.outcome.oracle_err for op in ops]),
        "peak_rss_mb": metrics["peak_rss_mb"]["value"],
        "golden_max_rel_drift": finite_max([op.outcome.drift for op in ops]),
        "golden_field_mismatches": sum(op.outcome.mismatches for op in ops),
        "machine_speed": {"cal_ref_s": speed.CAL_REF_S,
                          "scale_min": min(rec.scale[i] for i in iterations),
                          "scale_max": max(rec.scale[i] for i in iterations),
                          "cal_median_s": statistics.median(rec.cal_samples),
                          "cal_min_s": min(rec.cal_samples),
                          "cal_max_s": max(rec.cal_samples),
                          "samples": len(rec.cal_samples)},
    }
    return metrics, report


def per_layer(tracer_mod, tracer, counts, rec, untraced, traced):
    """Per-layer metrics of the traced iterations; `counts` is one iteration's."""
    ops = rec.select(traced)
    traced_wall = sum(op.wall for op in ops if op.wall is not None)
    outcomes = [op.outcome for op in ops]
    calls = {name: counts[name][0] for name in tracer_mod.LAYERS}
    by = {name: counts[name][1] for name in tracer_mod.LAYERS}
    n_iters = len(traced)
    metrics, report = {}, {}
    for name in tracer_mod.LAYERS:
        samples = sorted(tracer.stats[name].self_s)
        self_s = math.fsum(samples)
        scale, unit = (1e6, "us") if name in US_LAYERS else (1e3, "ms")
        p50 = tracer_mod.percentile(samples, 50)
        p99 = tracer_mod.percentile(samples, 99)
        metrics[f"{name}.calls"] = {"value": calls[name], "unit": "count"}
        metrics[f"{name}.self_pct"] = {"value": 100.0 * ratio(self_s, traced_wall),
                                       "unit": "%"}
        report[name] = {
            "calls": calls[name],
            "callers": by[name],
            "self_s": self_s / n_iters,
            "self_pct": metrics[f"{name}.self_pct"]["value"],
            f"self_{unit}_p50": None if p50 is None else p50 * scale,
            f"self_{unit}_p99": None if p99 is None else p99 * scale,
        }
    root_self = math.fsum(tracer.stats[tracer_mod.ROOT].self_s)
    residual_evals = by["arm.analytic_response"].get("arm.fit_spring_params", 0)
    probe_runs = by["scenario.run_scenario"].get("scenario.find_start_gap", 0)
    csv_bytes = sum(o.csv_bytes for o in outcomes) // n_iters
    untraced_iter = statistics.median(rec.iteration_walls(untraced))
    traced_iter = statistics.median(rec.iteration_walls(traced))
    overhead = 100.0 * (ratio(traced_iter, untraced_iter) - 1.0)
    unattributed = 100.0 * ratio(root_self, traced_wall)
    metrics.update({
        "arm.fit.residual_evals": {"value": residual_evals, "unit": "count"},
        "scenario.probe_runs": {"value": probe_runs, "unit": "count"},
        "simlog.write_csv.bytes": {"value": csv_bytes, "unit": "B"},
        "trace.overhead_pct": {"value": overhead, "unit": "%"},
        "trace.unattributed_pct": {"value": unattributed, "unit": "%"},
    })
    fits = calls["arm.fit_spring_params"]
    points = calls["scenario.find_start_gap"]
    contact = calls["collision.contact_constrained_step"] + calls["collision.resolve_rigid"]
    steps = calls["dynamics.integrate_step"]  # one per physics step (check_counts)
    report.update({
        "arm.fit.residual_evals": residual_evals,
        "arm.fit.useful_ratio": (sum(o.useful_fits for o in outcomes) / n_iters / fits
                                 if fits else None),
        "scenario.probe_runs": probe_runs,
        "scenario.probes_per_point": probe_runs / points if points else None,
        "scenario.physics_steps": steps,
        "scenario.contact_step_share": contact / steps if steps else None,
        "simlog.write_csv.bytes": csv_bytes,
        "trace.untraced_iter_s": untraced_iter,
        "trace.traced_iter_s": traced_iter,
        "trace.self_sum_iter_s": traced_iter * (1.0 - ratio(root_self, traced_wall)),
        "trace.overhead_pct": overhead,
        "trace.unattributed_pct": unattributed,
        "trace.iterations": {"untraced": len(untraced), "traced": n_iters},
    })
    return metrics, report


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "foldquad" / "__init__.py").is_file():
        return fail(f"no foldquad source at {SRC / 'foldquad'}")
    sys.path.insert(0, str(SRC))
    import foldquad
    if Path(foldquad.__file__).resolve().parent != SRC / "foldquad":
        return fail(f"imported foldquad from {foldquad.__file__}, not from {SRC}")
    import tracer as tracer_mod
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; "
                    f"choose from {sorted(workloads.WORKLOADS)}")

    env = environment()
    print("perfbench env: " + json.dumps(env), flush=True)
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = setup_seconds(args.workload, args.seed, workdir)
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        golden = workloads.load_golden()
        warmup = Recorder(wl, golden, workloads.Outcome)
        counter = tracer_mod.Tracer()
        counter.install()
        try:
            warmup.iterate(0, counter.run_op, exclude=counter.exclude)
        finally:
            counter.uninstall()
        steps = len(counter.stats[wl.step_layer].self_s)
        rec = Recorder(wl, golden, workloads.Outcome)
        problems = []
        if args.trace == 0:
            measured = rec.iterate(args.seconds)
            metrics, report = end_to_end(rec, measured, setup, steps, wl.step_dt, wl.op_name)
        else:
            untraced = rec.iterate(args.seconds * UNTRACED_SHARE)
            problems = tracer_mod.check_counts(foldquad.scenario)
            tracer = tracer_mod.Tracer()
            per_iter, snaps = [], []
            tracer.install()
            try:
                traced = rec.iterate(
                    args.seconds * (1 - UNTRACED_SHARE), tracer.run_op, exclude=tracer.exclude,
                    before=lambda: snaps.append(tracer.snapshot()),
                    after=lambda: per_iter.append(tracer.diff(tracer.snapshot(), snaps[-1])))
            finally:
                tracer.uninstall()
            if any(c != per_iter[0] for c in per_iter[1:]):
                problems.append("per-layer counts differ between identical iterations")
            if per_iter[0][wl.step_layer][0] != steps:
                problems.append("integration steps differ between warm-up and traced iterations")
            metrics, report = per_layer(tracer_mod, tracer, per_iter[0], rec, untraced, traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    attempted = len(warmup.ops) + len(rec.ops)
    failed = warmup.failed + rec.failed
    for why in (warmup.reasons + rec.reasons + problems)[:10]:
        print(f"perfbench: check failed: {why}", file=sys.stderr)
    report = {"workload": wl.name, "seed": args.seed, "trace": args.trace,
              "inputs_per_iteration": len(wl.inputs), "failed": failed,
              "attempted": attempted, "problems": problems, "env": env, **report}
    print("perfbench report: " + json.dumps(report), flush=True)
    print(json.dumps({"correct": failed == 0 and not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
