"""Command-line entry points: run, compare, sweep, fit, metrics."""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .arm import DisplacementTrace, fit_spring_params
from .scenario import ScenarioConfig, compare_modes, run_scenario, sweep_velocities
from .simlog import SimLog, compute_metrics


def _parse_overrides(pairs):
    out = {}
    for pair in pairs or []:
        if "=" not in pair:
            raise ValueError(f"bad override {pair!r}; expected key=value")
        key, value = pair.split("=", 1)
        try:
            value = json.loads(value)
        except json.JSONDecodeError:  # a bare word such as contact_mode=rigid
            pass
        out[key.strip()] = value
    return out


def _load(args):
    """The config with its overrides, then the output directory, made if missing, and the
    config's stem, which names the output files."""
    cfg = ScenarioConfig.load(args.config, overrides=_parse_overrides(args.set))
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, Path(args.config).stem


def cmd_run(args):
    cfg, out, stem = _load(args)
    log = run_scenario(cfg)
    log.write_csv(out / f"{stem}_log.csv")
    if log.aborted:
        print(f"run aborted: {log.diagnostic}", file=sys.stderr)
        return 2
    metrics = compute_metrics(log, cfg)
    (out / f"{stem}_metrics.json").write_text(metrics.to_json() + "\n")
    print(metrics.to_json())
    return 0


def cmd_compare(args):
    cfg, out, stem = _load(args)
    report = compare_modes(cfg)
    report.foldable_log.write_csv(out / f"{stem}_foldable_log.csv")
    report.rigid_log.write_csv(out / f"{stem}_rigid_log.csv")
    text = json.dumps(report.to_dict(), indent=2)
    (out / f"{stem}_compare.json").write_text(text + "\n")
    print(text)
    aborted = [(mode, log.diagnostic) for mode, log in (
        ("foldable", report.foldable_log), ("rigid", report.rigid_log)) if log.aborted]
    for mode, diagnostic in aborted:
        print(f"{mode} run aborted: {diagnostic}", file=sys.stderr)
    return 2 if aborted else 0


def cmd_sweep(args):
    cfg, out, stem = _load(args)
    speeds = [float(s) for s in args.speeds.split(",")]
    rows = sweep_velocities(cfg, speeds)
    text = json.dumps([r.to_dict() for r in rows], indent=2)
    (out / f"{stem}_sweep.json").write_text(text + "\n")
    print(text)
    return 2 if any(r.aborted for r in rows) else 0


def cmd_fit(args):
    result = fit_spring_params(DisplacementTrace.from_csv(args.trace))
    print(json.dumps({"b_s": result.params.b_s, "k_s": result.params.k_s,
                      "residual_norm": result.residual_norm, "converged": result.converged,
                      "v0": result.v0}, indent=2))
    return 0 if result.converged else 3


def cmd_metrics(args):
    log = SimLog.from_csv(args.log)
    cfg = ScenarioConfig.load(args.config) if args.config else ScenarioConfig()
    print(compute_metrics(log, cfg).to_json())
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="foldquad",
        description="Collision-resilient foldable-quadrotor simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("config", help="scenario config (YAML, flat keys)")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a config key")

    p = sub.add_parser("run", help="run one scenario; write log CSV and metrics JSON")
    add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("compare", help="run foldable vs rigid on the same scenario")
    add_common(p)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("sweep", help="collision-speed sweep over both modes")
    add_common(p)
    p.add_argument("--speeds", default="1,1.5,2,2.5",
                   help="comma-separated target collision speeds (m/s)")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("fit", help="identify spring parameters from a t,l trace CSV")
    p.add_argument("trace")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("metrics", help="recompute metrics from a log CSV")
    p.add_argument("log")
    p.add_argument("--config", default=None, help="scenario config of the run (default: the defaults)")
    p.set_defaults(func=cmd_metrics)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a missing file, a directory, an out-dir that is a file
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
