"""Output digest of the simulator: one SHA-256 per output item and one combined hash.

    PYTHONPATH=src python tests/output_digest.py [--base REV] [--out FILE]

Items, built through the public API only, so the script runs on older trees too:
- compare/<variant>: `compare_modes`' two CSVs, `to_dict()` JSON, aborted flags,
  diagnostics and events (float.hex of t_c, x_c, v_c, normal) on six configs
- sweep/k<k>: the `SweepRow`s of the impact-sweep grid speed k (k = 0, 3, ..., 72)
  at 0.4 s with 1 ms logging; sweep/default: the default 4-speed sweep
- config/<name>: `run_scenario` of each configs/*.yaml: CSV, aborted, diagnostic, events
- fit/s<seed>: float.hex of b_s, k_s, v0, residual_norm and converged of the spring fits
  of arm_identification's draws for that seed, generated here; the four floats are also
  recorded as numbers and converged as a discrete outcome

With --base REV, the same script also runs in a fresh interpreter on REV's src/,
unpacked by `git archive` into a temporary directory. The report then names the first
item that differs, the largest relative change of any Metrics field, of a sweep row's
achieved_v_c or of a fit's four floats, and whether every discrete outcome is equal: row
counts, t and contact columns, event counts, aborted flags, diagnostics, unreachable
flags, re-collision counts, which metrics are None and each fit's converged flag. It
exits 1 if any digest differs.
Hashes rest on libm, so compare trees on one host only.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import math
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
GRID_LO, GRID_HI, GRID_STEPS = 0.8, 2.6, 72  # perfbench's impact_sweep grid
_TURN = 0.5  # rad: the wall variant's turn about the vertical
VARIANTS = {
    "default": {},
    "log_1ms": {"log_interval": 1e-3},
    "start_yaw_0.7": {"start_yaw": 0.7},
    "setpoint_yaw_0.7": {"setpoint_yaw": 0.7},
    "dt_1_600": {"physics_dt": 1.0 / 600.0},
    "wall_turned_0.5": {"wall_normal": [-math.cos(_TURN), -math.sin(_TURN), 0.0]},
}


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _log_parts(log):
    """The bytes that pin a log, and its discrete outcomes."""
    events = [_hex([e.t_c, *e.x_c, *e.v_c, *e.normal]) for e in log.events]
    text = log.to_csv() + json.dumps([events, bool(log.aborted), log.diagnostic])
    t, contact = log.column("t"), log.column("contact")
    discrete = {"rows": len(log.data), "events": len(log.events), "aborted": bool(log.aborted),
                "diagnostic": log.diagnostic,
                "t": hashlib.sha256(" ".join(_hex(t)).encode()).hexdigest(),
                "contact": hashlib.sha256(contact.tobytes()).hexdigest()}
    return text, discrete


def _split_metrics(prefix, m, metrics, discrete):
    """A Metrics dict's floats into `metrics`; its counts and None-ness into `discrete`."""
    for key, value in (m or {}).items():
        if key == "re_collision_count":
            discrete[f"{prefix}.{key}"] = value
        else:
            discrete[f"{prefix}.{key}.is_none"] = value is None
            if value is not None:
                metrics[f"{prefix}.{key}"] = float(value)
    discrete[f"{prefix}.has_metrics"] = m is not None


def _record(text, metrics, discrete):
    return {"sha256": hashlib.sha256(text.encode()).hexdigest(),
            "metrics": metrics, "discrete": discrete}


def _compare_item(cfg):
    from foldquad import compare_modes
    report = compare_modes(cfg)
    text, metrics, discrete = json.dumps(report.to_dict(), sort_keys=True), {}, {}
    for mode in ("foldable", "rigid"):
        log_text, log_discrete = _log_parts(getattr(report, f"{mode}_log"))
        text += log_text
        discrete.update({f"{mode}.log.{k}": v for k, v in log_discrete.items()})
        _split_metrics(mode, getattr(report, mode).to_dict(), metrics, discrete)
    return _record(text, metrics, discrete)


def _sweep_item(cfg, speeds):
    from foldquad import sweep_velocities
    rows = [r.to_dict() for r in sweep_velocities(cfg, speeds)]
    metrics, discrete = {}, {"rows": len(rows)}
    for i, r in enumerate(rows):
        key = f"{i}.{r['mode']}"
        for name in ("unreachable", "aborted", "diagnostic"):
            discrete[f"{key}.{name}"] = r[name]
        discrete[f"{key}.achieved_v_c.is_none"] = r["achieved_v_c"] is None
        if r["achieved_v_c"] is not None:
            metrics[f"{key}.achieved_v_c"] = float(r["achieved_v_c"])
        _split_metrics(key, r["metrics"], metrics, discrete)
    return _record(json.dumps(rows, sort_keys=True), metrics, discrete)


def _config_item(path, overrides):
    from foldquad import ScenarioConfig, run_scenario
    text, discrete = _log_parts(run_scenario(ScenarioConfig.load(path, overrides)))
    return _record(text, {}, discrete)


def _arm_draws(seed, n):
    """The traces of the first n draws of perfbench's arm_identification at `seed`."""
    from foldquad import DisplacementTrace, SpringParams, analytic_response
    rng = np.random.default_rng(seed)
    edges = np.linspace(8.0, 40.0, 41)
    for lo, hi, zb in list(zip(edges[:-1], edges[1:], rng.permutation(40)))[:n]:
        omega_n = float(rng.uniform(lo, hi))
        zeta = float(0.1 + 0.7 * (zb + rng.uniform()) / 40)
        v0 = float(rng.uniform(0.2, 2.0))
        p = SpringParams(b_s=2.0 * zeta * omega_n, k_s=omega_n ** 2, l_max=1e6, delta_l=1e-9)
        t = np.arange(0.0, 1.2 * 2.0 * np.pi / p.omega_d, 1e-3)
        clean, _ = analytic_response(v0, p, t)
        noisy = clean + 0.01 * np.max(np.abs(clean)) * rng.standard_normal(len(t))
        yield DisplacementTrace(t=t, l=noisy)


def _fit_item(seed, n):
    from foldquad import fit_spring_params
    fits = [fit_spring_params(trace) for trace in _arm_draws(seed, n)]
    values = [[f.params.b_s, f.params.k_s, f.v0, f.residual_norm] for f in fits]
    text = json.dumps([_hex(v) + [f.converged] for v, f in zip(values, fits)])
    metrics = {f"{i}.{name}": float(x) for i, v in enumerate(values)
               for name, x in zip(("b_s", "k_s", "v0", "residual_norm"), v)}
    return _record(text, metrics, {"converged": [f.converged for f in fits]})


def items(quick=False):
    """Yield (name, record) for every item; quick: a cut-down set of a few short runs."""
    from foldquad import ScenarioConfig
    for name, over in VARIANTS.items():
        if not quick or name == "default":
            yield f"compare/{name}", _compare_item(
                ScenarioConfig.from_dict({**over, **({"duration": 0.3} if quick else {})}))
    sweep_cfg = ScenarioConfig.from_dict({"duration": 0.4, "log_interval": 1e-3})
    for k in range(0, GRID_STEPS + 1, 3):
        if not quick or k == 24:
            speed = round(GRID_LO + k * (GRID_HI - GRID_LO) / GRID_STEPS, 6)
            yield f"sweep/k{k}", _sweep_item(sweep_cfg, [speed])
    if not quick:
        yield "sweep/default", _sweep_item(ScenarioConfig(), [1.0, 1.5, 2.0, 2.5])
    for path in sorted((ROOT / "configs").glob("*.yaml")):
        if not quick or path.stem == "wall_collision":
            yield f"config/{path.stem}", _config_item(path, {"duration": 0.3} if quick else {})
    for seed in range(1, 2 if quick else 11):
        yield f"fit/s{seed}", _fit_item(seed, 2 if quick else 40)


def digest(quick=False):
    """{"items": {name: record}, "combined": SHA-256 over the names and their hashes}."""
    records = dict(items(quick))
    combined = hashlib.sha256("".join(f"{name} {r['sha256']}\n" for name, r in records.items())
                              .encode()).hexdigest()
    return {"items": records, "combined": combined}


def _rel(a, b):
    """|a - b| over the larger magnitude; inf if only one is NaN or either is infinite."""
    if a == b or float(a).hex() == float(b).hex():  # 0.0 and -0.0 differ by no amount
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare(base, head):
    """Report lines and whether every digest is equal, for two digest() results."""
    a, b = base["items"], head["items"]
    differ = [name for name in a if name not in b or a[name]["sha256"] != b[name]["sha256"]]
    differ += [name for name in b if name not in a]
    worst, where, discrete = 0.0, None, []
    for name in (name for name in a if name in b):
        ma, mb = a[name]["metrics"], b[name]["metrics"]
        for key in (key for key in ma if key in mb):
            r = _rel(ma[key], mb[key])
            if r > worst:
                worst, where = r, f"{name} {key}"
        if a[name]["discrete"] != b[name]["discrete"]:
            discrete.append(name)
    lines = [f"combined: base {base['combined']}", f"          head {head['combined']}",
             f"items: {len(a)} base, {len(b)} head, {len(differ)} differ"]
    if differ:
        lines.append(f"first item that differs: {differ[0]}")
    lines.append(f"largest relative Metrics or fit change: {worst:.3g}"
                 + (f" ({where})" if where else ""))
    lines.append("discrete outcomes: " + (
        "all equal" if not discrete and a.keys() == b.keys()
        else "differ in " + ", ".join(discrete or sorted(a.keys() ^ b.keys()))))
    return lines, not differ


def _run_on(src, out):
    """digest() of the tree whose package lies in `src`, in a fresh interpreter."""
    subprocess.run([sys.executable, str(Path(__file__).resolve()), "--src", str(src),
                    "--out", str(out)], check=True, stdout=subprocess.DEVNULL)
    return json.loads(Path(out).read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--base", metavar="REV", help="also digest REV's src/ and compare")
    ap.add_argument("--out", metavar="FILE", help="write the digest as JSON")
    ap.add_argument("--src", default=str(ROOT / "src"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    sys.path.insert(0, args.src)
    import foldquad
    got = Path(foldquad.__file__).resolve().parent
    if got != (Path(args.src) / "foldquad").resolve():
        sys.exit(f"imported foldquad from {got}, not from {args.src}")
    head = digest()
    if args.out:
        Path(args.out).write_text(json.dumps(head, indent=1, sort_keys=True) + "\n")
    if not args.base:
        for name, r in head["items"].items():
            print(r["sha256"], name)
        print(head["combined"], "combined")
        return 0
    with tempfile.TemporaryDirectory() as tmp:
        tar = subprocess.run(["git", "archive", args.base, "src"], cwd=ROOT, check=True,
                             capture_output=True).stdout
        tarfile.open(fileobj=io.BytesIO(tar)).extractall(tmp, filter="data")
        base = _run_on(Path(tmp) / "src", Path(tmp) / "base.json")
    lines, equal = compare(base, head)
    print(f"base {args.base} against the tree in {Path(args.src).parent}")
    print("\n".join(lines))
    print("digests: " + ("equal" if equal else "differ"))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
