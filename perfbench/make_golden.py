"""Write golden.json: the Metrics of every run the scenario workloads can make.

Run from the repository root as `python3 perfbench/make_golden.py`. The
file holds the values of the commit that added the benchmark; the
benchmark reports drift from them and never gates on it, so regenerate it
only to re-anchor "same behaviour" deliberately, and say so in CHANGES.md.
"""
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foldquad import scenario  # noqa: E402

import workloads as wl  # noqa: E402


def main():
    ref = scenario.compare_modes(scenario.ScenarioConfig())
    golden = {wl.ReferenceCompare.name: ref.to_dict(), wl.ImpactSweep.name: {}}
    cfg = scenario.ScenarioConfig(duration=wl.SWEEP_DURATION, log_interval=1e-3)
    for k in range(wl.SWEEP_GRID_STEPS + 1):
        fold, rigid = scenario.sweep_velocities(cfg, [wl.sweep_grid_speed(k)])
        golden[wl.ImpactSweep.name][str(k)] = {
            "speed": fold.speed,
            "achieved_v_c": fold.achieved_v_c,
            "foldable": fold.metrics.to_dict(),
            "rigid": rigid.metrics.to_dict(),
        }
    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
