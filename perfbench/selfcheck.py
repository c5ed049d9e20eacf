"""Check that the traced-count check catches a lookup site left unwrapped.

Run from the repository root: `python3 perfbench/selfcheck.py`. Every
traced benchmark run already applies `tracer.check_counts`; this script
runs it once as is and once with the `integrate_step` that `collision`
binds at import left unwrapped. It exits 0 when the first passes and the
second reports an undercount.
"""
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from foldquad import scenario  # noqa: E402

import tracer  # noqa: E402


def main():
    problems = tracer.check_counts(scenario)
    missed = tracer.check_counts(scenario, skip={("foldquad.collision", "integrate_step")})
    for p in problems:
        print(f"FAIL {p}")
    if not missed:
        print("FAIL an unwrapped lookup site went unnoticed")
    else:
        print(f"ok: an unwrapped lookup site is caught ({missed[0]})")
    if problems or not missed:
        return 1
    print("ok: traced counts match the run's step and tick counts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
