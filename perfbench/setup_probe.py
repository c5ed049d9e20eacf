"""One set-up sample, in a fresh interpreter: import foldquad and build the
workload's inputs. Prints the seconds taken as measured, then scaled to
the reference machine speed (see speed.py). Started by run.py as
`python3 perfbench/setup_probe.py <workload> <seed> <workdir>`."""
import sys
import time

import speed

with speed.SpeedSampler() as sampler:
    t0 = time.perf_counter()

    import foldquad  # noqa: E402,F401  (the import is what is being timed)

    import workloads  # noqa: E402

    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), sys.argv[3])
    raw = time.perf_counter() - t0 - sampler.busy
print(repr(raw), repr(raw * sampler.factor()))
