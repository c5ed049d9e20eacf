"""Correction of measured times for the current speed of a shared machine.

The machine the bounds were set on (x86-64, 2 vCPU, Python 3.11, shared
with other tenants) switches between a slow and a fast state about 1.6x
apart, over seconds to tens of seconds, so raw times of the same work
spread by 20-45% across runs. While a timed section runs, SpeedSampler
times calibration_loop() every CAL_EVERY_S of wall time from a SIGALRM
handler, inside the program's calls too; the section subtracts the
sampling time (`busy`) from its own. `factor()` then converts the
section's time into the time it would have taken at the speed where the
loop takes CAL_REF_S, about the loop's median on that machine.

Only the standard library is used, so a set-up probe can sample while it
imports numpy and foldquad.
"""
import copy
import signal
import statistics
import time

CAL_EVERY_S = 0.05
CAL_REF_S = 0.002


def calibration_loop():
    """Fixed interpreter work, small-object copies and float arithmetic,
    independent of the program, so that its duration measures the speed
    of the machine and nothing else."""
    d = {"a": [1.0, 2.0, 3.0], "b": {"c": (1, 2), "d": "x" * 10}}
    s = 0.0
    for i in range(120):
        e = copy.deepcopy(d)
        s += e["a"][i % 3] + len(e["b"]["d"])
        s += sum([j * 1.5 for j in range(30)])
    return s


class SpeedSampler:
    """Context manager that times calibration_loop() every CAL_EVERY_S.

    `busy` is the total time spent sampling; `exclude(seconds)`, when
    given, is told of each sample as it is taken.
    """

    def __init__(self, exclude=None):
        self.samples = []
        self.busy = 0.0
        self.exclude = exclude

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        calibration_loop()
        spent = time.perf_counter() - t0
        self.samples.append(spent)
        self.busy += spent
        if self.exclude:
            self.exclude(spent)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_EVERY_S, CAL_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self):
        """Reference time per measured time over the section: the mean of
        CAL_REF_S / sample, since samples are spread evenly in wall time and
        the work done in a stretch of time is proportional to the speed.
        1.0 when the section was too short to be sampled."""
        if not self.samples:
            return 1.0
        return statistics.fmean(CAL_REF_S / s for s in self.samples)
