"""Times in reference seconds: measured times scaled by the machine's speed next to them.

The benchmark runs on shared virtual machines whose speed drifts by tens of
percent over seconds to minutes, in CPU time as well as in wall time, so the
median of a 40-s run moves with the neighbours' load.  A `Clock` measures that
speed as it goes: it times a fixed pure-Python loop (`spin`) when a pass
starts, between requests whenever `INTERVAL_S` seconds have passed since the
last loop, and when the pass ends.  The work between two loops (a "stretch")
is scaled by `REFERENCE_S` over the mean of the two loop times, which gives
the seconds it would take on a machine where the loop takes `REFERENCE_S`.

The loop builds no containers, so the program's heap does not change its
time, and it calls nothing of destcalc, so a change to the program cannot
change it.  Loop time is not part of any stretch.
"""

import time

SPIN_ITERATIONS = 100_000
REFERENCE_S = 0.010  # the loop's time on the reference machine
INTERVAL_S = 0.1  # about a tenth of a pass is spent in the loop


def spin():
    """Seconds the calibration loop takes now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(SPIN_ITERATIONS):
        s += i * i % 7
    return time.perf_counter() - t0


def scale(before, after):
    """Reference seconds per measured second, for work between loops of these times."""
    return 2 * REFERENCE_S / (before + after)


class Clock:
    """Calibration loops around and between the requests of one pass."""

    def __init__(self):
        self.loops, self.starts, self.ends = [], [], []
        self.calibrate()

    def calibrate(self):
        self.starts.append(time.perf_counter())
        self.loops.append(spin())
        self.ends.append(time.perf_counter())

    def between(self):
        """Call between requests: runs a loop when one is due; returns the stretch the
        next request falls in."""
        if time.perf_counter() - self.ends[-1] >= INTERVAL_S:
            self.calibrate()
        return len(self.loops) - 1

    def close(self):
        """Ends the pass with a last loop."""
        self.calibrate()

    def scale(self, stretch):
        return scale(self.loops[stretch], self.loops[stretch + 1])

    def measured_seconds(self):
        """The pass's time without its loops."""
        return sum(self.starts[i + 1] - self.ends[i] for i in range(len(self.loops) - 1))

    def reference_seconds(self):
        """The pass's time without its loops, each stretch scaled to the reference machine."""
        return sum((self.starts[i + 1] - self.ends[i]) * self.scale(i)
                   for i in range(len(self.loops) - 1))
