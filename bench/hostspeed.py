"""Host-speed sampling, so that timed passes can be scaled to one speed.

The 2-vCPU VM this benchmark was sized on changes speed by up to 1.8x over
tens of seconds.  Process CPU time slows with wall time, so the cause lies
outside the process.  Raw timings of the same code then spread by 25-40%
between runs (README.md, "Noise"), more than any regression bound.

While a pass is timed, Sampler runs a fixed reference kernel from a
SIGALRM handler every INTERVAL_S and records how long it took.  The kernel
is the benchmark's own code, so a change to primeforest cannot move it;
only the host can.  A request's scaled time is its measured time times
REFERENCE_S over the kernel's median time around the request: the time it
would have taken with the host at reference speed.  The handler's own time
is left out of the work clock (Sampler.now) that requests are timed with.
Set-up time is scaled by kernel runs made right after set-up ends.
"""

import bisect
import signal
import statistics
import time

INTERVAL_S = 0.01
# Samples within this distance of a request count for its scale.
WINDOW_S = 0.05
# The kernel's time on this VM (Xeon, 2.1 GHz, Python 3.11) while the host
# is quiet.  Fixed: it only sets the scale in which times are reported.
REFERENCE_S = 250e-6
KERNEL_STEPS = 4000


def reference_kernel():
    """Fixed pure-Python integer arithmetic.

    Kernels that also built dicts, tuples or objects, or chased pointers
    through an 8 MB array, tracked primeforest's slowdowns no better.  This
    one allocates nothing, so its time does not depend on the state of the
    program's heap, only on the host.
    """
    acc = 0
    for i in range(KERNEL_STEPS):
        acc += i * i % 7
    return acc


def kernel_time(runs=25):
    """Median seconds of `runs` back-to-back kernel runs."""
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        reference_kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def scaled(seconds, kernel_s):
    """`seconds` measured while the kernel took `kernel_s`, at reference
    speed."""
    return seconds * REFERENCE_S / kernel_s


class Sampler:
    """Samples host speed while started; now() is the work clock."""

    def __init__(self):
        self.paused = 0.0       # seconds spent inside the handler
        self.ticks = 0
        self.stamps = []        # work-clock time of each sample
        self.kernel_s = []      # the kernel's time in each sample
        self._previous = None

    def now(self):
        """perf_counter() minus the time spent sampling."""
        while True:
            ticks = self.ticks
            t = time.perf_counter() - self.paused
            if ticks == self.ticks:    # no sample ran in between
                return t

    def _sample(self, _signum, _frame):
        # Allocates no container, so no garbage collection can start here.
        t0 = time.perf_counter()
        reference_kernel()
        t1 = time.perf_counter()
        self.stamps.append(t0 - self.paused)
        self.kernel_s.append(t1 - t0)
        self.ticks += 1
        self.paused += time.perf_counter() - t0

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def __enter__(self):
        self.start()
        return self

    def __exit__(self, *_exc):
        self.stop()

    def scale(self, intervals):
        """Scaled seconds of each (start, end) work-clock interval."""
        if not self.stamps:
            raise RuntimeError("no host-speed sample was taken")
        out = []
        for a, b in intervals:
            lo = bisect.bisect_left(self.stamps, a - WINDOW_S)
            hi = bisect.bisect_right(self.stamps, b + WINDOW_S)
            if lo == hi:        # no sample near: take the next or last one
                lo = min(lo, len(self.stamps) - 1)
                hi = lo + 1
            kernel = statistics.median(self.kernel_s[lo:hi])
            out.append(scaled(b - a, kernel))
        return out
