"""Host-speed sampling, so that timings taken on a shared machine compare.

On a shared 2-vCPU VM the same command's wall time moves by up to 50%
within minutes, as other tenants load the host, and the process's CPU time
moves with it.  While a timed region runs, `Sampler` times a fixed
pure-Python kernel from a SIGALRM handler every `interval` seconds, and once
on entry and on exit.  A timing is then reported at the reference speed:

    scaled = (wall - time spent in the handler) * mean(REF_S / kernel time)

REF_S is the kernel's time on an unloaded core of that VM, so on it a scaled
time reads about as the wall time would with the host quiet.  The kernel is
benchmark code: a change to bnfsim moves scaled times as it moves wall times.
"""
import signal
import statistics
import time

perf = time.perf_counter
KERNEL_N = 4000
REF_S = 2.5e-4


def kernel():
    """Seconds one fixed pure-Python loop takes now."""
    t0 = perf()
    s = 0
    for k in range(KERNEL_N):
        s += k * k
    return perf() - t0


class Sampler:
    """Context manager; `spent` is the handler's running total, so a caller
    can take it out of any interval inside the region."""

    def __init__(self, interval):
        self.interval = interval
        self.samples = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        t0 = perf()
        self.samples.append(kernel())
        self.spent += perf() - t0

    def __enter__(self):
        self.samples.append(kernel())
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.samples.append(kernel())
        return False

    @property
    def speed(self):
        """Mean speed over the region, relative to the reference."""
        return statistics.mean(REF_S / k for k in self.samples)

    def scaled(self, wall):
        """`wall` seconds, net of handler time, at the reference speed."""
        return wall * self.speed
