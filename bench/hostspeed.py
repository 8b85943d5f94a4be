"""Host-speed sampling, so that compute time reads at one nominal speed.

This host's speed drifts between modes up to 2x apart, in spells of
seconds to minutes, so the wall time of the same solve spreads by a third
between runs.  ``Sampler`` runs a small fixed calibration kernel on a
``SIGALRM`` interval timer, every ``PERIOD_S`` of wall time, in the main
thread between bytecodes, so also in the middle of a solve.  The kernel
does the kind of work the solver does on its small blocks: 6x6 products,
a norm and a division, one numpy call at a time.  It uses no code of the
package, so a change to the package cannot change its speed.

For a timed interval of wall time ``T`` that held ``H`` seconds of kernel
runs timed ``c_1 .. c_n``, the nominal time is

    (T - H) * mean(KERNEL_REF_S / c_i)

which is the interval's own work at the speed where the kernel takes
``KERNEL_REF_S``.  Samples are spread evenly in wall time, so the mean of
``1 / c_i`` is the mean speed over the interval; a median or a trimmed
mean tracks the modes worse.  ``KERNEL_REF_S`` is the kernel's time in
this host's fast mode, so nominal times read close to the wall times of a
fast spell.
"""

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.02
KERNEL_STEPS = 30
# kernel time in the fast mode of a 2-core VM, Python 3.11.7, numpy 2.4.6
KERNEL_REF_S = 75e-6
# fewer samples than this in an interval are topped up after it ends
MIN_SAMPLES = 25
# untimed kernel runs at import: a cold first run takes up to 4x longer
WARM_RUNS = 10

_gen = np.random.default_rng(12345)
_A = _gen.standard_normal((6, 6))
_X0 = _gen.standard_normal(6)


def kernel():
    """One calibration sample's work; uses no code of the package."""
    y = _X0
    acc = 0.0
    for _ in range(KERNEL_STEPS):
        y = _A @ y
        nrm = float(np.sqrt(y @ y))
        y = y / nrm
        acc += nrm
    return acc


for _ in range(WARM_RUNS):
    kernel()


class Sampler:
    """Times ``kernel`` on an interval timer; converts wall time to nominal time."""

    def __init__(self, period=PERIOD_S):
        self.period = period
        self.samples = []
        self.spent = 0.0
        self._old = None

    def _sample(self, *_):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.spent += time.perf_counter() - t0

    def start(self):
        self._old = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self):
        if self._old is not None:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, self._old)
            self._old = None

    def mark(self):
        """The sampler's state at the start of an interval."""
        return len(self.samples), self.spent

    def nominal(self, wall, mark):
        """Nominal seconds of an interval of ``wall`` seconds begun at ``mark``."""
        n0, spent0 = mark
        work = wall - (self.spent - spent0)
        taken = self.samples[n0:]
        # an interval too short for the timer borrows the samples taken
        # right after it, which are outside the interval's wall time
        while len(taken) < MIN_SAMPLES:
            t0 = time.perf_counter()
            kernel()
            taken.append(time.perf_counter() - t0)
        return work * statistics.fmean(KERNEL_REF_S / c for c in taken)

    def speed(self):
        """Mean speed over all samples, relative to the nominal speed."""
        return statistics.fmean(KERNEL_REF_S / c for c in self.samples)
