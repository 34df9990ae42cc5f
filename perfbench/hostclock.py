"""Host-speed sampling during timed passes.

The benchmark runs on a few cores of a shared host whose speed drifts: on
a 2-vCPU Intel Xeon VM, identical domain_adapt_admm passes of one run took
1.39 s and 2.17 s a few seconds apart.  ``HostClock`` measures that drift
while a pass runs.  An interval timer (``SIGALRM``) interrupts the pass
every ``INTERVAL_S`` and times one run of a fixed probe kernel that lives
here, not in the program.  A pass's wall time divided by its probes' mean
time, times the probe's reference time, is the pass's wall time at the
reference host speed: a change to the program moves it, a change in host
speed mostly does not.  The time spent in probes is taken out of the pass's
wall time.

The probe mixes the costs mmdot's passes are made of: small-array numpy calls
driven from a Python loop (the regime of the m=24 ADMM prox solves and the
per-iteration bookkeeping of FW) and full-array passes over a 256x256 array
(the kind of work of the FW gradient scan on large plans).
"""

from __future__ import annotations

import signal
import time

import numpy as np

INTERVAL_S = 0.2
# Back-to-back probe runs that gauge the host right after set-up.
SETUP_PROBES = 25
# Mean probe time on an unloaded 2-vCPU Intel Xeon VM with one BLAS thread.
# Only the ratio of two runs' results matters, so this constant just keeps
# the normalised figure near a wall time on that host.
REFERENCE_PROBE_S = 2.0e-3


class HostClock:
    """Samples the probe's time on a timer while a pass runs."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._S = rng.random((24, 24))
        self._w = rng.random(24)
        self._A = rng.random((256, 256))
        self._B = rng.random(256)
        self._out = np.empty_like(self._A)
        self.samples = []
        self.spent = 0.0

    def _probe(self):
        """A fixed amount of interpreter-driven and array-streaming work."""
        S, w, out = self._S, self._w, self._out
        s = 0.0
        for _ in range(120):
            g = S + w[:, None]
            s += float(g.ravel()[int(np.argmin(g))]) + float(w @ S @ w)
        for _ in range(8):
            np.add(self._A, self._B, out=out)
            s += float(out.ravel()[int(np.argmin(out))])
        return s

    def _sample(self, *_):
        # Timed as the pass leaves the caches: refilling them is part of
        # what a slower memory system costs the pass too.  Across the four
        # workloads this tracked the pass better than timing a second, warm
        # run.
        t0 = time.perf_counter()
        self._probe()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def gauge(self):
        """Mean time of ``SETUP_PROBES`` back-to-back probe runs, taken
        outside any pass (after set-up, which the timer cannot cover: it
        needs numpy imported)."""
        self.samples = []
        for _ in range(SETUP_PROBES):
            self._sample()
        return sum(self.samples) / len(self.samples)

    def start(self):
        """Begin a pass: clear the samples and arm the timer."""
        self.samples, self.spent = [], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        """End a pass: disarm the timer, take one more sample, return
        ``(probe seconds spent during the pass, mean probe time)``."""
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        spent = self.spent
        self._sample()
        return spent, sum(self.samples) / len(self.samples)
