"""Host speed probe: corrects timings for how fast the host runs right now.

On a shared host the same code runs at very different speeds from one
second to the next: on a shared 2-vCPU x86-64 host (OpenBLAS, one
thread) a fixed numpy + Python loop alternated between two speeds about
1.5x apart, in phases lasting seconds to tens of seconds, with CPU time
tracking wall time (contention for the core, not descheduling).  A run
of tens of seconds can sit entirely in either phase, so raw wall-clock
medians of identical work differed by 20-30% between runs.

:class:`HostSpeed` runs a short fixed probe — small matmuls, elementwise
math, SHA-256 and dictionary work, the kinds of work ``repro`` does —
before every timed operation, outside the timed region.  Each operation
is scaled by ``REF_S`` over the median of the probes around it — the
one just before it and ``HALF`` on either side: the time it would have
taken with the host at the probe's reference speed.  The probe
touches no ``repro`` code, so a change to the program moves the scaled
numbers exactly as it moves the raw ones; only the host's speed is
divided out.  Raw wall-clock figures are printed next to the scaled
ones, and the probe's median is recorded with every result.
"""

from __future__ import annotations

import hashlib
import statistics
import time

import numpy as np

__all__ = ["HostSpeed"]

#: the probe's duration at the faster of those two speeds; a constant,
#: so it converts units and adds no noise
REF_S = 7.0e-4
#: probes on each side of an operation's own probe in the median that
#: scales it
HALF = 2


class HostSpeed:
    """Rolling host-speed estimate from a fixed probe."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._a = rng.standard_normal((48, 48)).astype(np.float32)
        self._b = rng.standard_normal((4, 32, 64)).astype(np.float32)
        self._w = rng.standard_normal((128, 256)).astype(np.float32)
        self._x = rng.standard_normal((256, 64)).astype(np.float32)
        self._buf = self._b.tobytes()
        self.samples: list[float] = []

    def _kernel(self) -> None:
        a, b = self._a, self._b
        rng = np.random.default_rng(1)
        for _ in range(4):
            a @ a
            self._w @ self._x
            np.tanh(b) * 1.5 + b
            np.fft.ifft2(np.fft.fft2(rng.standard_normal((32, 64))))
            hashlib.sha256(self._buf[:4096]).digest()
            d: dict = {}
            for i in range(100):
                d[i % 17] = d.get(i % 17, 0) + i

    def probe(self) -> int:
        """Run the probe once; returns its index."""
        t0 = time.perf_counter()
        self._kernel()
        self.samples.append(time.perf_counter() - t0)
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Scale for an operation timed right after probe ``i``."""
        return REF_S / statistics.median(
            self.samples[max(0, i - HALF):i + HALF + 1])

    def index(self) -> float:
        """Median probe time over the reference: 1.0 at reference speed,
        larger on a slower host."""
        return statistics.median(self.samples) / REF_S
