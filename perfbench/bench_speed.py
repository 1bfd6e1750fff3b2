"""Host-speed correction for the benchmark's end-to-end timings.

The benchmark runs on shared cores whose speed drifts: on a 2-vCPU cloud
host (2.1 GHz x86-64) the same `tribell verify` call took from 4.9 s to
8.9 s within three minutes, with no steal time reported.  So while a
timing runs, a SIGALRM handler runs a short slice of a fixed reference
loop every INTERVAL_S of wall time.  The loop uses no tribell code; it
mixes the kinds of work the CLI does (a batched einsum with a norm, small
Hermitian eigensolves, scalar Python arithmetic).  Time spent in the
handler is taken out of the timing, and the timing is scaled by

    REF_SLICE_S / (measured seconds per slice)

so it reads as the time the work would take on a host where one slice
takes REF_SLICE_S.  A change to tribell leaves the loop alone, so it moves
the scaled time by the same share as the raw one.  On that host the
scaling cut the spread of one call's time between quartiles from 19-28%
to 5-8% of its median.
"""

from __future__ import annotations

import math
import signal
import time
from contextlib import contextmanager

import numpy as np

INTERVAL_S = 0.02
REF_SLICE_S = 0.0005  # a scale only: about one slice on that host
_REPS = 8

_RNG = np.random.default_rng(12345)
_TENSOR = _RNG.normal(size=(3, 3, 3))
_VECTORS = _RNG.normal(size=(4, 50, 3))
_HERMS = [m + m.conj().T for m in
          (_RNG.normal(size=(4, 4)) + 1j * _RNG.normal(size=(4, 4))
           for _ in range(2))]


def reference_slice() -> float:
    """One slice of the reference loop; returns a checksum."""
    total = 0.0
    for _ in range(_REPS):
        coeff = (np.einsum("ijk,nj,nk->ni", _TENSOR, _VECTORS[0], _VECTORS[1])
                 + np.einsum("ijk,nj,nk->ni", _TENSOR, _VECTORS[2],
                             _VECTORS[3]))
        coeff /= np.linalg.norm(coeff, axis=1)[:, None]
        total += float(coeff[0, 0])
        for herm in _HERMS:
            total += float(np.linalg.eigvalsh(herm)[0])
        x = 0.3
        for k in range(60):
            x = math.sqrt(x * x + 0.1 * k) * 0.5 + math.atan2(x, 1.0 + k)
        total += x
    return total


class Sampler:
    """Reference-loop slices run from SIGALRM while `active`."""

    def __init__(self):
        self.seconds = 0.0
        self.slices = 0

    def _tick(self, *_):
        start = time.perf_counter()
        reference_slice()
        self.seconds += time.perf_counter() - start
        self.slices += 1

    @contextmanager
    def active(self):
        previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()  # so that even a short timing has one slice
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def factor(self) -> float:
        """REF_SLICE_S over the measured seconds per slice."""
        return REF_SLICE_S * self.slices / self.seconds


def timed(sampler: Sampler, fn):
    """(seconds of fn() without the sampler's slices, its result)."""
    before = sampler.seconds
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start - (sampler.seconds - before)
    return seconds, result
