"""The machine's speed, sampled during timed runs, to put run times on one
scale.

On a shared host the same code runs up to 1.5x faster or slower from one
stretch of ten seconds to the next, on both vCPUs at once, and a whole
measuring window often sits in one such stretch; no statistic over the runs
of a window removes that. So while the runs are timed, a SIGALRM handler
times a fixed calibration chunk every ``INTERVAL_S``, in the same process and
on the same core. It runs the chunk twice and times the second call: the
first refills the caches the run has just used, so the timed call measures
the machine, not the run's memory footprint (timed cold, the chunk ran 1.3x
slower inside ``landmarks_q1`` than inside ``lkdl_q3`` at the same speed;
timed warm, 1.03x). The chunk is the kind of code the library spends its time
in (a per-column greedy pursuit with Cholesky solves on the support, and
k-means centre updates over 8000 points) but the benchmark's own, on fixed
data, so a change to the library does not change it. A tiny pure-Python or
BLAS loop tracks these code paths' slow-downs only in part; a pursuit chunk
tracks them closely (NOTES.md has the figures).

An interval's time at reference speed is its wall time minus the chunks'
own time in it, divided by its slowness: the chunk's mean time in it over
``REFERENCE_S``. ``REFERENCE_S`` is the chunk's usual time on the machine the
benchmark was written on (2-vCPU Intel Xeon, Emerald Rapids class), so there
the corrected times read about as its wall clock does.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np
import scipy.linalg

#: Seconds between samples; a sample (two chunks) takes about 2 ms, so the
#: samples take about 4 % of a run, and that time is taken out again.
INTERVAL_S = 0.05
#: The warm chunk's usual time on the machine the benchmark was written on.
REFERENCE_S = 1.0e-3
#: Samples an interval needs to be scaled by its own slowness.
MIN_SAMPLES = 8

_rng = np.random.default_rng(20150918)
_D = _rng.standard_normal((24, 50))
_D /= np.linalg.norm(_D, axis=0)
_GRAM = _D.T @ _D
_CORR = _D.T @ _rng.standard_normal((24, 6))
_POINTS = _rng.standard_normal((20, 8000))
_ASSIGN = _rng.integers(0, 800, 8000)


def chunk() -> None:
    """Fixed work: six 3-sparse greedy pursuits over a 50-atom Gram, then
    six k-means centre updates."""
    for i in range(_CORR.shape[1]):
        corr0, support, gamma = _CORR[:, i], [], np.zeros(0)
        mask = np.zeros(_GRAM.shape[0], dtype=bool)
        while len(support) < 3:
            corr = corr0 - _GRAM[:, support] @ gamma if support else corr0.copy()
            corr[mask] = 0.0
            j = int(np.argmax(np.abs(corr)))
            support.append(j)
            mask[j] = True
            factor = scipy.linalg.cho_factor(
                _GRAM[np.ix_(support, support)], check_finite=False
            )
            gamma = scipy.linalg.cho_solve(
                factor, corr0[support], check_finite=False
            )
    for j in range(6):
        members = _ASSIGN == j
        if np.any(members):
            _POINTS[:, members].mean(axis=1)


class SpeedProbe:
    """Times ``chunk`` every ``INTERVAL_S`` while used as a context manager.

    ``samples`` holds (start, busy, seconds) of every sample: when it
    started, the time both chunks took and the time of the timed one.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def _on_alarm(self, signum, frame):
        self.sample()

    def sample(self) -> None:
        t0 = perf_counter()
        chunk()
        t1 = perf_counter()
        chunk()
        t2 = perf_counter()
        self.samples.append((t0, t2 - t0, t2 - t1))

    def scale(self, start: float, end: float):
        """For the run between ``start`` and ``end``: its slowness (the
        timed chunk's mean time in it over ``REFERENCE_S``), and a function
        that gives an interval of the run its time at reference speed.

        The speed can change within a run, so an interval with at least
        ``MIN_SAMPLES`` samples in it is scaled by its own slowness, a
        shorter one by the run's."""
        inside = [s for s in self.samples if start <= s[0] < end]
        if not inside:  # a run shorter than INTERVAL_S
            self.sample()
            inside = self.samples[-1:]

        def slowness(samples):
            return statistics.fmean(s[2] for s in samples) / REFERENCE_S

        overall = slowness(inside)

        def at_reference(a: float, b: float) -> float:
            samples = [s for s in inside if a <= s[0] < b]
            busy = sum(s[1] for s in samples)
            own = slowness(samples) if len(samples) >= MIN_SAMPLES else overall
            return (b - a - busy) / own

        return overall, at_reference
