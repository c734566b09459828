"""Host-speed probe: calibrates wall metrics against a drifting host.

On a shared machine the same interpreter work can take 1.5-2x longer from
one second to the next (neighbouring tenants, frequency changes), with
correlation times of about a second.  Cross-run spreads of raw wall
metrics then reflect the host more than the program.  The probe runs a
fixed ~1 ms pure-Python loop at step boundaries, at most once every
``INTERVAL_S``, so it samples the host's speed across the whole timed
phase.  Its time is excluded from every wall measurement.

A slowdown is a mean probe time over ``REFERENCE_S``: the factor by
which the host ran slower than a reference host.  ``local_slowdown``
takes the mean over the probes within ``WINDOW_S`` of each given instant,
which follows bursts lasting a fraction of a second.  The calibrated
metrics divide each step's wall time by the slowdown around it, and each
set-up time by the slowdown of probes taken just before and after it;
``run.py`` also prints the raw values.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds between probes; the probe costs ~1% of the timed phase.
INTERVAL_S = 0.1
#: Probe time on the reference host: calibrated metrics read as if the
#: probe had taken exactly this long.
REFERENCE_S = 1e-3
#: Half-width of the window ``local_slowdown`` averages over.  Host speed
#: decorrelates over about a second; on the workloads here a +/-0.3 s
#: window cut the cross-seed spread of the step percentiles the most.
WINDOW_S = 0.3
_ITERATIONS = 6000

_perf = time.perf_counter


def _work() -> dict:
    table: dict[int, int] = {}
    for i in range(_ITERATIONS):
        table[i & 1023] = table.get(i & 1023, 0) + i
    return table


class HostProbe:
    """Samples host speed with a fixed loop; see the module docstring."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.at: list[float] = []     # perf_counter() when each sample started
        self._due = 0.0

    def tick(self) -> float:
        """Run the probe if one is due; returns the seconds it took (or 0)."""
        if _perf() < self._due:
            return 0.0
        return self.sample()

    def sample(self) -> float:
        """Run the probe now; returns the seconds it took."""
        start = _perf()
        _work()
        took = _perf() - start
        self.samples.append(took)
        self.at.append(start)
        self._due = start + took + INTERVAL_S
        return took

    def slowdown(self) -> float:
        """Mean slowdown over every sample taken so far."""
        return sum(self.samples) / len(self.samples) / REFERENCE_S

    def spent(self) -> float:
        return sum(self.samples)

    def local_slowdown(self, times) -> np.ndarray:
        """Slowdown around each of ``times`` (``perf_counter`` instants)."""
        times = np.asarray(times, dtype=np.float64)
        if not self.samples:
            return np.ones(times.shape)
        at = np.asarray(self.at)
        samples = np.asarray(self.samples)
        sums = np.concatenate(([0.0], np.cumsum(samples)))
        lo = np.searchsorted(at, times - WINDOW_S)
        hi = np.searchsorted(at, times + WINDOW_S)
        count = hi - lo
        mean = np.where(count > 0, (sums[hi] - sums[lo]) / np.maximum(count, 1),
                        samples.mean())
        return mean / REFERENCE_S
