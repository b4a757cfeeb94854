"""Timing on a shared host, corrected for the host's speed at the time.

The benchmark's host is a few vCPUs of a shared machine whose speed
changes under other tenants' load: a fixed single-threaded kernel runs
1.0x to 1.7x its fastest time, in spells from a tenth of a second to
minutes.  A 30-s run can sit mostly in one state or the other, so raw
medians move by up to a third between runs of the same code.

``HostSpeed`` brackets every timed operation with a probe: the median
of ``PROBE_REPEATS`` runs of a fixed kernel (a Python dict loop and a
numpy sort).  A sample is reported as its wall time times
``KERNEL_REF_S / mean of the two probes``: the time the operation would
take on a host where the kernel takes ``KERNEL_REF_S``, about its time
on an uncontended vCPU of the Xeon host the benchmark was tuned on.  A
fixed reference steadies runs better than the fastest kernel run of
each run, which itself moves with the host's state.  The probe lives
here, so it is the same on every commit of the program.  Epoch latency
and the adjacent probe correlate at about 0.83 on a 2-vCPU host.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter

import numpy as np

PROBE_REPEATS = 8
KERNEL_REF_S = 2.5e-3
# A probe taken this recently (seconds) also serves as the next
# operation's opening probe.
PROBE_REUSE_S = 0.25


class HostSpeed:
    """Brackets timed operations with host-speed probes."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._array = rng.random(200_000)
        self._table = {i: 7 * i for i in range(20_000)}
        self._fastest = float("inf")
        self._last = (float("-inf"), 0.0)  # (perf_counter at end, probe)
        self._probes: list[float] = []

    def _kernel(self) -> int:
        acc = 0
        for key in range(20_000):
            acc += self._table[key] & 3
        np.sort(self._array)
        return acc

    def probe(self) -> float:
        runs = []
        for _ in range(PROBE_REPEATS):
            t0 = perf_counter()
            self._kernel()
            runs.append(perf_counter() - t0)
        self._fastest = min(self._fastest, min(runs))
        value = statistics.median(runs)
        self._last = (perf_counter(), value)
        self._probes.append(value)
        return value

    @contextmanager
    def timed(self, samples: list):
        """Time the body and append ``(wall_s, probe_before, probe_after)``
        to ``samples``; nothing is appended when the body raises."""
        at, value = self._last
        before = value if perf_counter() - at <= PROBE_REUSE_S else self.probe()
        t0 = perf_counter()
        yield
        wall = perf_counter() - t0
        samples.append((wall, before, self.probe()))

    def scaled(self, samples: list) -> list[float]:
        """Wall times on a host where the kernel takes ``KERNEL_REF_S``."""
        return [w * KERNEL_REF_S / (0.5 * (a + b)) for w, a, b in samples]

    @staticmethod
    def raw(samples: list) -> list[float]:
        return [w for w, _, _ in samples]

    def summary(self) -> dict:
        return {
            "probes": len(self._probes),
            "probe_ms_p50": 1e3 * statistics.median(self._probes),
            "fastest_kernel_ms": 1e3 * self._fastest,
        }
