"""Host-speed normalisation for the fncalc benchmark.

On a shared VM the speed of the host drifts: the same fncalc operation was
seen to take 0.25 s and 0.45 s within a minute, and a pure-Python loop slows
down at the same moments, in CPU time as much as in wall time. A series of
runs that crosses a busy period then measures the host, not the program.

So a run also times a fixed reference kernel, many times over: between the
operations of every pass, and around every cold process. Every time the run
reports is divided by the run's host factor,

    factor = mean kernel time in this run / REFERENCE_S,

which gives the time the work would have taken on a host where the kernel
takes ``REFERENCE_S``. Single kernel timings jump by a third within a
second, so the run-wide mean is used rather than the timings next to each
operation. The kernel is pure Python written here (dict and tuple handling
and small-integer arithmetic, the work of a sparse polynomial product), so
no change to fncalc can change its cost, and its own time is never counted
as program time. The raw times are kept beside the normalised ones.

The speed differs between the two vCPUs of the VM it was measured on, so
``pin`` keeps the benchmark and the processes it starts on one CPU: the
kernel then runs where the timed work runs.
"""

from __future__ import annotations

import os
import statistics
import time

#: The kernel's time on the reference host. Normalised figures are seconds
#: on a host where ``kernel()`` takes this long.
REFERENCE_S = 0.003
#: Kernel repetitions per sample; the sample is their median.
REPS = 5

_TERMS = {(i, j): (7 * i + 3 * j) % 5 - 2 for i in range(10) for j in range(10)}


def kernel() -> dict:
    """The product of two dense bivariate polynomials, as dicts of monomials."""
    out: dict = {}
    for (i1, j1), c1 in _TERMS.items():
        for (i2, j2), c2 in _TERMS.items():
            key = (i1 + i2, j1 + j2)
            out[key] = out.get(key, 0) + c1 * c2
    return out


def pin() -> int | None:
    """Keep this process, and the children it starts, on its lowest allowed CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Kernel samples of one run, and the host factor they give."""

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> None:
        """Time ``REPS`` runs of the kernel and keep their median."""
        times = []
        for _ in range(REPS):
            start = time.perf_counter()
            kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))

    def factor(self) -> float:
        """Mean kernel time over ``REFERENCE_S``, without the top and bottom 5%.

        The kernel's times are bimodal: about 2.1 ms and 3.6 ms on the VM
        this was measured on, in stretches of a few samples, and the share of
        slow stretches changes from run to run. Timed work is slowed in
        proportion to that share, so the factor is a mean; the median would
        jump from one mode to the other.
        """
        ordered = sorted(self.samples)
        cut = len(ordered) // 20
        return statistics.fmean(ordered[cut : len(ordered) - cut]) / REFERENCE_S
