"""Host-speed probe: takes the host's drift out of the time metrics.

On a shared host the same pure-Python work runs up to 1.6x slower from
one ten-second window to the next (measured on a shared 2-vCPU VM),
which swamps any change the benchmark is meant to see.  The
probe is a fixed piece of interpreter work of the kind the program
does (string formatting, dict updates, a sort).  It runs on the SUT's
own thread, interleaved with the measured work, and every measured time
is scaled by ``REFERENCE_S / probe`` with ``probe`` the median probe
time around it: the metrics read as times at a fixed reference speed.
The raw figures and the probe medians are printed on the report lines.
"""

from __future__ import annotations

import statistics
import time

#: probe time at the reference speed (its median on a 2-vCPU 2.1 GHz VM)
REFERENCE_S = 0.00015


def probe() -> float:
    """Seconds one fixed unit of interpreter work takes right now."""
    t0 = time.perf_counter()
    d: dict[str, int] = {}
    for i in range(200):
        k = f"k{i * 7919 % 201}"
        d[k] = d.get(k, 0) + i
    sorted(d.items())
    return time.perf_counter() - t0


def probes(n: int = 5) -> list[float]:
    return [probe() for _ in range(n)]


def factor(samples) -> float:
    """``REFERENCE_S / median(samples)``: multiply a time by it."""
    samples = list(samples)
    if not samples:
        return 1.0
    return REFERENCE_S / statistics.median(samples)


def scaled(times, paired_probes, *, window: int = 5) -> list[float]:
    """Scale each time by the median of the ``window`` probes nearest it.

    ``paired_probes[i]`` was taken just before ``times[i]``; a single
    short probe is noisy, so each time uses its neighbours' too.
    """
    n = len(times)
    half = window // 2
    out = []
    for i, t in enumerate(times):
        lo = max(0, min(i - half, n - window))
        out.append(t * factor(paired_probes[lo:lo + window]))
    return out
