"""Paths, configuration and small statistics shared by the harness."""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
#: the benchmark runs from the root of a checkout
ROOT = Path.cwd()
SRC = ROOT / "src"
CONFIG = json.loads((HERE / "config.json").read_text())
#: operator refreshes after a traced pass (per-call store figures)
TRACED_REFRESHES = 30


def pct(values, q: float) -> float:
    """Linear-interpolated percentile ``q`` (0-100) of ``values``."""
    xs = sorted(values)
    if not xs:
        return 0.0
    k = (len(xs) - 1) * q / 100.0
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def median_pct(groups, q: float) -> float:
    """Median over ``groups`` (rounds, blocks or jobs) of each group's
    percentile ``q``: a garbage-collection pause or an fsync stall that
    lands in one group does not move it."""
    return statistics.median(pct(g, q) for g in groups)


def say(line: str) -> None:
    """A human-readable report line (never the last line of output).

    It goes to standard error as well, so a log that keeps only the
    error stream still says why a run failed."""
    print(line, flush=True)
    print(line, file=sys.stderr, flush=True)
