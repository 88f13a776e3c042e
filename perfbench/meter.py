"""Timing at a reference machine speed.

On a virtual machine whose cores are shared with other tenants (measured
on a 2-vCPU x86_64 VM), the same fixed loop of Python and small-NumPy work
takes anywhere from 1x to 2x its fastest time, in phases lasting from a
second to minutes.  Raw wall times of identical runs then differ by 20-40%,
more than any regression bound worth having.

So every timed op is bracketed by a fixed probe of the same kind of work as
the library's inner loops (small stacked complex matmuls, ``np.roll`` and
Python-level scalar conversion), and the op's wall time is rescaled to the
speed at which the probe takes ``PROBE_REF_S``:

    scaled = op seconds * PROBE_REF_S / mean(probe before, probe after)

A code change that makes an op faster lowers its scaled time in the same
proportion; a host that slows the op and the probe alike leaves it
unchanged.  Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import statistics
import time
from collections import defaultdict

import numpy as np

PROBE_REPS = 500
PROBE_REF_S = 0.010


def probe() -> float:
    """Seconds taken by a fixed amount of reference work."""
    a = np.full((8, 2, 2), 0.5 + 0.1j)
    acc = 0.0
    t0 = time.perf_counter()
    for _ in range(PROBE_REPS):
        acc += float((a @ a)[0, 0, 0].real)
        a = np.roll(a, 1, axis=0)
    return time.perf_counter() - t0


def scaled(fn):
    """Run ``fn()`` between two probes; return (raw s, scaled s, result)."""
    before = probe()
    t0 = time.perf_counter()
    out = fn()
    raw = time.perf_counter() - t0
    return raw, raw * 2 * PROBE_REF_S / (before + probe()), out


class Meter:
    """A ``measure(name, fn)`` callback keeping raw and scaled times per op."""

    def __init__(self):
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.scaled: dict[str, list[float]] = defaultdict(list)

    def __call__(self, name, fn):
        raw, seconds, out = scaled(fn)
        self.raw[name].append(raw)
        self.scaled[name].append(seconds)
        return out

    def pass_seconds(self, raw: bool = False) -> float:
        """One pass at reference speed (or raw): the per-op medians, summed."""
        return sum(statistics.median(v) for v in (self.raw if raw else self.scaled).values())
