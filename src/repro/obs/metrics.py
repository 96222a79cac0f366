"""Metric registry: counters, gauges, histograms, and timers.

Design constraints (see docs/OBSERVABILITY.md):

* **Deterministic where it matters.**  Counters, gauges and histograms
  are pure functions of the executed search, never of the clock, so
  tests can assert exact values.  Wall-clock accumulation lives in a
  separate ``timers`` table that reports exclude from determinism
  guarantees.
* **Cheap.**  ``inc`` is a dict ``get``/store; the engines additionally
  guard every call behind a single ``enabled`` check so the
  uninstrumented path pays one attribute load.
* **Zero dependencies.**  Plain dicts, stdlib only.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional

__all__ = ["Metrics", "HistogramSummary"]


#: Maximum retained observations per histogram.  Beyond this the
#: reservoir decimates deterministically (keep every other sample,
#: double the stride), so memory stays bounded while quantiles remain a
#: pure function of the observation sequence -- no RNG involved.
RESERVOIR_CAP = 512


class HistogramSummary:
    """Streaming summary of observed values: count / total / min / max,
    plus a bounded *deterministic* reservoir for quantile estimates.

    The reservoir keeps every ``stride``-th observation (stride starts at
    1); when it fills past :data:`RESERVOIR_CAP` it drops every other
    retained sample and doubles the stride.  Identical observation
    sequences therefore always yield identical percentiles -- the same
    determinism contract as the counters (see docs/OBSERVABILITY.md).
    """

    __slots__ = ("count", "total", "min", "max", "_samples", "_stride")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._stride = 1

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        if (self.count - 1) % self._stride == 0:
            self._samples.append(value)
            if len(self._samples) > RESERVOIR_CAP:
                self._samples = self._samples[::2]
                self._stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile estimate over the retained reservoir.

        *q* is in [0, 100].  Exact while ``count <= RESERVOIR_CAP``;
        afterwards an estimate over the strided sample.  Returns 0.0 for
        an empty histogram (mirroring ``min``/``max`` in ``as_dict``).
        """
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        rank = max(0, min(len(ordered) - 1, int(q / 100.0 * len(ordered) + 0.5) - 1))
        return ordered[rank]

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "HistogramSummary(%s)" % self.as_dict()


class Metrics:
    """A named registry of counters, gauges, histograms, info and timers.

    ``counters``
        Monotonically increasing event counts (``inc``).
    ``gauges``
        High-water marks (``gauge_max``) or last-set values
        (``set_gauge``) -- e.g. frontier peak size, budget spent.
    ``histograms``
        Value distributions (``observe``) -- e.g. answers per table key.
    ``info``
        Small string facts (``set_info``) -- engine chosen, sublanguage.
    ``timers``
        Accumulated wall-clock seconds (``add_time`` / ``timer``).
        Deliberately segregated: everything *except* timers is
        deterministic for a fixed program and goal.
    """

    __slots__ = ("counters", "gauges", "histograms", "info", "timers")

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, HistogramSummary] = {}
        self.info: Dict[str, str] = {}
        self.timers: Dict[str, float] = {}

    # -- recording ------------------------------------------------------------

    def inc(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name* (creating it at zero)."""
        self.counters[name] = self.counters.get(name, 0) + n

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge *name* to *value* if larger (high-water mark)."""
        current = self.gauges.get(name)
        if current is None or value > current:
            self.gauges[name] = value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to *value* unconditionally."""
        self.gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        """Record *value* into histogram *name*."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = HistogramSummary()
        hist.observe(value)

    def set_info(self, name: str, value: str) -> None:
        """Record a string fact (engine name, sublanguage, ...)."""
        self.info[name] = str(value)

    def add_time(self, name: str, seconds: float) -> None:
        """Accumulate *seconds* into timer *name*."""
        self.timers[name] = self.timers.get(name, 0.0) + seconds

    @contextmanager
    def timer(self, name: str) -> Iterator[None]:
        """Time a block of code into timer *name* (accumulating)."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add_time(name, time.perf_counter() - t0)

    # -- reading --------------------------------------------------------------

    def counter(self, name: str) -> int:
        """Current value of counter *name* (0 if never incremented)."""
        return self.counters.get(name, 0)

    def gauge(self, name: str) -> float:
        """Current value of gauge *name* (0 if never set)."""
        return self.gauges.get(name, 0.0)

    def snapshot(self, include_timers: bool = True) -> Dict[str, object]:
        """A plain-dict copy, suitable for JSON serialization.

        With ``include_timers=False`` the counters, gauges and info are
        deterministic for a fixed search; histograms (the store's fsync
        latencies) still time the clock.
        """
        out: Dict[str, object] = {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {k: v.as_dict() for k, v in self.histograms.items()},
            "info": dict(self.info),
        }
        if include_timers:
            out["timers"] = dict(self.timers)
        return out

    def merge(self, other: "Metrics") -> None:
        """Fold *other* into this registry (counters add, gauges max)."""
        for name, n in other.counters.items():
            self.inc(name, n)
        for name, v in other.gauges.items():
            self.gauge_max(name, v)
        for name, hist in other.histograms.items():
            mine = self.histograms.get(name)
            if mine is None:
                mine = self.histograms[name] = HistogramSummary()
            mine.count += hist.count
            mine.total += hist.total
            mine._samples.extend(hist._samples)
            mine._stride = max(mine._stride, hist._stride)
            while len(mine._samples) > RESERVOIR_CAP:
                mine._samples = mine._samples[::2]
                mine._stride *= 2
            for bound in ("min", "max"):
                theirs = getattr(hist, bound)
                if theirs is not None:
                    ours = getattr(mine, bound)
                    pick = min if bound == "min" else max
                    setattr(
                        mine, bound, theirs if ours is None else pick(ours, theirs)
                    )
        self.info.update(other.info)
        for name, seconds in other.timers.items():
            self.add_time(name, seconds)

    def reset(self) -> None:
        """Drop every recorded value (reuse one registry across runs)."""
        self.counters.clear()
        self.gauges.clear()
        self.histograms.clear()
        self.info.clear()
        self.timers.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Metrics(counters=%d, gauges=%d, timers=%d)" % (
            len(self.counters),
            len(self.gauges),
            len(self.timers),
        )
