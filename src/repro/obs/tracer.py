"""Span-based tracing for engine searches.

A *span* is one timed region of a search -- a ``solve`` call, a nested
``iso-subsearch``.  Spans carry sequential
string ids and a ``parent_id``, so a finished trace reconstructs the
search tree.  Serialization is JSON lines: one object per line, append
friendly, parseable by anything.

The tracer tolerates out-of-order span closure: engine entry points are
generators, so an outer span's generator may be closed while an inner
sibling (another abandoned generator) is still pending.  Ending a span
removes it from wherever it sits on the open stack.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional

__all__ = ["Span", "Tracer", "read_jsonl"]

#: Event attribute clip length: events record *which* config/branch was
#: affected, and a prefix identifies it; full renderings belong to the
#: provenance log.
_CLIP = 160


def _clip(text: str, limit: int = _CLIP) -> str:
    return text if len(text) <= limit else text[: limit - 3] + "..."


class Span:
    """One traced region.  ``end`` is ``None`` while the span is open."""

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start", "end")

    def __init__(
        self,
        span_id: str,
        parent_id: Optional[str],
        name: str,
        attrs: Dict[str, object],
        start: float,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = attrs
        self.start = start
        self.end: Optional[float] = None

    @property
    def duration(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "attrs": dict(self.attrs),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Span(%s %s parent=%s)" % (self.span_id, self.name, self.parent_id)


class Tracer:
    """Records spans with parent links; serializes as JSON lines.

    ``clock`` is injectable for deterministic tests (defaults to
    :func:`time.perf_counter`).  Span ids are sequential (``s1``,
    ``s2``, ...) in creation order, so they are deterministic for a
    fixed search even though timestamps are not.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._next_id = 0
        self._open: List[Span] = []
        self.spans: List[Span] = []  # finished, in completion order

    # -- span lifecycle -------------------------------------------------------

    def start(self, name: str, **attrs: object) -> Span:
        """Open a span as a child of the innermost open span."""
        self._next_id += 1
        parent = self._open[-1].span_id if self._open else None
        span = Span("s%d" % self._next_id, parent, name, attrs, self._clock())
        self._open.append(span)
        return span

    def finish(self, span: Span) -> None:
        """Close *span*, recording it; tolerates out-of-order closure."""
        if span.end is not None:
            return
        span.end = self._clock()
        try:
            self._open.remove(span)
        except ValueError:  # pragma: no cover - defensive
            pass
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Span]:
        span = self.start(name, **attrs)
        try:
            yield span
        finally:
            self.finish(span)

    @property
    def current_span_id(self) -> Optional[str]:
        """Id of the innermost open span (correlation hook)."""
        return self._open[-1].span_id if self._open else None

    def event(self, name: str, **attrs: object) -> Span:
        """Record an instant (zero-duration) span under the innermost
        open span.

        This is the debug-trace hook for per-occurrence facts the
        counters only aggregate -- which configuration was subsumed,
        which branches a reduction pruned -- so a trace log and a
        provenance log agree even when only one of them is attached.
        Long string attributes are clipped; events are data points, not
        documents.
        """
        self._next_id += 1
        parent = self._open[-1].span_id if self._open else None
        clipped = {
            key: _clip(value) if isinstance(value, str) else value
            for key, value in attrs.items()
        }
        now = self._clock()
        span = Span("s%d" % self._next_id, parent, name, clipped, now)
        span.end = now
        self.spans.append(span)
        return span

    # -- analysis / serialization ---------------------------------------------

    @property
    def max_depth(self) -> int:
        """Depth of the deepest finished span (root = 1)."""
        depths: Dict[str, int] = {}
        deepest = 0
        # Parents finish after children; resolve via a parent map over
        # all spans (finished or still open) instead of relying on order.
        by_id = {s.span_id: s for s in self.spans + self._open}

        def depth_of(span: Span) -> int:
            cached = depths.get(span.span_id)
            if cached is not None:
                return cached
            parent = by_id.get(span.parent_id) if span.parent_id else None
            d = 1 if parent is None else depth_of(parent) + 1
            depths[span.span_id] = d
            return d

        for span in self.spans:
            deepest = max(deepest, depth_of(span))
        return deepest

    def to_jsonl(self) -> str:
        """Finished spans as JSON lines (one object per line)."""
        return "\n".join(json.dumps(s.as_dict(), sort_keys=True) for s in self.spans)

    def write_jsonl(self, path: str, append: bool = False) -> None:
        """Write the span log to *path* (trailing newline included).

        Default is overwrite -- one file per run, matching what trace
        viewers expect.  ``append=True`` adds this run's spans to an
        existing log (JSON lines concatenate cleanly); span ids restart
        at ``s1`` per run, so appended logs are distinguishable only by
        ordering -- callers wanting hard separation should write one
        file per run.
        """
        text = self.to_jsonl()
        with open(path, "a" if append else "w") as handle:
            handle.write(text + ("\n" if text else ""))


def read_jsonl(text: str) -> List[Dict[str, object]]:
    """Parse a span log back into dicts (round-trip of ``to_jsonl``)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]
