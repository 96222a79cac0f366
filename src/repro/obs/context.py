"""Activation context: the one observer slot.

A search has three observers -- an :class:`Instrumentation` (metrics and
tracer), a derivation recorder (:mod:`repro.obs.provenance`) and a cost
attributor (:mod:`repro.obs.hotspots`) -- and they are three views of
one execution, so they live in one module-level slot: an
:class:`Observers` triple, or ``None`` when all three are off.
:func:`instrumented`, :func:`repro.obs.recording` and
:func:`repro.obs.attributing` each fill one channel of it, and they nest
in any order.

Every engine entry captures the triple once (:func:`capture`) and holds
it for the whole search.  A generator entry re-installs it around each
pull (:func:`observed_pulls`) and a plain function installs it for its
block (:func:`observing`), so every deep report -- unification, POR,
join planning, ``ProvenanceRecorder.record``, the store and fault
counters -- lands on the observers the search started with, however
the caller drains it.  With nothing active the hottest call sites pay
one module-attribute load and one ``None`` check.

::

    inst = Instrumentation.create()
    with instrumented(inst):
        engine.solve(goal, db)
    inst.metrics.counter("search.configs_expanded")
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional

from .metrics import Metrics
from .tracer import Span, Tracer

__all__ = [
    "Instrumentation", "NOOP", "Observers", "active", "capture",
    "instrumented", "observed_pulls", "observing",
]


class Instrumentation:
    """A metrics registry plus a tracer, with one ``enabled`` switch.

    ``iso_depth`` tracks the *current* isolation nesting depth of the
    running search (``iso.depth_peak`` gauges its high-water mark); it
    lives here rather than in :class:`Metrics` because it is transient
    search state, not a reported value.
    """

    __slots__ = ("metrics", "tracer", "enabled", "iso_depth")

    def __init__(self, metrics: Metrics, tracer: Tracer, enabled: bool = True):
        self.metrics = metrics
        self.tracer = tracer
        self.enabled = enabled
        self.iso_depth = 0

    @classmethod
    def create(cls) -> "Instrumentation":
        """A fresh, enabled instrumentation bundle."""
        return cls(Metrics(), Tracer())

    @contextmanager
    def span(self, name: str, **attrs: object) -> Iterator[Optional[Span]]:
        """Open a tracer span, or do nothing when disabled."""
        if not self.enabled:
            yield None
            return
        with self.tracer.span(name, **attrs) as span:
            yield span

    def enter_iso(self) -> None:
        """Record entry into a nested isolation search."""
        self.iso_depth += 1
        self.metrics.inc("iso.searches")
        self.metrics.gauge_max("iso.depth_peak", self.iso_depth)

    def exit_iso(self) -> None:
        self.iso_depth -= 1


#: The disabled singleton.  Engines hold either this or a live bundle;
#: either way the hot-path guard is the same ``.enabled`` check.
NOOP = Instrumentation(Metrics(), Tracer(), enabled=False)


class Observers:
    """The observer triple one search reports to.

    Each channel is ``None`` when off.  Triples are never mutated:
    filling a channel installs a new one, so an engine that captured a
    triple keeps exactly the observers it started with.
    """

    __slots__ = ("instrumentation", "recorder", "attributor")

    def __init__(self, instrumentation=None, recorder=None, attributor=None):
        self.instrumentation = instrumentation
        self.recorder = recorder
        self.attributor = attributor

    @property
    def inst(self) -> Instrumentation:
        """The instrumentation channel, or :data:`NOOP` when it is off."""
        inst = self.instrumentation
        return inst if inst is not None else NOOP


#: What :func:`capture` returns when nothing is active.
OFF = Observers()

#: The live triple, or None when every channel is off.  Read directly
#: (as ``context._ACTIVE``) only by the hottest call sites; everyone
#: else goes through :func:`active` or :func:`capture`.
_ACTIVE: Optional[Observers] = None

_SENTINEL = object()


def active() -> Instrumentation:
    """The live instrumentation, or :data:`NOOP` when none is active."""
    observers = _ACTIVE
    if observers is None or observers.instrumentation is None:
        return NOOP
    return observers.instrumentation


def capture() -> Observers:
    """The live triple (:data:`OFF` when nothing is active): what an
    engine entry holds for the whole search."""
    return _ACTIVE if _ACTIVE is not None else OFF


@contextmanager
def filled(channel: str, value):
    """Fill one channel of the slot with *value* for a block; the
    previous triple comes back on exit, so channels nest in any order."""
    global _ACTIVE
    previous = _ACTIVE
    base = capture()
    channels = {name: getattr(base, name) for name in Observers.__slots__}
    channels[channel] = value
    _ACTIVE = Observers(**channels)
    try:
        yield value
    finally:
        _ACTIVE = previous


@contextmanager
def instrumented(
    instrumentation: Optional[Instrumentation] = None,
) -> Iterator[Instrumentation]:
    """Activate *instrumentation* (a fresh bundle if none) for a block.

    Nests: the previous activation is restored on exit.
    """
    inst = instrumentation if instrumentation is not None else Instrumentation.create()
    with filled("instrumentation", inst):
        yield inst


class observing:
    """Engine entry helper for *plain-function* engine bodies: install
    the captured *observers* for the ``with`` block, with a *phase*
    frame pushed on its attributor.  A class rather than a generator
    context manager: every ``simulate``, ``evaluate`` and
    ``parse_program`` call enters one."""

    __slots__ = ("observers", "phase", "previous", "token")

    def __init__(self, observers: Observers, phase: str):
        self.observers = observers
        self.phase = phase

    def __enter__(self) -> None:
        global _ACTIVE
        self.previous = _ACTIVE
        observers = self.observers
        _ACTIVE = observers if observers is not OFF else None
        attr = observers.attributor
        self.token = attr.push(phase=self.phase) if attr is not None else None

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        if self.token is not None:
            self.observers.attributor.pop(self.token)
        _ACTIVE = self.previous


def observed_pulls(observers: Observers, gen, phase: str) -> Iterator:
    """Engine entry helper for *generator* engine bodies: each pull of
    *gen* runs with the captured *observers* installed and a *phase*
    frame pushed on its attributor, so nothing leaks over the consumer
    while the generator is suspended, and nothing the consumer installs
    in between reaches the search."""
    global _ACTIVE
    live = observers if observers is not OFF else None
    attr = observers.attributor
    while True:
        previous = _ACTIVE
        _ACTIVE = live
        token = attr.push(phase=phase) if attr is not None else None
        try:
            item = next(gen, _SENTINEL)
        finally:
            if token is not None:
                attr.pop(token)
            _ACTIVE = previous
        if item is _SENTINEL:
            return
        yield item
