"""Activation context: the one observer slot, and the events engines emit.

A search has three observers -- an :class:`Instrumentation` (metrics and
tracer), a derivation recorder (:mod:`repro.obs.provenance`) and a cost
attributor (:mod:`repro.obs.hotspots`) -- and they are three views of
one execution, so they live in one module-level slot: an
:class:`Observers` triple, or ``None`` when all three are off.
:func:`instrumented`, :func:`repro.obs.recording` and
:func:`repro.obs.attributing` each fill one channel of it, and they nest
in any order.

Every engine entry captures the triple once (:func:`capture`) and
threads it through the search as its one observer handle ``ev``.  A
report site is ``if ev is not None: ev.<event>(...)``; the event methods
on :class:`Observers` fan out to whichever channels are on, so counter
names, provenance node shapes and attribution charges live here only
(docs/OBSERVABILITY.md has the event table).  Nested searches -- ``iso``
bodies and table generations -- report to :meth:`Observers.nested`: the
same three channels, with the nested search's derivation hung under the
``call`` or ``iso`` node that started it.

A generator entry re-installs the handle around each pull
(:func:`observed_pulls`) and a plain function installs it for its block
(:func:`observing`), so the reports that read the slot instead of the
handle -- unification, the store and fault counters -- land on the
observers the search started with, however the caller drains it.  With
nothing active each report site pays one ``is None`` test.

::

    inst = Instrumentation.create()
    with instrumented(inst):
        engine.solve(goal, db)
    inst.metrics.counter("search.configs_expanded")
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from typing import Iterator, Optional

from .hotspots import rule_label
from .metrics import Metrics
from .provenance import config_digest, render_bindings
from .tracer import Tracer

__all__ = [
    "Instrumentation", "NOOP", "Observers", "active", "capture",
    "instrumented", "observed_pulls", "observing", "span",
]

#: The null context every disabled span and timer shares.
_NULL = nullcontext()


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

    def span(self, name: str, **attrs: object):
        """A tracer span for a block; a null context when disabled."""
        return self.tracer.span(name, **attrs) if self.enabled else _NULL

    def timer(self, name: str):
        """Time a block into timer *name*; a null context when disabled."""
        return self.metrics.timer(name) if self.enabled else _NULL


#: The disabled singleton: what :func:`active` returns when no
#: instrumentation is on.
NOOP = Instrumentation(Metrics(), Tracer(), enabled=False)


class Observers:
    """The observer triple one search reports to, and its events.

    Each channel is ``None`` when off.  Triples are never mutated:
    filling a channel installs a new one, so an engine that captured a
    triple keeps exactly the observers it started with.  Each event
    reports to every channel that is on, in a fixed order.
    """

    __slots__ = ("instrumentation", "recorder", "attributor", "top", "under")

    def __init__(self, instrumentation=None, recorder=None, attributor=None):
        self.instrumentation = instrumentation
        self.recorder = recorder
        self.attributor = attributor
        #: False in a :meth:`nested` view, whose root node hangs under
        #: ``under``.
        self.top = True
        self.under: Optional[int] = None

    def nested(self, parent: Optional[int]) -> "Observers":
        """The handle a nested search -- a table generation or an ``iso``
        body -- reports to: the same three channels, with the nested
        root recorded under *parent* and the nested final configurations
        marked ``nested-final``, so only the goal's answers count as
        solutions.  ``self`` when no recorder is on."""
        if self.recorder is None:
            return self
        view = Observers(self.instrumentation, self.recorder, self.attributor)
        view.top = False
        view.under = parent
        return view

    def _inc(self, name: str, n: int = 1) -> None:
        inst = self.instrumentation
        if inst is not None:
            inst.metrics.inc(name, n)

    def _peak(self, name: str, value) -> None:
        inst = self.instrumentation
        if inst is not None:
            inst.metrics.gauge_max(name, value)

    def _gauge(self, name: str, value) -> None:
        inst = self.instrumentation
        if inst is not None:
            inst.metrics.set_gauge(name, value)

    def _charge(self, kind: str, amount, predicate=None) -> None:
        attr = self.attributor
        if attr is not None:
            attr.charge(kind, amount, predicate=predicate)

    def _record(self, kind, label, parent=None, **fields) -> Optional[int]:
        rec = self.recorder
        if rec is None:
            return None
        return rec.record(kind, str(label), parent=parent, **fields)

    # -- search lifecycle ------------------------------------------------------

    def spend(self, used: int, limit: int) -> None:
        """One unit of the step budget: ``search.steps``; past *limit*,
        ``budget.exceeded`` and the ``budget.spent`` peak."""
        self._inc("search.steps")
        if used > limit:
            self._inc("budget.exceeded")
            self._peak("budget.spent", used)

    def finished(self, used: int, limit: int, table=None) -> None:
        """A small-step search ended: budget gauges, and the answer-table
        size gauges when it has a *table*."""
        if self.instrumentation is None:
            return
        self._peak("budget.spent", used)
        self._gauge("budget.limit", limit)
        if table is not None:
            self._gauge("table.keys", table.keys)
            self._gauge("table.answers", table.answer_count())
            if table.capped:
                self._gauge("table.capped", table.capped)

    def answer(self, parent=None, describe=None) -> None:
        """An engine entry hands its caller an answer: ``search.solutions``;
        with *describe* (a thunk returning ``(label, bindings)``), an
        ``answer`` node marked ``solution``."""
        self._inc("search.solutions")
        if self.recorder is not None and describe is not None:
            self._answer_node(parent, describe, disposition="solution")

    def _answer_node(self, parent, describe, **fields) -> None:
        label, bindings = describe()
        self._record(
            "answer", label, parent, bindings=render_bindings(bindings), **fields
        )

    # -- configurations (small-step engines) -----------------------------------

    def config(self, formula, parent=None, prefix: str = "") -> Optional[int]:
        """A configuration node: with no *parent*, the derivation root,
        or in a nested view the nested search's root."""
        if self.recorder is None:
            return None
        root = parent is None and self.top
        return self._record(
            "config", prefix + str(formula),
            self.under if parent is None else parent,
            disposition="root" if root else "expanded",
        )

    def expanded(self) -> None:
        """A configuration is expanded: ``search.configs_expanded``."""
        self._inc("search.configs_expanded")

    def child(self, step, parent, disposition: str = "expanded",
              blocked=None) -> Optional[int]:
        """A step out of node *parent*: a ``step`` node with its unifier
        and database delta (``dead-config`` for a pruned successor, with
        what its frontier waits for -- *blocked*, a thunk -- as the
        ``blocked_on`` witness)."""
        rec = self.recorder
        if rec is None:
            return None
        return rec.record_step(step, parent, disposition, _blocked_on(blocked))

    def subsumed(self, step, parent, proc, by, where: str) -> None:
        """A successor equals a configuration already queued or seen: a
        ``frontier-subsumed`` node; a queued one also counts
        ``frontier.subsumed`` and traces an event."""
        inst = self.instrumentation
        if inst is not None and where == "queued":
            inst.metrics.inc("frontier.subsumed")
            inst.tracer.event("frontier.subsumed", config=str(proc), by="queued")
        rec = self.recorder
        if rec is not None:
            rec.record_step(step, parent, "frontier-subsumed", witness={
                "subsumed_by": by, "where": where,
                "config": config_digest(proc, step.database),
            })

    def mark(self, node, disposition: str, witness=None) -> None:
        """Give a recorded node its final disposition."""
        rec = self.recorder
        if rec is not None:
            rec.mark(node, disposition, witness)

    def failed(self, node, blocked) -> None:
        """A configuration had no step: its node becomes ``failed-unify``,
        with what its frontier waits for (*blocked*, a thunk) as the
        ``blocked_on`` witness."""
        rec = self.recorder
        if rec is not None:
            rec.mark(node, "failed-unify", _blocked_on(blocked))

    def solution(self, node, answers) -> None:
        """A final configuration: its node becomes a ``solution``, or
        ``nested-final`` in a nested search."""
        self.mark(
            node, "solution" if self.top else "nested-final",
            {"answers": [str(a) for a in answers]},
        )

    def interrupted(self, node, budget: bool) -> None:
        """The budget (or a deadline) stopped a breadth-first search:
        ``search.checkpoints`` and the node's exhaustion disposition."""
        self._inc("search.checkpoints")
        self.mark(node, "budget-exhausted" if budget else "deadline-exhausted")

    def frontier(self, size: int) -> None:
        """The BFS frontier grew: ``search.frontier_peak``."""
        self._peak("search.frontier_peak", size)

    def depth(self, size: int) -> None:
        """The DFS stack grew: ``search.depth_peak``."""
        self._peak("search.depth_peak", size)

    def metered(self, steps):
        """*steps*, each charged to its action's predicate when an
        attributor is on (:meth:`CostAttributor.meter_steps`)."""
        attr = self.attributor
        return attr.meter_steps(steps) if attr is not None else steps

    def ample(self, ample, pruned: int, rescued: bool, parent, witness) -> None:
        """A partial-order ample-set decision deferring *pruned* sibling
        branches: ``por.*`` counters, the pruning credit and, when it
        deferred any, a trace event and a ``por-pruned`` node whose
        witness the thunk *witness* builds."""
        self._inc("por.ample_configs")
        if rescued:
            self._inc("por.recheck_rescued")
        if not pruned:
            return
        self._inc("por.steps_pruned", pruned)
        self._charge("por.pruned_credit", pruned)
        inst = self.instrumentation
        if inst is not None:
            inst.tracer.event("por.pruned", ample=str(ample), pruned=pruned)
        if self.recorder is not None:
            self._record(
                "por", "por: ample %s defers %d sibling branch(es)" % (ample, pruned),
                parent, disposition="por-pruned", witness=witness(),
            )

    def unified(self, predicate: str) -> None:
        """One unification or match attempt."""
        self._inc("unify.attempts")
        self._charge("unify.attempts", 1, predicate)

    def state(self) -> None:
        """The state-space explorer expands a node."""
        self._inc("statespace.expanded")

    def graph(self, states: int, edges: int) -> None:
        """The explored state graph's size gauges."""
        self._gauge("statespace.states", states)
        self._gauge("statespace.edges", edges)

    # -- tables and isolation --------------------------------------------------

    def table_probe(self, hit: bool) -> None:
        """An answer-table lookup: ``table.hits`` or ``table.misses``."""
        self._inc("table.hits" if hit else "table.misses")

    def call(self, atom, parent) -> "Observers":
        """A head call misses its table entry: a ``call`` node under
        *parent*; returns the handle the call's generation reports to."""
        if self.recorder is None:
            return self
        return self.nested(self._record("call", "call %s" % (atom,), parent))

    def isolated(self, body, parent) -> "Observers":
        """An ``iso`` body runs a nested search: an ``iso`` node under
        *parent*; returns the handle the body's search reports to."""
        if self.recorder is None:
            return self
        return self.nested(self._record("iso", "iso(%s)" % (body,), parent))

    def call_hit(self, atom, key, answers: int, complete: bool, parent) -> None:
        """A BFS head call is served from its table entry: a trace event,
        a ``table-hit`` node and the hit credit."""
        inst = self.instrumentation
        if inst is not None:
            inst.tracer.event("table.hit", call=str(atom), key=str(key))
        self._record("table", atom, parent, disposition="table-hit", witness={
            "key": str(key), "answers": answers, "complete": complete,
        })
        self._charge("table.hit_credit", max(answers, 1), atom.pred)

    def iso_hit(self, body, answers: int) -> None:
        """An ``iso`` body is served from its complete table entry: a
        trace event and the hit credit."""
        inst = self.instrumentation
        if inst is not None:
            inst.tracer.event("table.hit", iso=str(body))
        self._charge("table.hit_credit", max(answers, 1))

    @contextmanager
    def iso(self, body) -> Iterator[None]:
        """A nested isolation search: ``iso.searches``, the
        ``iso.depth_peak`` gauge and an ``iso-subsearch`` span."""
        inst = self.instrumentation
        if inst is None:
            yield
            return
        inst.iso_depth += 1
        inst.metrics.inc("iso.searches")
        inst.metrics.gauge_max("iso.depth_peak", inst.iso_depth)
        try:
            with inst.span("iso-subsearch", body=str(body)):
                yield
        finally:
            inst.iso_depth -= 1

    def iso_phase(self, gen):
        """*gen* (an ``iso`` body's executions), its production time
        charged to an ``iso`` phase frame when an attributor is on."""
        attr = self.attributor
        return attr.meter_phase(gen, "iso") if attr is not None else gen

    def attempt_exhausted(self) -> None:
        """A bounded ``iso[k]`` attempt ran out of its private cap."""
        self._inc("iso.attempt_budget_exhausted")

    # -- rule evaluation (big-step engines and table generations) --------------

    def rule(self, head, predicate: str) -> Optional[int]:
        """Open an attribution frame for one rule's evaluation; returns
        the token :meth:`leave` takes, or ``None`` with no attributor."""
        attr = self.attributor
        if attr is None:
            return None
        return attr.push(rule=rule_label(head), predicate=predicate)

    def leave(self, token: int) -> None:
        """Close the frame :meth:`rule` opened (*token* is not None)."""
        self.attributor.pop(token)

    def reordered(self) -> None:
        """A join planner changed a body's order: ``join.reorders``."""
        self._inc("join.reorders")

    def fact(self, fact, head, premises, nodes: dict, root) -> None:
        """Rule *head* derived a new Datalog fact: one
        ``steps.expansions``, and a ``fact`` node under the node of its
        first derived premise (*premises* is a thunk)."""
        self._charge("steps.expansions", 1)
        if self.recorder is None:
            return
        premises = premises()
        parent = next(
            (nodes[p] for p in premises if nodes.get(p) is not None), root
        )
        nodes[fact] = self._record("fact", fact, parent, witness={
            "rule": str(head), "premises": [str(p) for p in premises],
        })

    def delta(self, size: int) -> None:
        """A seminaive round added *size* facts: ``db.delta``."""
        if size:
            self._charge("db.delta", size)


def _blocked_on(blocked) -> Optional[dict]:
    """The ``blocked_on`` witness: the reasons the thunk *blocked*
    returns, or ``None`` when there are none."""
    reasons = blocked() if blocked is not None else None
    return {"blocked_on": reasons} if reasons else None


#: The live triple, or None when every channel is off.  Read directly
#: (as ``context._ACTIVE``) only by the hottest call sites; everyone
#: else goes through :func:`active` or :func:`capture`.
_ACTIVE: Optional[Observers] = None

_SENTINEL = object()
_CHANNELS = ("instrumentation", "recorder", "attributor")


def active() -> Instrumentation:
    """The live instrumentation, or :data:`NOOP` when none is active."""
    observers = _ACTIVE
    if observers is None or observers.instrumentation is None:
        return NOOP
    return observers.instrumentation


def capture() -> Optional[Observers]:
    """The live triple, or ``None`` when nothing is active: the handle an
    engine entry threads through the whole search."""
    return _ACTIVE


def span(ev: Optional[Observers], name: str, **attrs: object):
    """A tracer span on *ev*'s instrumentation, or a null context."""
    inst = ev.instrumentation if ev is not None else None
    return inst.span(name, **attrs) if inst is not None else _NULL


@contextmanager
def filled(channel: str, value):
    """Fill one channel of the slot with *value* for a block; the
    previous triple comes back on exit, so channels nest in any order."""
    global _ACTIVE
    previous = _ACTIVE
    channels = {
        name: getattr(previous, name) if previous is not None else None
        for name in _CHANNELS
    }
    channels[channel] = value
    live = any(v is not None for v in channels.values())
    _ACTIVE = Observers(**channels) if live else None
    try:
        yield value
    finally:
        _ACTIVE = previous


@contextmanager
def instrumented(
    instrumentation: Optional[Instrumentation] = None,
) -> Iterator[Instrumentation]:
    """Activate *instrumentation* (a fresh bundle if none) for a block.

    Nests: the previous activation is restored on exit.  A disabled
    bundle leaves the channel off.
    """
    inst = instrumentation if instrumentation is not None else Instrumentation.create()
    with filled("instrumentation", inst if inst.enabled else None):
        yield inst


class observing:
    """Engine entry helper for *plain-function* engine bodies: install
    the captured handle *ev* for the ``with`` block, with a *phase*
    frame pushed on its attributor.  A class rather than a generator
    context manager: every ``simulate``, ``evaluate`` and
    ``parse_program`` call enters one."""

    __slots__ = ("ev", "phase", "previous", "token")

    def __init__(self, ev: Optional[Observers], phase: str):
        self.ev = ev
        self.phase = phase

    def __enter__(self) -> None:
        global _ACTIVE
        self.previous = _ACTIVE
        ev = _ACTIVE = self.ev
        attr = ev.attributor if ev is not None else None
        self.token = attr.push(phase=self.phase) if attr is not None else None

    def __exit__(self, *exc) -> None:
        global _ACTIVE
        if self.token is not None:
            self.ev.attributor.pop(self.token)
        _ACTIVE = self.previous


def observed_pulls(ev: Optional[Observers], gen, phase: str) -> Iterator:
    """Engine entry helper for *generator* engine bodies: each pull of
    *gen* runs with the captured handle *ev* installed and a *phase*
    frame pushed on its attributor, so nothing leaks over the consumer
    while the generator is suspended, and nothing the consumer installs
    in between reaches the search."""
    global _ACTIVE
    attr = ev.attributor if ev is not None else None
    while True:
        previous = _ACTIVE
        _ACTIVE = ev
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
