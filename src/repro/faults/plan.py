"""Seeded, fully deterministic fault plans.

A :class:`FaultPlan` is *data*: a frozen description of every
perturbation a run will suffer, decided before the run starts.  The
injector (:mod:`repro.faults.inject`) merely reads it against a tick
counter, so the same plan applied to the same workload produces the
same perturbed execution on every machine -- no wall clock, no global
RNG, no hash-order dependence.

Time is measured in **ticks**: one tick per configuration expansion the
interpreter performs (nested isolation searches tick too).  A
:class:`Window` ``[start, stop)`` over ticks bounds each fault; a
window with ``stop=None`` never closes (a *permanent* fault), anything
else is *transient* -- it expires as the search proceeds, which is what
makes ``retry`` recover.

Plans are built either explicitly or by :func:`generate_plan`, which
derives everything from a single integer seed via ``random.Random``
(Python's Mersenne generator is specified and stable across versions).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = [
    "Window",
    "StepFault",
    "AgentOutage",
    "AdversarialOrder",
    "Exhaustion",
    "StoreCrash",
    "CRASH_POINTS",
    "FaultPlan",
    "generate_plan",
]


@dataclass(frozen=True)
class Window:
    """A half-open tick interval ``[start, stop)``; ``stop=None`` means
    the fault never expires."""

    start: int
    stop: Optional[int] = None

    def active(self, tick: int) -> bool:
        return tick >= self.start and (self.stop is None or tick < self.stop)

    @property
    def transient(self) -> bool:
        return self.stop is not None

    def __str__(self) -> str:
        return "[%d, %s)" % (self.start, "inf" if self.stop is None else self.stop)


@dataclass(frozen=True)
class StepFault:
    """Force matching enabled steps to fail while the window is open.

    A dropped step is exactly the paper's *failed elementary operation*:
    the transition is simply not enabled, so the execution must find
    another way or fail -- and a failed (sub)execution leaves no trace.

    ``kind``
        Action kind to match: ``ins``, ``del``, ``call``, ``test``,
        ``iso``, or ``*`` for any.
    ``pred``
        Predicate name the action's atom must have (``None`` = any).
    ``arg``
        When set, some argument of the atom must render equal to
        ``str(arg)``.
    ``scan_iso``
        Also match an ``iso`` commit step whose subtrace *contains* a
        matching elementary action -- vetoing the atomic commit as a
        whole (never a part of it).
    """

    kind: str
    pred: Optional[str]
    window: Window
    arg: Optional[object] = None
    scan_iso: bool = False

    def __str__(self) -> str:
        target = self.pred or "*"
        if self.arg is not None:
            target += "(%s)" % self.arg
        return "fail %s.%s during %s" % (self.kind, target, self.window)


@dataclass(frozen=True)
class AgentOutage:
    """An agent is unavailable while the window is open.

    Matches the workflow compilation scheme, where claiming an agent is
    the elementary step ``del.available(agent)`` (see
    :mod:`repro.workflow.compiler`): dropping that step means no task
    can claim the agent until the window closes.
    """

    agent: object
    window: Window
    predicate: str = "available"

    def __str__(self) -> str:
        return "agent %s out during %s" % (self.agent, self.window)


@dataclass(frozen=True)
class AdversarialOrder:
    """While open, the injector reorders enabled steps *worst first*:
    steps whose residual frontier is blocked come before immediately
    runnable ones, and program order is reversed within each group --
    the exact inverse of the simulator's own heuristic."""

    window: Window

    def __str__(self) -> str:
        return "adversarial order during %s" % (self.window,)


@dataclass(frozen=True)
class Exhaustion:
    """Force budget or deadline exhaustion at one tick.

    ``kind`` is ``budget`` (raises
    :class:`~repro.core.errors.SearchBudgetExceeded`) or ``deadline``
    (raises :class:`~repro.core.errors.DeadlineExceeded`).  Raised
    between expansions, so the interpreter's checkpoint machinery
    treats it exactly like the real thing.
    """

    at_tick: int
    kind: str = "budget"

    def __str__(self) -> str:
        return "%s exhaustion at tick %d" % (self.kind, self.at_tick)


#: The named crash points a :class:`StoreCrash` can fire at, in the
#: order of a write's life cycle.  Each point ticks its own counter in
#: the store (appends for the fsync pair, checkpoints for the fold,
#: releases for the savepoint commit), so windows compose per family.
CRASH_POINTS = (
    "pre-fsync",             # before the WAL row is written: nothing durable
    "post-fsync",            # row durable, mirror not updated (the torn moment)
    "mid-checkpoint-fold",   # inside the snapshot rewrite, before COMMIT
    "mid-savepoint-release", # scope popped, its staged rows never written
)


@dataclass(frozen=True)
class StoreCrash:
    """Kill the durable store at a named crash point while the window
    is open.

    Ticks here count store events of the point's family, not
    interpreter expansions: ``pre-fsync``/``post-fsync`` count *WAL
    appends* (effective inserts/deletes), ``mid-checkpoint-fold``
    counts checkpoint attempts, ``mid-savepoint-release`` counts
    savepoint releases.  The store keeps these counters itself and the
    first event whose tick falls inside the window crashes the store at
    that point -- ``post-fsync`` (the default, and the only point
    before PR 9) is the classic torn moment a write-ahead log exists to
    survive: the row is durable but the in-memory mirror never sees it.
    Every later operation on the crashed instance raises
    :class:`repro.store.StoreCrashed`; recovery is reopening the file,
    which replays the verified WAL tail into the last snapshot (see
    docs/STORAGE.md's failure matrix for what each point may and may
    not lose).
    """

    window: Window
    point: str = "post-fsync"

    def __post_init__(self):
        if self.point not in CRASH_POINTS:
            raise ValueError(
                "unknown crash point %r (expected one of %s)"
                % (self.point, ", ".join(CRASH_POINTS))
            )

    def __str__(self) -> str:
        return "store crash at %s during %s" % (self.point, self.window)


@dataclass(frozen=True)
class FaultPlan:
    """Everything that will go wrong in one run, decided up front."""

    seed: int
    step_faults: Tuple[StepFault, ...] = ()
    outages: Tuple[AgentOutage, ...] = ()
    adversarial: Tuple[AdversarialOrder, ...] = ()
    exhaustion: Tuple[Exhaustion, ...] = ()
    store_crashes: Tuple[StoreCrash, ...] = ()

    @property
    def transient(self) -> bool:
        """True when every fault expires: all windows are bounded and
        nothing forces exhaustion.  Transient plans are the ones
        ``retry`` must beat (the chaos suite's headline property)."""
        if self.exhaustion:
            return False
        # A crashed store stays dead until the file is reopened, so any
        # store crash makes the plan non-transient for the run it hits.
        if self.store_crashes:
            return False
        for fault in self.step_faults:
            if not fault.window.transient:
                return False
        for outage in self.outages:
            if not outage.window.transient:
                return False
        return True

    @property
    def horizon(self) -> int:
        """First tick from which no window is active any more (0 for an
        empty plan; meaningless when the plan is not transient)."""
        stops = [f.window.stop or 0 for f in self.step_faults]
        stops += [o.window.stop or 0 for o in self.outages]
        stops += [a.window.stop or 0 for a in self.adversarial]
        return max(stops, default=0)

    def describe(self) -> str:
        lines = ["fault plan (seed %d)%s:" % (
            self.seed, " [transient]" if self.transient else "")]
        for group in (self.step_faults, self.outages, self.adversarial,
                      self.exhaustion, self.store_crashes):
            for fault in group:
                lines.append("  - %s" % fault)
        if len(lines) == 1:
            lines.append("  - (no faults)")
        return "\n".join(lines)


def generate_plan(
    seed: int,
    *,
    predicates: Sequence[str] = (),
    agents: Sequence[object] = (),
    max_window: int = 30,
    max_start: int = 20,
    allow_permanent: bool = False,
    allow_exhaustion: bool = False,
    exhaustion_tick_range: Tuple[int, int] = (5, 200),
) -> FaultPlan:
    """Derive a fault plan deterministically from *seed*.

    ``predicates`` are candidate targets for step faults (use the
    workload's own update predicates); ``agents`` are candidates for
    outages.  Windows open within ``[0, max_start)`` and last at most
    ``max_window`` ticks, so transient plans expire early enough for a
    modestly sized ``retry`` to outlive them.  With
    ``allow_permanent``/``allow_exhaustion`` the generator also emits
    never-closing windows and forced exhaustion (such plans are not
    transient, and the chaos harness expects only aborts from them --
    never atomicity violations).
    """
    rng = random.Random(seed)
    step_faults = []
    outages = []
    adversarial = []
    exhaustion = []

    def window() -> Window:
        start = rng.randrange(max_start)
        if allow_permanent and rng.random() < 0.15:
            return Window(start, None)
        return Window(start, start + 1 + rng.randrange(max_window))

    if predicates:
        for _ in range(rng.randrange(3)):  # 0-2 step faults
            pred = rng.choice(list(predicates))
            kind = rng.choice(["ins", "del", "call"])
            scan = rng.random() < 0.5
            step_faults.append(
                StepFault(kind, pred, window(), scan_iso=scan)
            )
    if agents and rng.random() < 0.6:
        outages.append(AgentOutage(rng.choice(list(agents)), window()))
    if rng.random() < 0.35:
        adversarial.append(AdversarialOrder(window()))
    if allow_exhaustion and rng.random() < 0.3:
        lo, hi = exhaustion_tick_range
        exhaustion.append(
            Exhaustion(lo + rng.randrange(max(1, hi - lo)),
                       rng.choice(["budget", "deadline"]))
        )
    return FaultPlan(
        seed=seed,
        step_faults=tuple(step_faults),
        outages=tuple(outages),
        adversarial=tuple(adversarial),
        exhaustion=tuple(exhaustion),
    )
