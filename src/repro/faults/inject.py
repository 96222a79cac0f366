"""The fault injector the interpreter consults during search.

:class:`FaultInjector` implements the duck-typed ``faults`` hook of
:class:`~repro.core.interpreter.Interpreter`: ``perturb(process,
database, steps)`` is called once per configuration expansion (nested
isolation searches included) and may drop matching steps, reorder them
adversarially, or raise a forced exhaustion -- all exactly as scripted
by the :class:`~repro.faults.plan.FaultPlan`.

Each ``perturb`` call advances the injector's **tick** by one, so a
plan's windows open and close as the search runs; retried attempts of
the same sub-goal land on later ticks, which is how transient faults
expire under ``retry``.

Determinism: the injector holds no RNG at all -- every decision is a
pure function of (plan, tick, step), and the tick sequence is fixed by
the interpreter's own deterministic expansion order.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from ..core.errors import DeadlineExceeded, SearchBudgetExceeded
from ..core.transitions import Action, Step, frontier_blocked
from ..obs.context import active

__all__ = ["FaultInjector"]


class FaultInjector:
    """Apply a :class:`FaultPlan` to a search, one tick per expansion.

    Counters (when instrumentation is active): ``faults.ticks``,
    ``faults.steps_dropped``, ``faults.reordered_expansions``,
    ``faults.exhaustion_injected``.
    """

    def __init__(self, plan):
        self.plan = plan
        self.tick = 0
        self.dropped = 0
        self.reordered = 0
        self._dormant = False

    @property
    def dormant(self) -> bool:
        """True once no fault can fire at this tick or any later one.

        From that point the remaining search is exactly fault-free, so
        the interpreter may re-enable its failed-state memoization (a
        tick-dependent injector is what forces it off in the first
        place).  Ticks only increase, so dormancy is latched.
        """
        if self._dormant:
            return True
        tick = self.tick
        plan = self.plan
        for forced in plan.exhaustion:
            if forced.at_tick >= tick:
                return False
        for fault in plan.step_faults:
            if fault.window.stop is None or fault.window.stop > tick:
                return False
        for outage in plan.outages:
            if outage.window.stop is None or outage.window.stop > tick:
                return False
        for order in plan.adversarial:
            if order.window.stop is None or order.window.stop > tick:
                return False
        self._dormant = True
        return True

    # -- interpreter hook ---------------------------------------------------

    def perturb(
        self, process, database, steps: Iterable[Step]
    ) -> Iterator[Step]:
        tick = self.tick
        self.tick += 1
        obs = active()
        if obs.enabled:
            obs.metrics.inc("faults.ticks")
        for forced in self.plan.exhaustion:
            if forced.at_tick == tick:
                if obs.enabled:
                    obs.metrics.inc("faults.exhaustion_injected")
                if forced.kind == "deadline":
                    exc = DeadlineExceeded(float(tick), float(tick))
                else:
                    exc = SearchBudgetExceeded(tick, tick, spent=tick)
                exc.injected = True
                raise exc
        adversarial = any(
            a.window.active(tick) for a in self.plan.adversarial
        )
        if not adversarial:
            return self._filtered(steps, tick, obs)
        return iter(self._worst_first(steps, tick, obs))

    # -- internals ----------------------------------------------------------

    def _filtered(self, steps, tick, obs) -> Iterator[Step]:
        for step in steps:
            if self._dropped(step, tick, obs):
                continue
            yield step

    def _worst_first(self, steps, tick, obs):
        """Materialize and reorder: blocked-frontier steps first, then
        reversed program order within each group -- the inverse of the
        DFS scheduler's own ready-first heuristic."""
        blocked = []
        ready = []
        for step in steps:
            if self._dropped(step, tick, obs):
                continue
            if frontier_blocked(step.local, step.database, step.subst):
                blocked.append(step)
            else:
                ready.append(step)
        blocked.reverse()
        ready.reverse()
        self.reordered += 1
        if obs.enabled:
            obs.metrics.inc("faults.reordered_expansions")
        return blocked + ready

    def _dropped(self, step: Step, tick: int, obs) -> bool:
        if self._matches(step.action, tick):
            self.dropped += 1
            if obs.enabled:
                obs.metrics.inc("faults.steps_dropped")
            return True
        return False

    def _matches(self, action: Action, tick: int) -> bool:
        for fault in self.plan.step_faults:
            if not fault.window.active(tick):
                continue
            if _action_matches(fault, action):
                return True
            if (
                fault.scan_iso
                and action.kind == "iso"
                and _subtrace_matches(fault, action)
            ):
                return True
        for outage in self.plan.outages:
            if not outage.window.active(tick):
                continue
            if _outage_matches(outage, action):
                return True
        return False


def _action_matches(fault, action: Action) -> bool:
    if fault.kind != "*" and fault.kind != action.kind:
        return False
    if fault.pred is not None:
        atom = action.atom
        if atom is None or atom.pred != fault.pred:
            return False
        if fault.arg is not None and not _has_arg(atom, fault.arg):
            return False
    return True


def _subtrace_matches(fault, action: Action) -> bool:
    """Does any elementary action inside an iso subtrace match *fault*?"""
    stack = list(action.subtrace or ())
    while stack:
        inner = stack.pop()
        if inner.kind == "iso":
            stack.extend(inner.subtrace or ())
            continue
        if fault.kind in ("*", inner.kind):
            atom = inner.atom
            if fault.pred is None:
                return True
            if atom is not None and atom.pred == fault.pred:
                if fault.arg is None or _has_arg(atom, fault.arg):
                    return True
    return False


def _outage_matches(outage, action: Action) -> bool:
    """Claiming an agent is ``del.available(agent)``; an iso commit whose
    subtrace claims the agent is vetoed whole (atomic veto)."""
    if action.kind == "del":
        atom = action.atom
        return (
            atom is not None
            and atom.pred == outage.predicate
            and _has_arg(atom, outage.agent)
        )
    if action.kind == "iso":
        stack = list(action.subtrace or ())
        while stack:
            inner = stack.pop()
            if inner.kind == "iso":
                stack.extend(inner.subtrace or ())
            elif inner.kind == "del":
                atom = inner.atom
                if (
                    atom is not None
                    and atom.pred == outage.predicate
                    and _has_arg(atom, outage.agent)
                ):
                    return True
    return False


def _has_arg(atom, value) -> bool:
    rendered = str(value)
    return any(str(arg) == rendered for arg in atom.args)
