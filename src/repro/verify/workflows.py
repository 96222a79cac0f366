"""Packaged verification for workflow simulator setups.

:func:`verify_workflow` explores the full configuration space of a
:class:`~repro.workflow.scheduler.WorkflowSimulator` on a concrete batch
and reports what a designer wants signed off before go-live:

* **completability** -- some schedule finishes every instance;
* **deadlock freedom** -- no reachable stuck state (note: a workflow can
  be completable yet have schedules that wedge; TD's angelic semantics
  hides those at runtime, but a designer may still want to know);
* **agent safety** -- no agent is double-booked in any reachable state;
* **completion inevitability** -- *every* schedule finishes (AF), the
  strongest guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

from ..core.database import Database
from ..core.formulas import Call, Formula, conc
from ..core.terms import atom
from ..workflow.scheduler import WorkflowSimulator
from .properties import deadlocks, invariant_holds, may_diverge
from .statespace import explore

__all__ = ["WorkflowReport", "verify_workflow"]


@dataclass
class WorkflowReport:
    """Verification outcomes for one workflow setup + batch.

    Reading the numbers under TD's semantics: the language commits a
    transaction iff *some* execution completes, so ``completable`` is
    the paper-level correctness notion.  ``doomed_states`` counts
    configurations from which no completion is reachable -- harmless for
    a backtracking simulator, but each one is a state where a real
    (non-backtracking) workflow engine would wedge, so designers want
    the count to be zero or to understand every entry.
    """

    states: int
    completable: bool
    doomed_states: int
    doomed_example: Optional[List[str]]
    stuck_states: int
    agent_safe: bool
    agent_violation: Optional[List[str]]
    always_completes: bool
    has_cycles: bool

    @property
    def commit_safe(self) -> bool:
        """No reachable configuration is unsalvageable: greedy engines
        cannot wedge."""
        return self.doomed_states == 0

    def summary(self) -> str:
        lines = [
            "explored states:     %d" % self.states,
            "completable:         %s" % _yn(self.completable),
            "commit safe:         %s (doomed states: %d, stuck: %d)"
            % (_yn(self.commit_safe), self.doomed_states, self.stuck_states),
            "agent safe:          %s" % _yn(self.agent_safe),
            "always completes:    %s" % _yn(self.always_completes),
            "may loop forever:    %s" % _yn(self.has_cycles),
        ]
        if self.doomed_example:
            lines.append("doomed trace:        " + "; ".join(self.doomed_example))
        if self.agent_violation:
            lines.append("double-booking trace:" + "; ".join(self.agent_violation))
        return "\n".join(lines)


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def _agent_safe(initial: Database) -> Callable[[Database], bool]:
    """An invariant: every agent of the initial pool is, at all times,
    either available or absent (being used) -- never duplicated.  With
    set semantics duplication cannot happen, so the meaningful check is
    against *phantom* availability: an agent marked available twice is
    impossible, but an agent available while also recorded as mid-task
    would be.  We check the conservative property that the available
    pool never exceeds the initial pool."""
    initial_pool = {str(f.args[0]) for f in initial.facts("available")}

    def prop(db: Database) -> bool:
        pool = {str(f.args[0]) for f in db.facts("available")}
        return pool <= initial_pool

    return prop


def verify_workflow(
    simulator: WorkflowSimulator,
    items: Sequence[str],
    pending: Sequence[str] = (),
    environment: bool = False,
    max_states: int = 200_000,
    final_task: Optional[str] = None,
) -> WorkflowReport:
    """Verify *simulator* on a concrete batch by full state exploration.

    ``final_task``: the task whose completion for every item defines
    "done" (defaults to requiring all work items consumed).
    """
    db = simulator.initial_database(items, pending)
    goal: Formula = Call(atom("simulate"))
    if environment or pending:
        goal = conc(goal, Call(atom("env")))
    graph = explore(simulator.program, goal, db, max_states=max_states)

    def completed(state: Database) -> bool:
        if final_task is not None:
            done = {
                str(f.args[1])
                for f in state.facts("done")
                if str(f.args[0]) == final_task
            }
            if not set(items) <= done or not set(pending) <= done:
                return False
        return not state.facts("workitem") and not state.facts("pending")

    final_completed_ids = {
        node.node_id
        for node in graph.nodes
        if node.final and completed(node.database)
    }
    completable = bool(final_completed_ids)
    stuck = deadlocks(graph)
    agent_safe, agent_violation = invariant_holds(graph, _agent_safe(db))

    # Doomed states: backward reachability from completing finals.  A
    # state outside the coreachable set can never complete, however the
    # remaining choices go.
    predecessors: dict = {node.node_id: [] for node in graph.nodes}
    for src, outs in graph.edges.items():
        for _label, dst in outs:
            predecessors[dst].append(src)
    coreachable = set(final_completed_ids)
    frontier = list(final_completed_ids)
    while frontier:
        current = frontier.pop()
        for pred in predecessors[current]:
            if pred not in coreachable:
                coreachable.add(pred)
                frontier.append(pred)
    doomed = [n.node_id for n in graph.nodes if n.node_id not in coreachable]
    doomed_example = graph.path_to(doomed[0]) if doomed else None

    # AF(final & completed): every schedule finishes the batch.
    # (inevitably() works on database predicates; completion is a
    # process+database property, so run the fixpoint directly here.)
    good = [node.node_id in final_completed_ids for node in graph.nodes]
    changed = True
    while changed:
        changed = False
        for node in graph.nodes:
            i = node.node_id
            if good[i]:
                continue
            succs = graph.successors(i)
            if succs and all(good[s] for s in succs):
                good[i] = True
                changed = True
    always_completes = good[graph.initial]

    return WorkflowReport(
        states=len(graph),
        completable=completable,
        doomed_states=len(doomed),
        doomed_example=doomed_example,
        stuck_states=len(stuck),
        agent_safe=agent_safe,
        agent_violation=agent_violation,
        always_completes=always_completes,
        has_cycles=may_diverge(graph),
    )
