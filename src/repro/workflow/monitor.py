"""Monitoring, tracking, and querying workflow histories.

The paper stresses that recording work in the database enables
"monitoring, tracking and querying the status of workflow activities".
The history facts written by compiled tasks --

    started(Task, Item)       done(Task, Item, Agent)

-- are ordinary relations, so status queries are ordinary (classical)
Datalog over the final state.  This module provides the common queries
directly and a reusable :func:`history_program` for richer analysis with
:mod:`repro.datalog`.

Abortable compilations (``compile_workflows(..., abortable=True)``)
additionally record ``aborted(Task, Item)`` for attempts that ran under
a fault and could not claim an agent.  Aborted terminations are kept
*distinct* from completions everywhere below: they have their own
queries (:func:`aborted_tasks`, :func:`failed_items`), they do not
count as completed work, and :func:`in_progress` excludes them -- an
aborted attempt is terminated, not still running.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List, Optional, Tuple

from ..core.database import Database
from ..core.terms import Atom, Variable
from ..datalog import DatalogProgram, DatalogRule, Literal

__all__ = [
    "completed_items",
    "task_counts",
    "agent_workload",
    "in_progress",
    "aborted_tasks",
    "failed_items",
    "history_program",
]


def completed_items(db: Database, final_task: str) -> List[str]:
    """Work items whose final task is done."""
    items = sorted(
        {str(f.args[1]) for f in db.facts("done") if str(f.args[0]) == final_task}
    )
    return items


def task_counts(db: Database) -> Dict[str, int]:
    """How many work items completed each task."""
    counts: Counter = Counter()
    for fact in db.facts("done"):
        counts[str(fact.args[0])] += 1
    return dict(counts)


def agent_workload(db: Database) -> Dict[str, int]:
    """How many task completions each agent performed.

    Fully automated tasks are attributed to the pseudo-agent ``auto``.
    """
    counts: Counter = Counter()
    for fact in db.facts("done"):
        counts[str(fact.args[2])] += 1
    return dict(counts)


def in_progress(db: Database) -> List[Tuple[str, str]]:
    """(task, item) pairs started but neither done nor aborted --
    nonempty only when inspecting an intermediate state, e.g. inside an
    execution trace.  Aborted attempts are terminated (distinctly, not
    successfully), so they are not "in progress"."""
    done = {(str(f.args[0]), str(f.args[1])) for f in db.facts("done")}
    started = {(str(f.args[0]), str(f.args[1])) for f in db.facts("started")}
    aborted = {(str(f.args[0]), str(f.args[1])) for f in db.facts("aborted")}
    return sorted(started - done - aborted)


def aborted_tasks(db: Database) -> List[Tuple[str, str]]:
    """(task, item) pairs recorded as aborted (fault-degraded attempts)."""
    return sorted(
        {(str(f.args[0]), str(f.args[1])) for f in db.facts("aborted")}
    )


def failed_items(db: Database) -> List[str]:
    """Work items with at least one aborted task and no completion of
    that same task -- the items a fault actually cost something."""
    recovered = {(str(f.args[0]), str(f.args[1])) for f in db.facts("done")}
    return sorted(
        {
            item
            for task, item in aborted_tasks(db)
            if (task, item) not in recovered
        }
    )


def history_program() -> DatalogProgram:
    """A Datalog program of derived status views over the history:

    * ``touched(W)`` -- the item has at least one completed task;
    * ``worked_with(A, B)`` -- agents A and B worked on a common item
      (reflexive: every working agent is paired with itself);
    * ``idle(A)`` -- an available agent with no completed work;
    * ``failed(W)`` -- some task on the item aborted and never
      completed (the degraded items a fault run leaves behind).
    """
    t, w, a, b = (Variable(v) for v in "TWAB")
    t2 = Variable("T2")
    return DatalogProgram([
        DatalogRule(Atom("touched", (w,)), (Literal(Atom("done", (t, w, a))),)),
        DatalogRule(
            Atom("worked_with", (a, b)),
            (
                Literal(Atom("done", (t, w, a))),
                Literal(Atom("done", (t2, w, b))),
            ),
        ),
        DatalogRule(
            Atom("idle", (a,)),
            (
                Literal(Atom("available", (a,))),
                Literal(Atom("busy_agent", (a,)), positive=False),
            ),
        ),
        DatalogRule(Atom("busy_agent", (a,)), (Literal(Atom("done", (t, w, a))),)),
        DatalogRule(
            Atom("failed", (w,)),
            (
                Literal(Atom("aborted", (t, w))),
                Literal(Atom("recovered_task", (t, w)), positive=False),
            ),
        ),
        DatalogRule(
            Atom("recovered_task", (t, w)), (Literal(Atom("done", (t, w, a))),)
        ),
    ])


def status_report(db: Database, span_id: Optional[str] = None) -> str:
    """A human-readable status summary of a history database.

    ``span_id`` (e.g. ``SimulationResult.span_id``) is echoed in the
    header so a monitoring report can be tied back to the engine trace
    that produced the history.
    """
    lines = []
    if span_id is not None:
        lines.append("engine trace span: %s" % span_id)
    lines.append("task counts:")
    for task, n in sorted(task_counts(db).items()):
        lines.append("  %-20s %d" % (task, n))
    lines.append("agent workload:")
    for agent, n in sorted(agent_workload(db).items()):
        lines.append("  %-20s %d" % (agent, n))
    aborted = aborted_tasks(db)
    if aborted:
        lines.append("aborted attempts: %s" % ", ".join("%s/%s" % p for p in aborted))
        failed = failed_items(db)
        if failed:
            lines.append("failed items: %s" % ", ".join(failed))
    pending = in_progress(db)
    if pending:
        lines.append("in progress: %s" % ", ".join("%s/%s" % p for p in pending))
    return "\n".join(lines)
