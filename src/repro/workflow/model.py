"""Workflow specifications: tasks, agents, and control-flow combinators.

A :class:`WorkflowSpec` is a named process over one *work item* (the
paper's unit of flow: a DNA sample, an insurance claim, a loan
application).  Its body is a tree of :class:`Node` combinators; the
compiler turns the tree into TD rules parameterized by the work item
variable ``W``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple


__all__ = [
    "Task",
    "Agent",
    "Node",
    "NonVital",
    "Step",
    "SeqFlow",
    "ParFlow",
    "Choice",
    "Iterate",
    "Subflow",
    "WaitFor",
    "Emit",
    "Consume",
    "WorkflowSpec",
]


@dataclass(frozen=True)
class Task:
    """A unit of work performed on a work item.

    ``role``: if set, the task must be performed by an *agent* qualified
    for this role; the compiled rule acquires one from the shared pool
    (``available``/``qualified`` facts), records the work in the history
    (``started``/``done`` facts -- insert-only, per the genome-lab
    discipline), and releases the agent (Example 3.3).  With no role the
    task runs unattended (a fully automated step).
    """

    name: str
    role: Optional[str] = None


@dataclass(frozen=True)
class Agent:
    """A shared resource: a technician or machine with qualifications."""

    name: str
    qualifications: Tuple[str, ...] = ()


class Node:
    """Base class of workflow control-flow combinators."""

    __slots__ = ()


@dataclass(frozen=True)
class Step(Node):
    """Perform a named task on the work item."""

    task: str


@dataclass(frozen=True)
class SeqFlow(Node):
    """Children in sequence (compiles to sequential composition)."""

    children: Tuple[Node, ...]

    def __init__(self, *children: Node):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class ParFlow(Node):
    """Children concurrently (compiles to concurrent composition)."""

    children: Tuple[Node, ...]

    def __init__(self, *children: Node):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class Choice(Node):
    """Exactly one child executes (compiles to multiple rules for a
    generated predicate -- TD's native nondeterministic choice)."""

    children: Tuple[Node, ...]

    def __init__(self, *children: Node):
        object.__setattr__(self, "children", tuple(children))


@dataclass(frozen=True)
class Iterate(Node):
    """Repeat ``body`` until ``until`` holds for the work item.

    ``until`` is a predicate name: the loop stops once ``until(W)`` is in
    the database (typically inserted by a task inside the body -- "repeat
    the experimental protocol until a conclusive result", as the paper
    says of the genome workflow).  Compiles to sequential tail recursion,
    the fully-bounded recursion form of Section 5.
    """

    body: Node
    until: str


@dataclass(frozen=True)
class Subflow(Node):
    """Invoke another named workflow on the same work item
    (Example 3.1's sub-workflow)."""

    workflow: str


@dataclass(frozen=True)
class NonVital(Node):
    """A non-vital subtransaction: attempt ``body``; if it cannot commit,
    skip it without aborting the parent.

    One of the "advanced transaction model" features the paper credits
    TD with expressing -- the failure of a non-vital child does not imply
    the failure of its parent.  Compiles to a choice between the body and
    the empty process, so the engines explore the attempt first and fall
    back to skipping.  Note the TD semantics: "attempted but failed" and
    "skipped" are the same observable outcome, a commit without the
    body's effects.
    """

    body: Node


@dataclass(frozen=True)
class WaitFor(Node):
    """Block until ``pred(W)`` appears in the database -- synchronization
    with a cooperating workflow (Example 3.4).  Compiles to a tuple test,
    which simply cannot fire until a sibling process inserts the fact."""

    pred: str


@dataclass(frozen=True)
class Emit(Node):
    """Insert ``pred(W)``: publish information for cooperating
    workflows (the communication half of Example 3.4)."""

    pred: str


@dataclass(frozen=True)
class Consume(Node):
    """Test-and-delete ``pred(W)``: consume a message or token exactly
    once (at-most-once hand-off between cooperating workflows)."""

    pred: str


@dataclass(frozen=True)
class WorkflowSpec:
    """A named workflow over a single work item."""

    name: str
    body: Node
    tasks: Tuple[Task, ...] = ()

    def task_map(self) -> Dict[str, Task]:
        return {t.name: t for t in self.tasks}

    def validate(self, known_workflows: Sequence[str] = ()) -> None:
        """Check that every Step names a declared task and every Subflow
        a known workflow."""
        tasks = self.task_map()
        known = set(known_workflows) | {self.name}

        def walk(node: Node) -> None:
            if isinstance(node, Step):
                if node.task not in tasks:
                    raise ValueError(
                        "workflow %s: step uses undeclared task %r"
                        % (self.name, node.task)
                    )
            elif isinstance(node, (SeqFlow, ParFlow, Choice)):
                if not node.children:
                    raise ValueError(
                        "workflow %s: empty %s"
                        % (self.name, type(node).__name__)
                    )
                for child in node.children:
                    walk(child)
            elif isinstance(node, (Iterate, NonVital)):
                walk(node.body)
            elif isinstance(node, Subflow):
                if node.workflow not in known:
                    raise ValueError(
                        "workflow %s: subflow names unknown workflow %r"
                        % (self.name, node.workflow)
                    )
            elif isinstance(node, (WaitFor, Emit, Consume)):
                pass
            else:
                raise TypeError("unknown workflow node %r" % (node,))

        walk(self.body)
