"""Compile workflow specifications into Transaction Datalog rulebases.

The compilation scheme is the paper's (Examples 3.1 and 3.3):

* a workflow ``f`` with body B becomes ``wf_f(W) <- [[B]]`` where
  ``[[.]]`` maps sequence to ``*``, parallelism to ``|``, a step to a
  call ``task_t(W)``, and choice/iteration to generated predicates with
  one rule per alternative;
* a task ``t`` requiring role ``r`` becomes::

      task_t(W) <- available(A) * qualified(A, r) * del.available(A) *
                   ins.started(t, W) * ins.done(t, W, A) *
                   ins.available(A).

  The agent pool is the shared resource limiting concurrency; the
  ``started``/``done`` facts are the insert-only experiment history that
  monitoring queries run over.
* iteration becomes sequential tail recursion (``Iterate``), the
  fully-bounded recursion form of Section 5::

      it_k(W) <- until(W).
      it_k(W) <- not until(W) * [[body]] * it_k(W).

With ``abortable=True`` every task also gets a last-resort rule::

    task_t(W) <- ins.started(t, W) * ins.aborted(t, W).

Under the DFS scheduler's program-order preference the rule only fires
when the normal rule cannot (no qualified agent claimable -- e.g. a
fault-injected outage), recording the failed attempt *distinctly* in
the history instead of deadlocking the whole simulation: graceful
degradation, with ``aborted(Task, Item)`` facts for monitoring to
report and for the event log to close unmatched ``started`` records
against.  The default (``False``) compiles exactly as before.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Sequence

from ..core.formulas import (
    Call,
    Del,
    Formula,
    Ins,
    Neg,
    TRUTH,
    Test,
    conc,
    iso,
    seq,
)
from ..core.program import Program, Rule
from ..core.terms import Atom, Constant, Variable, atom
from .model import (
    Agent,
    Choice,
    Consume,
    Emit,
    Iterate,
    Node,
    NonVital,
    ParFlow,
    SeqFlow,
    Step,
    Subflow,
    Task,
    WaitFor,
    WorkflowSpec,
)

__all__ = ["compile_workflows", "workflow_predicate", "task_predicate", "agent_facts"]

_W = Variable("W")


def workflow_predicate(name: str) -> str:
    """The derived predicate implementing workflow *name*."""
    return "wf_%s" % name


def task_predicate(name: str) -> str:
    """The derived predicate implementing task *name*."""
    return "task_%s" % name


class _Compiler:
    def __init__(self, specs: Sequence[WorkflowSpec], abortable: bool = False):
        self.specs = list(specs)
        self.abortable = abortable
        self.rules: List[Rule] = []
        self._aux = itertools.count(1)
        names = [s.name for s in self.specs]
        if len(set(names)) != len(names):
            raise ValueError("duplicate workflow names: %s" % names)
        self._names = names

    def compile(self) -> List[Rule]:
        tasks: Dict[str, Task] = {}
        for spec in self.specs:
            spec.validate(known_workflows=self._names)
            for task in spec.tasks:
                existing = tasks.get(task.name)
                if existing is not None and existing != task:
                    raise ValueError(
                        "task %r declared twice with different roles" % task.name
                    )
                tasks[task.name] = task
        for task in tasks.values():
            self.rules.append(self._task_rule(task))
            if self.abortable:
                self.rules.append(self._abort_rule(task))
        for spec in self.specs:
            head = Atom(workflow_predicate(spec.name), (_W,))
            self.rules.append(Rule(head, self._node(spec.name, spec.body)))
        return self.rules

    # -- tasks --------------------------------------------------------------------

    def _task_rule(self, task: Task) -> Rule:
        head = Atom(task_predicate(task.name), (_W,))
        t = Constant(task.name)
        if task.role is None:
            body = seq(
                Ins(Atom("started", (t, _W))),
                Ins(Atom("done", (t, _W, Constant("auto")))),
            )
            return Rule(head, body)
        a = Variable("A")
        body = seq(
            Test(Atom("available", (a,))),
            Test(Atom("qualified", (a, Constant(task.role)))),
            Del(Atom("available", (a,))),
            Ins(Atom("started", (t, _W))),
            Ins(Atom("done", (t, _W, a))),
            Ins(Atom("available", (a,))),
        )
        return Rule(head, body)

    def _abort_rule(self, task: Task) -> Rule:
        """Last-resort alternative: record the attempt as aborted.

        Listed *after* the normal rule, so schedulers that honor program
        order only reach it when the task cannot execute; the
        ``started``/``aborted`` pair keeps the history honest about the
        failed attempt (no fabricated ``done``, no claimed agent).
        """
        head = Atom(task_predicate(task.name), (_W,))
        t = Constant(task.name)
        body = seq(
            Ins(Atom("started", (t, _W))),
            Ins(Atom("aborted", (t, _W))),
        )
        return Rule(head, body)

    # -- control flow ---------------------------------------------------------------

    def _node(self, wf: str, node: Node) -> Formula:
        if isinstance(node, Step):
            return Call(Atom(task_predicate(node.task), (_W,)))
        if isinstance(node, SeqFlow):
            return seq(*(self._node(wf, c) for c in node.children))
        if isinstance(node, ParFlow):
            return conc(*(self._node(wf, c) for c in node.children))
        if isinstance(node, Choice):
            pred = "%s_choice%d" % (workflow_predicate(wf), next(self._aux))
            head = Atom(pred, (_W,))
            for child in node.children:
                self.rules.append(Rule(head, self._node(wf, child)))
            return Call(head)
        if isinstance(node, Iterate):
            pred = "%s_iter%d" % (workflow_predicate(wf), next(self._aux))
            head = Atom(pred, (_W,))
            until = Atom(node.until, (_W,))
            self.rules.append(Rule(head, Test(until)))
            self.rules.append(
                Rule(head, seq(Neg(until), self._node(wf, node.body), Call(head)))
            )
            return Call(head)
        if isinstance(node, NonVital):
            # advanced-transaction feature: attempt-else-skip.  Two rules
            # for a generated predicate; the empty alternative makes the
            # child's failure survivable by the parent.
            pred = "%s_nonvital%d" % (workflow_predicate(wf), next(self._aux))
            head = Atom(pred, (_W,))
            self.rules.append(Rule(head, self._node(wf, node.body)))
            self.rules.append(Rule(head, TRUTH))
            return Call(head)
        if isinstance(node, Subflow):
            return Call(Atom(workflow_predicate(node.workflow), (_W,)))
        if isinstance(node, WaitFor):
            return Test(Atom(node.pred, (_W,)))
        if isinstance(node, Emit):
            return Ins(Atom(node.pred, (_W,)))
        if isinstance(node, Consume):
            # iso makes the take atomic: with a bare test-then-delete two
            # consumers could both pass the test before either deletes
            # (deletion of an absent fact is a no-op), defeating
            # at-most-once hand-off.
            target = Atom(node.pred, (_W,))
            return iso(seq(Test(target), Del(target)))
        raise TypeError("unknown workflow node %r" % (node,))


def compile_workflows(
    specs: Sequence[WorkflowSpec], abortable: bool = False
) -> Program:
    """Compile one or more (possibly mutually referring) workflows.

    ``abortable`` adds the per-task graceful-degradation rule (see
    module docstring); the default compiles exactly the paper's scheme.
    """
    rules = _Compiler(specs, abortable=abortable).compile()
    return Program(rules)


def agent_facts(agents: Sequence[Agent]) -> List[Atom]:
    """The agent pool as database facts (Example 3.3's resource model)."""
    facts: List[Atom] = []
    for agent in agents:
        facts.append(atom("available", agent.name))
        for role in agent.qualifications:
            facts.append(atom("qualified", agent.name, role))
    return facts
