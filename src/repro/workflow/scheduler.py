"""Workflow simulation: dynamic instance creation and environments.

Implements the paper's Example 3.2.  The driver rules::

    simulate <- workitem(W) * del.workitem(W) * (wf_main(W) | simulate).
    simulate <- not workitem(_).

spawn one *concurrent* workflow instance per work item: each recursive
call peels a work item off the database and runs its instance in
parallel with the rest of the simulation.  This is recursion through
concurrent composition -- the very feature the complexity section shows
makes TD Turing-complete -- used here the way the paper intends, as a
workflow engine.

Following Example 3.2's closing remark, the environment can itself be
"just another process": with ``environment=True`` the goal becomes
``simulate | env`` where ``env`` feeds pending items into the database
while the simulation is already running::

    env <- pending(W) * del.pending(W) * ins.workitem(W) * env.
    env <- not pending(_).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..core.database import Database
from ..core.formulas import Call, Del, Formula, Ins, Isol, Neg, Test, conc, seq
from ..obs.context import active
from ..core.interpreter import Execution, Interpreter
from ..core.program import Program, Rule
from ..core.terms import Atom, Variable, atom
from ..core.transitions import Action
from .compiler import agent_facts, compile_workflows, workflow_predicate
from .model import Agent, WorkflowSpec

__all__ = ["WorkflowSimulator", "SimulationResult", "driver_rules"]


def driver_rules(main_workflow: str) -> List[Rule]:
    """Example 3.2's instance-creation rules for the given main workflow."""
    w = Variable("W")
    workitem = Atom("workitem", (w,))
    return [
        Rule(
            atom("simulate"),
            seq(
                Test(workitem),
                Del(workitem),
                conc(
                    Call(Atom(workflow_predicate(main_workflow), (w,))),
                    Call(atom("simulate")),
                ),
            ),
        ),
        # Stop only when no work item is queued *and* the environment has
        # nothing left to feed -- otherwise the valid-but-unhelpful
        # interleaving "quit before the environment delivers" commits
        # with unprocessed items.  The two absence tests are wrapped in
        # iso(...) so they snapshot the *same* state: checked one at a
        # time, each could be true at a different moment with items in
        # flight in between.
        Rule(
            atom("simulate"),
            Isol(
                seq(
                    Neg(Atom("workitem", (Variable("_W"),))),
                    Neg(Atom("pending", (Variable("_P"),))),
                )
            ),
        ),
    ]


def environment_rules() -> List[Rule]:
    """The environment as another process, feeding pending work items."""
    w = Variable("W")
    pending = Atom("pending", (w,))
    return [
        Rule(
            atom("env"),
            seq(
                Test(pending),
                # Insert before deleting: the item is always visible as
                # pending or workitem, so the driver's stop rule cannot
                # fire inside the hand-off window.
                Ins(Atom("workitem", (w,))),
                Del(pending),
                Call(atom("env")),
            ),
        ),
        Rule(atom("env"), Neg(Atom("pending", (Variable("_P"),)))),
    ]


@dataclass
class SimulationResult:
    """Outcome of a workflow simulation run.

    ``span_id`` correlates this run with the engine trace: when the
    simulation ran under :func:`repro.obs.instrumented`, it is the id of
    the ``workflow.simulate`` span enclosing the engine's search spans,
    and event-log records carry it (see :mod:`repro.workflow.eventlog`).
    """

    execution: Execution
    span_id: Optional[str] = None

    @property
    def history(self) -> Database:
        """The final database (including the insert-only history)."""
        return self.execution.database

    @property
    def events(self) -> Tuple[str, ...]:
        """Elementary update events, in execution order."""
        return tuple(
            str(a)
            for a in self._flat_actions()
            if a.kind in ("ins", "del")
        )

    def _flat_actions(self) -> List[Action]:
        out: List[Action] = []

        def walk(actions: Sequence[Action]) -> None:
            for a in actions:
                if a.kind == "iso":
                    walk(a.subtrace)
                else:
                    out.append(a)

        walk(self.execution.trace)
        return out

    def completed(self, task: str) -> List[str]:
        """Work items for which ``done(task, W, _)`` is recorded."""
        items = set()
        for fact in self.history.facts("done"):
            t, w, _agent = fact.args
            if t.value == task:
                items.add(w.value)
        return sorted(items, key=str)


class WorkflowSimulator:
    """Build and run the full simulation program for a set of workflows.

    Parameters
    ----------
    specs:
        The workflow definitions; the first is the *main* workflow whose
        instances the driver spawns (others are reachable via
        ``Subflow``).
    agents:
        The shared agent pool (Example 3.3).
    extra_rules:
        Additional hand-written TD rules to merge in (e.g. a cooperating
        producer workflow written directly in TD).
    """

    def __init__(
        self,
        specs: Sequence[WorkflowSpec],
        agents: Sequence[Agent] = (),
        extra_rules: Sequence[Rule] = (),
        max_configs: int = 2_000_000,
        abortable: bool = False,
    ):
        self.specs = list(specs)
        if not self.specs:
            raise ValueError("need at least one workflow spec")
        self.agents = list(agents)
        base_program = compile_workflows(self.specs, abortable=abortable)
        rules = list(base_program.rules)
        rules += driver_rules(self.specs[0].name)
        rules += environment_rules()
        rules += list(extra_rules)
        self.program = Program(rules)
        self.abortable = abortable
        self.interpreter = Interpreter(self.program, max_configs=max_configs)

    def initial_database(
        self, items: Sequence[str], pending: Sequence[str] = (), extra_facts=()
    ) -> Database:
        facts = [atom("workitem", w) for w in items]
        facts += [atom("pending", w) for w in pending]
        facts += agent_facts(self.agents)
        facts += list(extra_facts)
        return Database(facts)

    def run(
        self,
        items: Sequence[str],
        pending: Sequence[str] = (),
        environment: bool = False,
        extra_facts: Sequence[Atom] = (),
        extra_goal: Optional[Formula] = None,
        seed: Optional[int] = None,
        max_depth: int = 100_000,
        fault_plan=None,
        retry_attempts: int = 0,
        retry_budget: Optional[int] = None,
    ) -> SimulationResult:
        """Simulate until every instance completes; returns the result.

        Raises :class:`RuntimeError` if no successful execution exists
        (e.g. no agent is qualified for some task: the workflow
        deadlocks, which TD reports as failure to commit).

        ``fault_plan`` runs this simulation under a deterministic
        :class:`~repro.faults.plan.FaultPlan` (a fresh injector per
        call, so the same plan perturbs identically every time).
        ``retry_attempts`` wraps the whole simulation goal in the
        ``retry`` recovery combinator with that many isolated attempts
        -- under transient faults the later attempts land after the
        fault windows close.  ``retry_budget`` additionally caps each
        attempt's search (``iso[k]``), so one wandering attempt fails
        at the cap instead of exhausting the whole budget.
        """
        db = self.initial_database(items, pending, extra_facts)
        goal: Formula = Call(atom("simulate"))
        if environment or pending:
            goal = conc(goal, Call(atom("env")))
        if extra_goal is not None:
            goal = conc(goal, extra_goal)
        interpreter = self.interpreter
        if retry_attempts:
            # Imported here: repro.faults sits above the workflow layer.
            from ..faults.recovery import retry

            recovered = retry(goal, retry_attempts, budget=retry_budget)
            program = self.program.extend(recovered.rules)
            db = db.insert_all(recovered.facts)
            goal = program.resolve_goal(recovered.goal)
            interpreter = Interpreter(
                program, max_configs=interpreter.max_configs
            )
        if fault_plan is not None:
            from ..faults.inject import FaultInjector

            interpreter = Interpreter(
                interpreter.program,
                max_configs=interpreter.max_configs,
                faults=FaultInjector(fault_plan),
            )
        obs = active()
        with obs.span("workflow.simulate", main=self.specs[0].name) as span:
            execution = interpreter.simulate(
                goal, db, seed=seed, max_depth=max_depth
            )
        if execution is None:
            raise RuntimeError(
                "workflow simulation cannot commit (deadlock or "
                "unsatisfiable resource requirements)"
            )
        return SimulationResult(
            execution, span_id=span.span_id if span is not None else None
        )
