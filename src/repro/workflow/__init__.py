"""Workflow modeling on top of Transaction Datalog.

This subpackage packages the paper's Section 3 methodology as a small
library: you describe a *production workflow* -- tasks, their qualified
agents, control flow (sequence / parallel / choice / iteration), and
synchronization points -- and it compiles to a TD rulebase in exactly the
style of Examples 3.1-3.4:

* Example 3.1 -- task graphs and sub-workflows: the combinators
  :class:`Step`, :class:`SeqFlow`, :class:`ParFlow`, :class:`Choice`,
  :class:`Subflow` compile to rules like
  ``workflow(W) <- task1(W) * (task2(W) | subflow(W)) * task5(W)``;
* Example 3.2 -- dynamic instance creation: the simulator's driver rules
  ``simulate <- workitem(W) * del.workitem(W) * (workflow(W) | simulate)``
  spawn one concurrent workflow instance per work item;
* Example 3.3 -- shared resources: each task acquires a qualified agent
  from the database pool, records its work in the (insert-only) history,
  and releases the agent;
* Example 3.4 -- cooperating workflows: :class:`WaitFor` /
  :class:`Emit` / :class:`Consume` synchronize and communicate through
  the database.
"""

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
from .compiler import compile_workflows
from .scheduler import SimulationResult, WorkflowSimulator
from .monitor import agent_workload, completed_items, history_program, task_counts
from .constraints import (
    Before,
    Constraint,
    Exclusive,
    MustFollow,
    Requires,
    Violation,
    check_history,
    check_trace,
)
from .enforce import enforce
from .eventlog import event_log, timeline, to_json
from .staffing import StaffingReport, analyze_staffing, peak_role_demand

__all__ = [
    "Agent",
    "Before",
    "Constraint",
    "Exclusive",
    "MustFollow",
    "Requires",
    "Violation",
    "Choice",
    "Consume",
    "Emit",
    "Iterate",
    "Node",
    "NonVital",
    "ParFlow",
    "SeqFlow",
    "SimulationResult",
    "Step",
    "Subflow",
    "Task",
    "WaitFor",
    "StaffingReport",
    "WorkflowSimulator",
    "WorkflowSpec",
    "agent_workload",
    "analyze_staffing",
    "check_history",
    "check_trace",
    "enforce",
    "event_log",
    "compile_workflows",
    "completed_items",
    "history_program",
    "peak_role_demand",
    "task_counts",
    "timeline",
    "to_json",
]
