"""Workflow verification: model checking bounded TD programs.

The paper's companion line of work (Davulcu, Kifer et al., PODS 1998)
uses TD as the target language for workflow *reasoning* -- consistency
and verification of workflow specifications.  Fully bounded TD makes
this feasible: its configuration space is finite, so safety and
liveness questions reduce to graph analysis.

This subpackage builds the reachable configuration graph of a program +
goal + initial database (:func:`explore`) and answers the questions a
workflow designer asks before deployment:

* :func:`deadlocks` -- stuck configurations (no step, not finished):
  e.g. a task whose role no agent covers, or two workflows waiting on
  each other's tokens;
* :func:`invariant_holds` -- a safety property over every reachable
  database state (with a counterexample trace when violated);
* :func:`can_reach` / :func:`inevitably` -- possibility and inevitability
  of a condition (EF / AF in temporal-logic terms);
* :func:`may_diverge` -- existence of an infinite run (a reachable
  cycle);
* :func:`verify_workflow` -- the packaged report for a workflow
  simulator setup.
"""

from .statespace import StateGraph, StateNode, explore
from .properties import (
    can_reach,
    deadlocks,
    inevitably,
    invariant_holds,
    may_diverge,
)
from .workflows import WorkflowReport, verify_workflow

__all__ = [
    "StateGraph",
    "StateNode",
    "WorkflowReport",
    "can_reach",
    "deadlocks",
    "explore",
    "inevitably",
    "invariant_holds",
    "may_diverge",
    "verify_workflow",
]
