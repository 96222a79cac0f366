"""Static staffing analysis for workflow specifications.

Before running (or model checking) anything, a designer can ask cheap
structural questions of a workflow + agent pool:

* are all task roles covered by at least one qualified agent?
* how many agents of each role can a single work item demand *at once*
  (the maximal parallel role demand, from the ``ParFlow`` structure)?
* which agents are irreplaceable (sole holders of a qualification)?

These checks are conservative approximations of the full verification
in :mod:`repro.verify` -- linear in the spec instead of exponential in
the state space -- and catch the most common misconfiguration (an
uncovered role) instantly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

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
    WaitFor,
    WorkflowSpec,
)

__all__ = ["StaffingReport", "analyze_staffing", "peak_role_demand"]


@dataclass
class StaffingReport:
    """Outcome of the static staffing check."""

    uncovered_roles: Tuple[str, ...]
    peak_demand: Dict[str, int]
    capacity: Dict[str, int]
    bottleneck_roles: Tuple[str, ...]
    irreplaceable_agents: Dict[str, Tuple[str, ...]]

    @property
    def adequate(self) -> bool:
        """Every role covered and per-item peak demand satisfiable."""
        return not self.uncovered_roles and not self.bottleneck_roles

    def summary(self) -> str:
        lines = ["staffing adequate:   %s" % ("yes" if self.adequate else "no")]
        if self.uncovered_roles:
            lines.append("uncovered roles:     " + ", ".join(self.uncovered_roles))
        for role in sorted(self.peak_demand):
            lines.append(
                "role %-12s demand %d / capacity %d%s"
                % (
                    role,
                    self.peak_demand[role],
                    self.capacity.get(role, 0),
                    "  <-- bottleneck" if role in self.bottleneck_roles else "",
                )
            )
        for agent, roles in sorted(self.irreplaceable_agents.items()):
            lines.append(
                "irreplaceable:       %s (sole %s)" % (agent, ", ".join(roles))
            )
        return "\n".join(lines)


def peak_role_demand(
    spec: WorkflowSpec, all_specs: Sequence[WorkflowSpec] = ()
) -> Dict[str, int]:
    """The maximal number of simultaneously held agents per role that a
    *single* work item flowing through *spec* can require.

    Sequence takes the maximum over children; parallel composition sums;
    choice takes the maximum branch; iteration/non-vital inherit from
    their body.  Sub-workflows are resolved against *all_specs* (cycles
    are cut off conservatively at zero).
    """
    specs_by_name = {s.name: s for s in all_specs}
    specs_by_name.setdefault(spec.name, spec)
    role_of = {}
    for s in specs_by_name.values():
        for task in s.tasks:
            role_of[task.name] = task.role

    def walk(node: Node, visiting: frozenset) -> Counter:
        if isinstance(node, Step):
            role = role_of.get(node.task)
            return Counter({role: 1}) if role else Counter()
        if isinstance(node, SeqFlow):
            out: Counter = Counter()
            for child in node.children:
                child_demand = walk(child, visiting)
                for role, n in child_demand.items():
                    out[role] = max(out[role], n)
            return out
        if isinstance(node, ParFlow):
            out = Counter()
            for child in node.children:
                out.update(walk(child, visiting))
            return out
        if isinstance(node, Choice):
            out = Counter()
            for child in node.children:
                child_demand = walk(child, visiting)
                for role, n in child_demand.items():
                    out[role] = max(out[role], n)
            return out
        if isinstance(node, (Iterate, NonVital)):
            return walk(node.body, visiting)
        if isinstance(node, Subflow):
            if node.workflow in visiting:
                return Counter()  # recursive subflow: cut off
            sub = specs_by_name.get(node.workflow)
            if sub is None:
                return Counter()
            return walk(sub.body, visiting | {node.workflow})
        if isinstance(node, (WaitFor, Emit, Consume)):
            return Counter()
        raise TypeError("unknown node %r" % (node,))

    return dict(walk(spec.body, frozenset({spec.name})))


def analyze_staffing(
    specs: Sequence[WorkflowSpec], agents: Sequence[Agent]
) -> StaffingReport:
    """Static staffing check of *specs* against the agent pool."""
    capacity: Counter = Counter()
    holders: Dict[str, List[str]] = {}
    for agent in agents:
        for role in agent.qualifications:
            capacity[role] += 1
            holders.setdefault(role, []).append(agent.name)

    # Roles are "needed" only if some reachable Step uses a task with
    # that role -- declared-but-unused tasks do not constrain staffing.
    used_tasks: set = set()

    def collect(node: Node) -> None:
        if isinstance(node, Step):
            used_tasks.add(node.task)
        elif isinstance(node, (SeqFlow, ParFlow, Choice)):
            for child in node.children:
                collect(child)
        elif isinstance(node, (Iterate, NonVital)):
            collect(node.body)
        # Subflow bodies are covered because all specs are scanned.

    for spec in specs:
        collect(spec.body)
    role_by_task = {
        task.name: task.role for spec in specs for task in spec.tasks
    }
    needed_roles = {
        role_by_task[name]
        for name in used_tasks
        if role_by_task.get(name)
    }
    uncovered = tuple(sorted(r for r in needed_roles if capacity.get(r, 0) == 0))

    peak: Dict[str, int] = {}
    for spec in specs:
        for role, n in peak_role_demand(spec, specs).items():
            peak[role] = max(peak.get(role, 0), n)

    bottlenecks = tuple(
        sorted(
            role
            for role, demand in peak.items()
            if capacity.get(role, 0) < demand
        )
    )

    irreplaceable: Dict[str, Tuple[str, ...]] = {}
    for role, names in holders.items():
        if role in needed_roles and len(names) == 1:
            irreplaceable.setdefault(names[0], ())
            irreplaceable[names[0]] = irreplaceable[names[0]] + (role,)

    return StaffingReport(
        uncovered_roles=uncovered,
        peak_demand=peak,
        capacity=dict(capacity),
        bottleneck_roles=bottlenecks,
        irreplaceable_agents=irreplaceable,
    )
