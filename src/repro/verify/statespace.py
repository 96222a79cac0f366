"""Explicit construction of a TD program's configuration graph.

Where the interpreter searches for *one* way to commit, verification
needs the *whole* reachable graph: every configuration, every
transition, including the stuck ones the engines prune away.  The
explorer below therefore runs the raw transition relation -- no
dead-configuration pruning -- and records edges.

Termination is guaranteed for fully bounded programs (finite space); for
anything else the ``max_states`` bound raises
:class:`~repro.core.errors.SearchBudgetExceeded`, mirroring the paper's
boundary: verification is exactly what boundedness buys you.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

from ..core.database import Database
from ..core.errors import SearchBudgetExceeded
from ..obs import context as _context
from ..core.formulas import Formula
from ..core.interpreter import Interpreter
from ..core.parser import parse_goal
from ..core.program import Program
from ..core.transitions import canonical_key, enabled_steps, is_final, successor

__all__ = ["StateNode", "StateGraph", "explore"]


@dataclass
class StateNode:
    """One reachable configuration."""

    node_id: int
    process: Formula
    database: Database
    final: bool

    def __str__(self) -> str:
        marker = " (final)" if self.final else ""
        return "state %d%s: %s  @  %s" % (
            self.node_id,
            marker,
            self.process,
            self.database,
        )


@dataclass
class StateGraph:
    """The reachable configuration graph.

    ``edges[i]`` lists ``(action label, successor id)`` pairs;
    ``parents[i]`` records one shortest-path predecessor for
    counterexample extraction.
    """

    nodes: List[StateNode]
    edges: Dict[int, List[Tuple[str, int]]]
    parents: Dict[int, Tuple[int, str]]
    initial: int = 0

    @property
    def final_ids(self) -> List[int]:
        return [n.node_id for n in self.nodes if n.final]

    def successors(self, node_id: int) -> List[int]:
        return [succ for _label, succ in self.edges.get(node_id, [])]

    def path_to(self, node_id: int) -> List[str]:
        """Action labels along one shortest path from the initial state."""
        labels: List[str] = []
        current = node_id
        while current != self.initial:
            parent, label = self.parents[current]
            labels.append(label)
            current = parent
        labels.reverse()
        return labels

    def __len__(self) -> int:
        return len(self.nodes)

    def to_dot(self, max_label: int = 40) -> str:
        """Graphviz rendering of the configuration graph.

        Final states are doubled circles, stuck states shaded; node
        labels show the database (truncated), edge labels the action.
        """
        lines = ["digraph configurations {", "  rankdir=LR;"]
        for node in self.nodes:
            label = str(node.database)
            if len(label) > max_label:
                label = label[: max_label - 3] + "..."
            attrs = ['label="%d: %s"' % (node.node_id, label.replace('"', "'"))]
            if node.final:
                attrs.append("shape=doublecircle")
            elif not self.edges.get(node.node_id):
                attrs.append("style=filled fillcolor=lightgray")
            lines.append("  n%d [%s];" % (node.node_id, " ".join(attrs)))
        for src, outs in sorted(self.edges.items()):
            for action, dst in outs:
                action = action.replace('"', "'")
                if len(action) > max_label:
                    action = action[: max_label - 3] + "..."
                lines.append('  n%d -> n%d [label="%s"];' % (src, dst, action))
        lines.append("}")
        return "\n".join(lines)


def explore(
    program: Program,
    goal: Union[str, Formula],
    db: Database,
    max_states: int = 100_000,
) -> StateGraph:
    """Build the configuration graph of ``(goal, db)`` under *program*.

    Raises :class:`SearchBudgetExceeded` if more than ``max_states``
    configurations are reachable -- for fully bounded programs pick a
    budget to taste; for full TD no budget is large enough in general.
    """
    if isinstance(goal, str):
        goal = parse_goal(goal)
    goal = program.resolve_goal(goal)

    # Isolation needs an executor for iso bodies; reuse the interpreter's
    # nested-search machinery with its own budget.
    ev = _context.capture()
    interp = Interpreter(program, max_configs=max_states * 10)
    budget = interp._make_budget(ev)

    nodes: List[StateNode] = []
    edges: Dict[int, List[Tuple[str, int]]] = {}
    parents: Dict[int, Tuple[int, str]] = {}
    ids: Dict[object, int] = {}
    edge_count = 0

    def intern(proc: Formula, state: Database) -> Tuple[int, bool]:
        key = (canonical_key(proc), state)
        existing = ids.get(key)
        if existing is not None:
            return existing, False
        node_id = len(nodes)
        if node_id >= max_states:
            raise SearchBudgetExceeded(node_id + 1, max_states, spent=budget.used)
        ids[key] = node_id
        nodes.append(StateNode(node_id, proc, state, is_final(proc)))
        edges[node_id] = []
        return node_id, True

    with _context.span(ev, "statespace.explore", goal=str(goal)), \
            _context.observing(ev, "statespace"):
        start, _ = intern(goal, db)
        frontier = deque([start])
        while frontier:
            node_id = frontier.popleft()
            node = nodes[node_id]
            if node.final:
                continue
            steps = enabled_steps(
                program, node.process, node.database, interp._isol_runner(budget, ev)
            )
            if ev is not None:
                ev.state()
                steps = ev.metered(steps)
            for step in steps:
                new_proc = successor(step)
                succ_id, fresh = intern(new_proc, step.database)
                label = str(step.action)
                edges[node_id].append((label, succ_id))
                edge_count += 1
                if fresh:
                    parents[succ_id] = (node_id, label)
                    frontier.append(succ_id)
        if ev is not None:
            ev.graph(len(nodes), edge_count)

    return StateGraph(nodes=nodes, edges=edges, parents=parents, initial=start)
