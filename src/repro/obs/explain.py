"""Answer explanation on top of the provenance recorder.

Three tools, all consuming the derivation DAG a
:class:`~repro.obs.provenance.ProvenanceRecorder` captures:

* **Proof trees** (:func:`explain_goal` + :func:`render_proof_tree`):
  run a goal with a fresh recorder attached and render, for each
  solution, the chain of steps (or big-step rule applications) that
  produced it -- bindings and database deltas included.  Traces double
  as certificates: :func:`verify_execution` replays a small-step trace
  over the initial state and checks it reproduces the claimed final
  state (see :func:`repro.core.transitions.replay_actions`).

* **Why-not reports** (:func:`why_not_report`): when a goal has no
  (or fewer than expected) solutions, summarize where the search died
  -- the disposition histogram, which branches failed to unify, were
  pruned, or were subsumed, what the dead branches wait for (their
  ``blocked_on`` witnesses: the missing fact, the failing guard), and
  the deepest partial derivations.  Nested table and ``iso`` searches
  record under the node that started them, so their dead branches
  count too.

* **Pruning audit** (:func:`audit_por_goal`,
  :func:`audit_profile_config`): every ample-set decision the
  partial-order reducer records carries a witness -- the ample branch's
  frontier footprint, the deferred branches' closures, and the shared
  variables.  The audit re-checks each witness with an *independent*
  re-implementation of the commutation test, and replays the workload
  with reduction forced off (:func:`repro.core.por.por_disabled`) to
  confirm the solution set is unchanged.  A pruned step that fails
  either check is *unexplained* -- a reducer bug.

This module imports the core engines, so ``repro.obs`` does **not**
import it at package level (the core imports ``repro.obs``); import it
directly as ``from repro.obs import explain``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .context import Instrumentation, instrumented
from .provenance import ProvNode, ProvenanceRecorder, recording

__all__ = [
    "PorAudit",
    "audit_por_goal",
    "audit_profile_config",
    "check_ample_witness",
    "explain_goal",
    "render_proof_tree",
    "to_dot",
    "verify_execution",
    "why_not_report",
]

#: Dispositions that terminate a branch without contributing an answer.
_DEAD = (
    "failed-unify",
    "dead-config",
    "frontier-subsumed",
    "por-pruned",
    "budget-exhausted",
    "deadline-exhausted",
    "depth-limit",
    "backtracked",
)


# ---------------------------------------------------------------------------
# Running a goal under a recorder
# ---------------------------------------------------------------------------


def explain_goal(
    program,
    goal,
    db,
    *,
    mode: str = "auto",
    max_configs: int = 200_000,
):
    """Run *goal* with a fresh recorder attached.

    Returns ``(recorder, solutions)``.  *mode*:

    * ``"auto"`` -- route through :func:`repro.core.engine.select_engine`
      (the Datalog reader records its fixpoint's derived facts).  The
      reader's recording has no dead leaves, so when it finds no
      solution the recording returned is the ``"bfs"`` one;
    * ``"bfs"`` -- force the small-step interpreter's fair search, with
      execution traces attached (each solution is an ``Execution``);
    * ``"dfs"`` -- force the backtracking scheduler; at most one
      solution, with the full action trace.
    """
    from ..core.engine import select_engine
    from ..core.interpreter import Interpreter
    from ..core.parser import as_goal

    goal = as_goal(goal)
    if mode not in ("auto", "bfs", "dfs"):
        raise ValueError("mode must be auto, bfs, or dfs (got %r)" % (mode,))
    with recording() as recorder:
        if mode == "dfs":
            interp = Interpreter(program, max_configs=max_configs)
            execution = interp.simulate(goal, db)
            return recorder, [execution] if execution is not None else []
        if mode == "bfs":
            interp = Interpreter(program, max_configs=max_configs)
            return recorder, list(interp.run(goal, db))
        engine = select_engine(program, goal, max_configs=max_configs)
        solutions = list(engine.solve(goal, db))
    if solutions or isinstance(engine.backend, Interpreter):
        return recorder, solutions
    return explain_goal(program, goal, db, mode="bfs", max_configs=max_configs)


def verify_execution(execution, db) -> bool:
    """Replay *execution*'s trace over *db*; ``True`` iff the replay
    reproduces the execution's final database (the certificate check)."""
    from ..core.transitions import replay_actions

    return replay_actions(execution.trace, db) == execution.database


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------


def _by_id(nodes: Sequence[ProvNode]) -> Dict[int, ProvNode]:
    return {n.node_id: n for n in nodes}


def _children(nodes: Sequence[ProvNode]) -> Dict[Optional[int], List[int]]:
    out: Dict[Optional[int], List[int]] = {}
    for n in nodes:
        out.setdefault(n.parent, []).append(n.node_id)
    return out

def _ancestor_closure(
    nodes: Sequence[ProvNode], targets: Sequence[ProvNode]
) -> Set[int]:
    by_id = _by_id(nodes)
    keep: Set[int] = set()
    for target in targets:
        nid: Optional[int] = target.node_id
        while nid is not None and nid not in keep:
            keep.add(nid)
            nid = by_id[nid].parent
    return keep


def _annotate(node: ProvNode) -> str:
    parts = [node.label]
    if node.bindings:
        parts.append(
            "{%s}" % ", ".join("%s=%s" % kv for kv in sorted(node.bindings.items()))
        )
    for fact in node.inserted:
        parts.append("+%s" % fact)
    for fact in node.deleted:
        parts.append("-%s" % fact)
    if node.disposition not in ("expanded", "root"):
        parts.append("[%s]" % node.disposition)
    return " ".join(parts)


def render_proof_tree(recorder: ProvenanceRecorder) -> str:
    """The sub-forest of solution nodes and their ancestors, indented.

    Each line is one derivation node: its label (the action or rule
    application), the unifier bindings, the database delta (``+fact`` /
    ``-fact``), and a ``[disposition]`` tag for non-plain nodes.
    """
    nodes = recorder.nodes
    solutions = recorder.solutions()
    if not solutions:
        return "no solution recorded (try `explain --why-not`)"
    keep = _ancestor_closure(nodes, solutions)
    children = _children(nodes)
    by_id = _by_id(nodes)
    lines: List[str] = []

    def walk(nid: int, depth: int) -> None:
        lines.append("  " * depth + _annotate(by_id[nid]))
        for child in children.get(nid, ()):
            if child in keep:
                walk(child, depth + 1)

    for n in nodes:
        if n.parent is None and n.node_id in keep:
            walk(n.node_id, 0)
    return "\n".join(lines)


def _predicate_of_label(label: str) -> str:
    """Best-effort predicate name behind a provenance node label
    (``"withdraw(a, 30)"`` → ``"withdraw"``, ``"del.balance(...)"`` →
    ``"balance"``)."""
    head = label.split("(", 1)[0].strip()
    if " " in head:  # node-kind prefixes: "call p(...)", "test q(...)"
        head = head.rsplit(" ", 1)[-1]
    if "." in head:  # update prefixes: "ins.p", "del.p"
        head = head.rsplit(".", 1)[-1]
    return head


def _blockers(dead: Sequence[ProvNode], by_id: Dict[int, ProvNode]):
    """The ``blocked_on`` reasons of the *dead* leaves, counted and
    ranked; a reason recorded below ``iso`` nodes is marked ``inside
    iso:`` once per enclosing ``iso``."""
    counts: Dict[str, int] = {}
    for leaf in dead:
        reasons = leaf.witness.get("blocked_on")
        if not reasons:
            continue
        prefix = ""
        nid = leaf.parent
        while nid is not None:
            node = by_id[nid]
            if node.kind == "iso":
                prefix += "inside iso: "
            nid = node.parent
        for reason in reasons:
            counts[prefix + reason] = counts.get(prefix + reason, 0) + 1
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def why_not_report(
    recorder: ProvenanceRecorder,
    top_k: int = 5,
    costs: Optional[Dict[str, Dict[str, float]]] = None,
) -> str:
    """Summary of where the search died: disposition histogram, dead
    branch labels, the *top_k* reasons the dead branches were blocked
    on, and the *top_k* deepest failed partial derivations (rendered as
    root-to-leaf paths).

    *costs* is an optional per-predicate cost rollup (the shape
    :meth:`repro.obs.hotspots.CostAttributor.predicate_rollup` returns).
    When given, each dead-branch line cites what the search *spent*
    under that predicate -- a branch that failed cheaply is noise, one
    that burned the budget is the lead worth chasing.
    """
    nodes = recorder.nodes
    lines: List[str] = []
    hist = recorder.by_disposition()
    lines.append("derivation nodes: %d (%d dropped)" % (len(nodes), recorder.dropped))
    lines.append("dispositions:")
    for disp in sorted(hist, key=lambda d: (-hist[d], d)):
        lines.append("  %-20s %d" % (disp, hist[disp]))
    solutions = hist.get("solution", 0)
    if solutions:
        lines.append("note: %d solution(s) exist; below is the failure side" % solutions)

    # Dead leaves: no children, non-solution disposition.
    children = _children(nodes)
    by_id = _by_id(nodes)
    dead = [
        n
        for n in nodes
        if n.disposition in _DEAD and not children.get(n.node_id)
    ]
    if not dead:
        lines.append("no failed branches recorded")
        return "\n".join(lines)

    by_label: Dict[Tuple[str, str], int] = {}
    for n in dead:
        key = (n.disposition, n.label)
        by_label[key] = by_label.get(key, 0) + 1
    lines.append("dead branches (by step and disposition):")
    ranked = sorted(by_label.items(), key=lambda kv: (-kv[1], kv[0]))
    for (disp, label), count in ranked[: max(top_k, 5)]:
        suffix = ""
        if costs:
            spent = costs.get(_predicate_of_label(label))
            if spent:
                suffix = "  (cost: %.2fms, %d unify)" % (
                    spent.get("time", 0.0) * 1e3,
                    spent.get("unify.attempts", 0),
                )
        lines.append("  %4dx [%s] %s%s" % (count, disp, label, suffix))

    blockers = _blockers(dead, by_id)[:top_k]
    if blockers:
        lines.append("what the dead branches wait for:")
        for reason, count in blockers:
            lines.append("  blocked %4dx on: %s" % (count, reason))

    if costs:
        hot = sorted(
            costs.items(),
            key=lambda kv: (-kv[1].get("time", 0.0), kv[0]),
        )
        hot = [(p, c) for p, c in hot if p != "(unattributed)"][: max(top_k, 5)]
        if hot:
            lines.append("attributed cost by predicate (where the search spent):")
            for pred, spent in hot:
                lines.append(
                    "  %-20s %8.2fms %8d unify %8d expansions"
                    % (
                        pred,
                        spent.get("time", 0.0) * 1e3,
                        spent.get("unify.attempts", 0),
                        spent.get("steps.expansions", 0),
                    )
                )

    lines.append("deepest partial derivations:")
    deepest = sorted(dead, key=lambda n: -n.depth)[:top_k]
    for leaf in deepest:
        path = recorder.path_to(leaf.node_id)
        lines.append(
            "  depth %d [%s]: %s"
            % (leaf.depth, leaf.disposition, " -> ".join(n.label for n in path))
        )
    return "\n".join(lines)


def to_dot(recorder: ProvenanceRecorder, max_nodes: int = 400) -> str:
    """The derivation DAG in Graphviz DOT (truncated at *max_nodes*,
    keeping solution ancestry first)."""
    nodes = recorder.nodes
    if len(nodes) > max_nodes:
        keep = _ancestor_closure(nodes, recorder.solutions())
        for n in nodes:
            if len(keep) >= max_nodes:
                break
            keep.add(n.node_id)
        nodes = [n for n in nodes if n.node_id in keep]
    colors = {
        "solution": "palegreen",
        "root": "lightblue",
        "por-pruned": "orange",
        "frontier-subsumed": "gray80",
        "failed-unify": "mistyrose",
        "dead-config": "mistyrose",
    }
    lines = ["digraph provenance {", "  rankdir=TB;", "  node [shape=box];"]
    ids = {n.node_id for n in nodes}
    for n in nodes:
        label = _annotate(n).replace("\\", "\\\\").replace('"', '\\"')
        color = colors.get(n.disposition)
        style = ' style=filled fillcolor="%s"' % color if color else ""
        lines.append('  n%d [label="%s"%s];' % (n.node_id, label, style))
        if n.parent is not None and n.parent in ids:
            lines.append("  n%d -> n%d;" % (n.parent, n.node_id))
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Pruning audit
# ---------------------------------------------------------------------------


def _fp(section: Dict[str, object]) -> Tuple[Set[str], Set[str], Set[str]]:
    return (
        set(section.get("reads", ())),
        set(section.get("inserts", ())),
        set(section.get("deletes", ())),
    )


def _conflicts(frontier, future) -> bool:
    """Independent re-implementation of the reducer's commutation test
    (:func:`repro.core.por._conflicts`): read-vs-write in either
    direction, or insert-vs-delete of the same predicate."""
    fr, fi, fd = frontier
    tr, ti, td = future
    if fr & (ti | td):
        return True
    if tr & (fi | fd):
        return True
    if fi & td or fd & ti:
        return True
    return False


def check_ample_witness(witness: Optional[Dict[str, object]]) -> Optional[str]:
    """Re-verify one recorded ample-set decision.

    Returns ``None`` when the witness justifies the pruning, else a
    human-readable description of the violation.  The check mirrors the
    reducer's soundness argument: the ample branch's *frontier* must
    commute with the inherited competitors and with every deferred
    sibling's full *closure*, and must share no variables with them --
    unless the decision was *rescued* by the dynamic re-check, in which
    case the witness must show a bind-free frontier (``frontier_vars``
    empty: sharing is confined to parts behind the next step, so no
    binding can flow either way; see ``por.recheck_rescued``).
    """
    if not witness:
        return "pruned step carries no witness"
    # A witness that predates the re-check (no ``frontier_vars`` field)
    # must still satisfy the strict variable-disjointness condition.
    bind_free = "frontier_vars" in witness and not witness["frontier_vars"]
    shared = witness.get("competitor_shared_vars") or ()
    if shared and not bind_free:
        return (
            "ample shares variables with competitors (%s) and its "
            "frontier is not bind-free: %s"
            % (
                ", ".join(shared),
                ", ".join(witness.get("frontier_vars") or ()),
            )
        )
    frontier = _fp(witness.get("ample_frontier") or {})
    future = _fp(witness.get("competitors") or {})
    for entry in witness.get("pruned") or ():
        entry_shared = entry.get("shared_vars") or ()
        if entry_shared and not bind_free:
            return (
                "ample shares variables with deferred branch %s (%s) and "
                "its frontier is not bind-free"
                % (entry.get("branch"), ", ".join(entry_shared))
            )
        closure = _fp(entry.get("closure") or {})
        future = (
            future[0] | closure[0],
            future[1] | closure[1],
            future[2] | closure[2],
        )
    if _conflicts(frontier, future):
        return (
            "ample frontier %r conflicts with deferred closures %r"
            % (witness.get("ample_frontier"), witness.get("pruned"))
        )
    return None


@dataclass
class PorAudit:
    """Outcome of one pruning audit: witness re-checks plus the
    reduction-off replay oracle."""

    name: str
    pruned: int
    unexplained: List[str] = field(default_factory=list)
    solutions_reduced: Optional[int] = None
    solutions_full: Optional[int] = None

    @property
    def ok(self) -> bool:
        return not self.unexplained

    def render(self) -> str:
        lines = [
            "audit %s: %d ample decision(s), %s"
            % (self.name, self.pruned, "OK" if self.ok else "FAILED"),
        ]
        if self.solutions_reduced is not None:
            lines.append(
                "  solutions: %s reduced vs %s unreduced"
                % (self.solutions_reduced, self.solutions_full)
            )
        for problem in self.unexplained:
            lines.append("  UNEXPLAINED: %s" % problem)
        return "\n".join(lines)


def _witness_problems(recorder: ProvenanceRecorder) -> Tuple[int, List[str]]:
    pruned_nodes = [n for n in recorder.nodes if n.disposition == "por-pruned"]
    problems = []
    for node in pruned_nodes:
        problem = check_ample_witness(node.witness)
        if problem is not None:
            problems.append("node p%d (%s): %s" % (node.node_id, node.label, problem))
    return len(pruned_nodes), problems


def audit_por_goal(program, goal, db, *, max_configs: int = 200_000) -> PorAudit:
    """Audit one goal: record a reduced run, re-check every ample-set
    witness, and replay without reduction to compare solution sets."""
    from ..core.interpreter import Interpreter
    from ..core.parser import as_goal

    goal = as_goal(goal)
    reduced = Interpreter(program, max_configs=max_configs, por=True)
    with recording() as recorder:
        reduced_solutions = _normalized(reduced.solve(goal, db))
    full = Interpreter(program, max_configs=max_configs, por=False)
    full_solutions = _normalized(full.solve(goal, db))

    pruned, problems = _witness_problems(recorder)
    if reduced_solutions != full_solutions:
        problems.append(
            "solution sets differ: %d reduced vs %d unreduced"
            % (len(reduced_solutions), len(full_solutions))
        )
    return PorAudit(
        name=str(goal),
        pruned=pruned,
        unexplained=problems,
        solutions_reduced=len(reduced_solutions),
        solutions_full=len(full_solutions),
    )


def _normalized(solutions) -> List[tuple]:
    out = []
    for sol in solutions:
        out.append(
            (
                tuple(
                    sorted((str(v), str(t)) for v, t in sol.bindings.items())
                ),
                tuple(sorted(str(f) for f in sol.database)),
            )
        )
    return sorted(out)


def audit_profile_config(name: str) -> PorAudit:
    """Audit one committed profile workload (see
    :func:`repro.obs.analyze.profile_suite`).

    The workload runs twice -- once normally with a recorder attached,
    once with reduction globally forced off -- under fresh
    instrumentation each time.  The workloads' own internal assertions
    (expected solution counts) are the first oracle; the
    ``search.solutions`` counter equality across the two runs is the
    second; the witness re-check explains every individual prune.
    """
    from ..core.por import por_disabled

    from .analyze import suite_config

    config = suite_config(name)
    recorder = ProvenanceRecorder()
    inst_reduced = Instrumentation.create()
    with recording(recorder), instrumented(inst_reduced):
        config.run()
    inst_full = Instrumentation.create()
    with por_disabled(), instrumented(inst_full):
        config.run()

    reduced_solutions = inst_reduced.metrics.snapshot(include_timers=False)[
        "counters"
    ].get("search.solutions", 0)
    full_solutions = inst_full.metrics.snapshot(include_timers=False)[
        "counters"
    ].get("search.solutions", 0)
    pruned, problems = _witness_problems(recorder)
    if reduced_solutions != full_solutions:
        problems.append(
            "search.solutions drifted: %d reduced vs %d unreduced"
            % (reduced_solutions, full_solutions)
        )
    return PorAudit(
        name=name,
        pruned=pruned,
        unexplained=problems,
        solutions_reduced=reduced_solutions,
        solutions_full=full_solutions,
    )
