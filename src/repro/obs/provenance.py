"""Derivation provenance: a compact DAG of *why* a search did what it did.

The paper's central artifact is the executional deduction -- a proof
that a transaction goal succeeds is literally a schedule of database
updates.  The engines find those schedules but, until this module,
discarded the derivation behind them: a :class:`~repro.core.interpreter.
Solution` says *that* the goal committed, never which rule choices and
interleavings got there, and the PR-5 reducers (partial-order reduction,
frontier subsumption) silently drop most of the search tree on purpose.

A :class:`ProvenanceRecorder` captures that tree as it is explored.
Each :class:`ProvNode` records:

* ``parent`` -- the configuration (or call/rule) this one was derived
  from, making the node set a forest rooted at the goal;
* ``kind`` / ``label`` -- what was applied: a small-step redex
  (``step``), a big-step tabled ``call``, a ``rule`` choice, a derived
  ``answer`` or Datalog ``fact``; a nested search -- a table generation
  or an ``iso`` body -- hangs under the ``call`` or ``iso`` node that
  started it;
* ``bindings`` -- the unifier of the step, rendered to strings;
* ``inserted`` / ``deleted`` -- the db delta of the step (for ``iso``
  steps, the flattened subtrace updates);
* ``disposition`` -- what became of the branch.  ``expanded`` and
  ``solution`` mark the live tree; everything else explains a *pruned
  or dead* branch: ``por-pruned`` (with the ample-set witness),
  ``frontier-subsumed`` (with the subsuming key), ``failed-unify`` and
  ``dead-config`` (with a ``blocked_on`` witness naming what the
  frontier waits for), ``depth-limit``, ``backtracked``,
  ``budget-exhausted`` / ``deadline-exhausted``.  A nested search's
  final configuration is ``nested-final``, not ``solution``: only the
  goal's answers are solutions.

Recording is **off by default** and costs nothing when off: a recorder
is attached only through :func:`recording`, which fills the recorder
channel of the observer slot (:mod:`repro.obs.context`).  Engines never
call the recorder themselves: they emit events on the observer handle
they captured at entry, each behind one ``is None`` check, and the
events in :class:`repro.obs.context.Observers` decide which nodes to
record and in what shape (the zero-overhead test asserts
byte-identical counter snapshots).  When a recorder *is* attached it
reports ``prov.nodes`` / ``prov.dropped`` counters through the
instrumentation captured with it.

Serialization reuses the tracer's span model: :meth:`to_jsonl` emits
one span-shaped JSON object per node (``span_id`` ``p<n>``,
``parent_id``, ``name`` ``prov.<disposition>``, attrs carrying the
node fields, start/end encoding the depth), so a provenance log is
readable by :func:`repro.obs.tracer.read_jsonl` and reloadable by
:meth:`ProvenanceRecorder.from_jsonl` -- one format, two consumers.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import context as _context

__all__ = [
    "ProvNode",
    "ProvenanceRecorder",
    "active_recorder",
    "recording",
    "action_delta",
    "render_bindings",
    "config_digest",
    "DISPOSITIONS",
]

#: The disposition taxonomy (see module docstring; documented in
#: docs/OBSERVABILITY.md).  ``expanded`` nodes may later be *marked*
#: with a terminal disposition; ``root`` and ``solution`` are sticky.
DISPOSITIONS = (
    "root",
    "expanded",
    "solution",
    "failed-unify",
    "dead-config",
    "frontier-subsumed",
    "por-pruned",
    "budget-exhausted",
    "deadline-exhausted",
    "depth-limit",
    "backtracked",
    "table-hit",
    "nested-final",
)

@dataclass
class ProvNode:
    """One node of the derivation DAG.  ``depth`` is the tree depth
    (root = 0), derived from the parent at record time."""

    node_id: int
    parent: Optional[int]
    kind: str
    label: str
    disposition: str = "expanded"
    bindings: Dict[str, str] = field(default_factory=dict)
    inserted: Tuple[str, ...] = ()
    deleted: Tuple[str, ...] = ()
    witness: Dict[str, object] = field(default_factory=dict)
    depth: int = 0

    def as_span(self) -> Dict[str, object]:
        """The node in the tracer's serialized-span shape.

        ``start``/``end`` encode the tree depth (provenance has no
        wall-clock), and complex attrs are JSON-encoded strings so the
        dict round-trips through ``read_jsonl`` untouched.
        """
        attrs: Dict[str, object] = {
            "kind": self.kind,
            "label": self.label,
            "disposition": self.disposition,
            "depth": self.depth,
        }
        if self.bindings:
            attrs["bindings"] = json.dumps(self.bindings, sort_keys=True)
        if self.inserted:
            attrs["inserted"] = json.dumps(list(self.inserted))
        if self.deleted:
            attrs["deleted"] = json.dumps(list(self.deleted))
        if self.witness:
            attrs["witness"] = json.dumps(self.witness, sort_keys=True)
        start = float(self.depth)
        return {
            "span_id": "p%d" % self.node_id,
            "parent_id": "p%d" % self.parent if self.parent is not None else None,
            "name": "prov.%s" % self.disposition,
            "attrs": attrs,
            "start": start,
            "end": start + 1.0,
            "duration": 1.0,
        }

    @classmethod
    def from_span(cls, record: Dict[str, object]) -> "ProvNode":
        """Rebuild a node from a serialized span dict (``as_span`` inverse)."""
        attrs = dict(record.get("attrs") or {})
        span_id = str(record["span_id"])
        parent_id = record.get("parent_id")
        return cls(
            node_id=int(span_id[1:]),
            parent=int(str(parent_id)[1:]) if parent_id else None,
            kind=str(attrs.get("kind", "")),
            label=str(attrs.get("label", "")),
            disposition=str(attrs.get("disposition", "expanded")),
            bindings=dict(json.loads(str(attrs["bindings"])))
            if "bindings" in attrs
            else {},
            inserted=tuple(json.loads(str(attrs["inserted"])))
            if "inserted" in attrs
            else (),
            deleted=tuple(json.loads(str(attrs["deleted"])))
            if "deleted" in attrs
            else (),
            witness=dict(json.loads(str(attrs["witness"])))
            if "witness" in attrs
            else {},
            depth=int(attrs.get("depth", 0)),
        )


class ProvenanceRecorder:
    """Accumulates :class:`ProvNode` entries during a search.

    ``max_nodes`` caps memory: past the cap, :meth:`record` counts the
    node as dropped (``prov.dropped``) and returns ``None``, which
    every recording site tolerates.  Every node names its parent
    explicitly; the engines thread the node ids they need.
    """

    def __init__(self, max_nodes: int = 200_000):
        self.max_nodes = max_nodes
        self.nodes: List[ProvNode] = []
        self.dropped = 0

    # -- recording ------------------------------------------------------------

    def record(
        self,
        kind: str,
        label: str,
        parent: Optional[int] = None,
        disposition: str = "expanded",
        bindings: Optional[Dict[str, str]] = None,
        inserted: Sequence[str] = (),
        deleted: Sequence[str] = (),
        witness: Optional[Dict[str, object]] = None,
    ) -> Optional[int]:
        """Add a node; returns its id, or ``None`` if the cap dropped it."""
        obs = _context.active()
        if len(self.nodes) >= self.max_nodes:
            self.dropped += 1
            if obs.enabled:
                obs.metrics.inc("prov.dropped")
            return None
        depth = 0 if parent is None else self.nodes[parent].depth + 1
        node = ProvNode(
            node_id=len(self.nodes),
            parent=parent,
            kind=kind,
            label=label,
            disposition=disposition,
            bindings=dict(bindings) if bindings else {},
            inserted=tuple(inserted),
            deleted=tuple(deleted),
            witness=dict(witness) if witness else {},
            depth=depth,
        )
        self.nodes.append(node)
        if obs.enabled:
            obs.metrics.inc("prov.nodes")
        return node.node_id

    def record_step(
        self,
        step,
        parent: Optional[int],
        disposition: str = "expanded",
        witness: Optional[Dict[str, object]] = None,
    ) -> Optional[int]:
        """Record a small-step engine transition (a ``Step``)."""
        inserted, deleted = action_delta(step.action)
        return self.record(
            "step",
            str(step.action),
            parent=parent,
            disposition=disposition,
            bindings=render_bindings(step.subst),
            inserted=inserted,
            deleted=deleted,
            witness=witness,
        )

    def mark(
        self,
        node_id: Optional[int],
        disposition: str,
        witness: Optional[Dict[str, object]] = None,
    ) -> None:
        """Upgrade a node's disposition after the fact (e.g. a queued
        configuration later popped as final becomes ``solution``).
        Tolerates ``None`` (a dropped node) and never downgrades a
        ``solution``."""
        if node_id is None:
            return
        node = self.nodes[node_id]
        if node.disposition == "solution" and disposition != "solution":
            return
        node.disposition = disposition
        if witness:
            node.witness.update(witness)

    # -- queries --------------------------------------------------------------

    def solutions(self) -> List[ProvNode]:
        return [n for n in self.nodes if n.disposition == "solution"]

    def by_disposition(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for node in self.nodes:
            out[node.disposition] = out.get(node.disposition, 0) + 1
        return out

    def path_to(self, node_id: int) -> List[ProvNode]:
        """Root-to-node chain of one derivation."""
        chain: List[ProvNode] = []
        current: Optional[int] = node_id
        while current is not None:
            node = self.nodes[current]
            chain.append(node)
            current = node.parent
        chain.reverse()
        return chain

    # -- serialization --------------------------------------------------------

    def nodes_to_spans(self) -> List[Dict[str, object]]:
        """Every node in the serialized-span shape."""
        return [node.as_span() for node in self.nodes]

    def to_jsonl(self) -> str:
        """JSON lines in the tracer's span format (see module docstring)."""
        return "\n".join(
            json.dumps(span, sort_keys=True) for span in self.nodes_to_spans()
        )

    def write_jsonl(self, path: str) -> None:
        text = self.to_jsonl()
        with open(path, "w") as handle:
            handle.write(text + ("\n" if text else ""))

    @classmethod
    def from_jsonl(cls, text: str) -> "ProvenanceRecorder":
        """Reload a serialized provenance log (``to_jsonl`` inverse)."""
        recorder = cls()
        for line in text.splitlines():
            if not line.strip():
                continue
            recorder.nodes.append(ProvNode.from_span(json.loads(line)))
        recorder.nodes.sort(key=lambda n: n.node_id)
        return recorder


# -- ambient activation --------------------------------------------------------
#
# The recorder is one channel of the observer slot in repro.obs.context:
# engines capture it at entry with the instrumentation and attributor.


def active_recorder() -> Optional[ProvenanceRecorder]:
    """The ambient recorder, or ``None`` (recording off)."""
    observers = _context._ACTIVE
    return observers.recorder if observers is not None else None


@contextmanager
def recording(
    recorder: Optional[ProvenanceRecorder] = None,
) -> Iterator[ProvenanceRecorder]:
    """Activate *recorder* (a fresh one if none) for a block; nests."""
    rec = recorder if recorder is not None else ProvenanceRecorder()
    with _context.filled("recorder", rec):
        yield rec


# -- helpers -------------------------------------------------------------------


def action_delta(action) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """The (inserted, deleted) tuples of one trace action.

    ``iso`` actions flatten their subtrace: the isolated sub-execution
    is one atomic step, so its net updates belong to the step.  The same
    goes for ``table`` actions, whose subtrace is the cached big-step
    execution of a tabled call.
    """
    kind = action.kind
    if kind == "ins":
        return (str(action.atom),), ()
    if kind == "del":
        return (), (str(action.atom),)
    if kind not in ("iso", "table"):
        return (), ()
    inserted: List[str] = []
    deleted: List[str] = []
    stack = list(action.subtrace)
    while stack:
        sub = stack.pop(0)
        if sub.kind == "ins":
            inserted.append(str(sub.atom))
        elif sub.kind == "del":
            deleted.append(str(sub.atom))
        elif sub.kind in ("iso", "table"):
            stack[0:0] = list(sub.subtrace)
    return tuple(inserted), tuple(deleted)


def render_bindings(subst, limit: int = 8) -> Dict[str, str]:
    """A step's unifier as a small string map (capped for log size)."""
    if not subst:
        return {}
    out: Dict[str, str] = {}
    items = sorted(subst.items(), key=lambda kv: str(kv[0]))
    for i, (v, t) in enumerate(items):
        if i >= limit:
            out["..."] = "+%d more" % (len(items) - limit)
            break
        out[str(v)] = str(t)
    return out


def config_digest(proc, db) -> str:
    """A short stable digest of a configuration, for correlating
    subsumption witnesses across runs.  Never uses Python ``hash()``
    (randomized per process); the digest is over rendered strings."""
    h = hashlib.sha1()
    h.update(str(proc).encode())
    for fact in sorted(str(f) for f in db):
        h.update(b"|")
        h.update(fact.encode())
    return h.hexdigest()[:12]
