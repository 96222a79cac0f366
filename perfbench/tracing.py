"""Benchmark-side tracing: spans around calls into the program's layers.

An untraced run uses :class:`DirectCalls`, whose ``call`` is a plain
function call.  A traced run uses :class:`SpanRecorder`, which makes the
same calls inside a span (name, start, end, parent, op id), passes a
delegating :class:`TracedStore` as ``store=``, sets a delegating wrapper
on the simulator's public ``interpreter.simulate`` attribute, and turns
on ``repro.obs.instrumented()`` with a fresh bundle per op so the
program's own counters, gauges and histograms are recorded per op.
Nothing inside the program is changed.

A span's self time is its duration minus the durations of its children;
each span charges its self time to the per-layer metric it names, so
the layer times of one op add up to the covered part of its latency.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import statistics
import time
from contextlib import contextmanager, nullcontext
from typing import Dict, List, Optional

from repro.obs.context import Instrumentation, instrumented

__all__ = [
    "DirectCalls", "SpanRecorder", "TracedStore", "describe_per_layer",
]

#: Per-op metrics, reported per op class as ``<class>.<metric>``: span
#: self times (``*.ms``/``*_ms``) and the program's ``repro.obs``
#: counters and gauges.  ``SpanRecorder.per_layer`` adds the ``*_ratio``
#: metrics, the WAL fsync histogram and the benchmark-side state
#: measures ``db.facts`` and ``db.updates``.
SPAN_METRICS = (
    "parser.ms", "route.ms", "seqeval.ms", "bfs.ms", "simulate.ms", "dfs.ms",
    "nonrec.ms", "monitor.ms", "datalog.ms",
    "store.savepoint_ms", "store.release_ms", "store.rollback_ms",
    "store.insert_ms", "store.delete_ms", "store.database_ms",
)
COUNTERS = (
    "search.configs_expanded", "frontier.subsumed", "search.steps",
    "iso.searches", "unify.attempts",
    "table.hits", "table.misses", "table.subsumed", "table.delta_bytes",
    "table.recomputes",
    "por.ample_configs", "por.steps_pruned", "por.recheck_rescued",
    "join.reorders",
    "store.wal_appends", "store.wal_batched", "store.snapshots", "store.busy_retries",
)
GAUGES = ("search.frontier_peak", "search.depth_peak", "table.keys")
OP_CLASSES = ("op", "read")
#: Set-up metrics, reported as ``setup.<metric>``: the median over the
#: run's set-ups of each set-up's span self times and WAL rows replayed.
SETUP_METRICS = ("compile.ms", "parser.ms", "route.ms", "store.open_ms", "store.wal_replayed")
TRACE_METRICS = ("trace.coverage_pct", "trace.overhead_pct")


#: The predictions, written down before measuring: for each metric, its
#: layer (module), the end-to-end metric it should move, and on which
#: workloads.  The loop is closed and single-threaded, so a layer's
#: self-time share of a traced run bounds what a change to it can save.
_LAB, _GRAPH, _LEDGER = "lab_simulate", "graph_query", "ledger_commit"
_PREDICTION_TABLE = (
    ("core.parser", ("parser.ms",), "read_ms_p50", (_GRAPH, _LEDGER)),
    ("core.analysis+core.engine", ("route.ms",), "read_ms_p50", (_GRAPH,)),
    ("core.seqeval", ("seqeval.ms", "table.recomputes"), "read_ms_p50,read_ms_p90", (_GRAPH,)),
    ("core.seqeval+core.nonrec", ("table.keys",), "read_ms_p50", (_GRAPH, _LEDGER)),
    ("core.interpreter (BFS)",
     ("bfs.ms", "search.configs_expanded", "search.frontier_peak", "frontier.subsumed",
      "frontier.subsume_ratio"), "op_ms_p50,op_ms_p90", (_GRAPH,)),
    ("core.tabling",
     ("table.hits", "table.misses", "table.subsumed", "table.delta_bytes", "table.hit_ratio"),
     "op_ms_p50", (_GRAPH,)),
    ("core.interpreter (DFS)+workflow.scheduler",
     ("simulate.ms", "dfs.ms", "search.depth_peak", "iso.searches"),
     "op_ms_p50,ops_per_s", (_LAB,)),
    ("core.transitions+core.unify+core.formulas", ("unify.attempts", "search.steps"),
     "op_ms_p50", (_LAB, _GRAPH)),
    ("core.por",
     ("por.ample_configs", "por.steps_pruned", "por.recheck_rescued", "por.prune_ratio"),
     "op_ms_p50", (_LAB,)),
    ("core.nonrec", ("nonrec.ms",), "read_ms_p50", (_LEDGER,)),
    ("core.database", ("db.facts", "db.updates"), "op_ms_p50", (_LEDGER,)),
    ("store.sqlite",
     ("store.savepoint_ms", "store.release_ms", "store.rollback_ms", "store.insert_ms",
      "store.delete_ms", "store.wal_fsync_ms", "store.wal_fsyncs", "store.wal_appends",
      "store.wal_batched", "store.busy_retries"), "op_ms_p50", (_LEDGER,)),
    ("store.sqlite (checkpoint folds)", ("store.snapshots",), "ops_per_s", (_LEDGER,)),
    ("store.sqlite", ("store.database_ms",), "read_ms_p50", (_LEDGER,)),
    ("store.sqlite (open + recovery)", ("setup.store.open_ms", "setup.store.wal_replayed"),
     "setup_s", (_LEDGER,)),
    ("workflow.compiler", ("setup.compile.ms",), "setup_s", (_LAB,)),
    ("core.parser", ("setup.parser.ms",), "setup_s", (_GRAPH, _LEDGER)),
    ("core.analysis+core.engine", ("setup.route.ms",), "setup_s", (_LEDGER,)),
    ("datalog+workflow.monitor", ("datalog.ms", "monitor.ms", "join.reorders"),
     "read_ms_p50", (_LAB,)),
    ("obs", TRACE_METRICS, "none (end-to-end runs are untraced)", (_LAB, _GRAPH, _LEDGER)),
)
PREDICTIONS = {
    metric: {"layer": layer, "moves": moves, "on": list(on)}
    for layer, metrics, moves, on in _PREDICTION_TABLE
    for metric in metrics
}


def _base(name: str) -> str:
    return name.split(".", 1)[1] if name.split(".", 1)[0] in OP_CLASSES else name


def describe_per_layer(values: Dict[str, float], spec: Dict[str, dict]) -> Dict[str, dict]:
    """Each per-layer value with its unit and direction (from *spec*, the
    ``per_layer`` entries of ``BENCHMARK.json`` by name) and its prediction."""
    return {
        name: dict(value=value, unit=spec[name]["unit"], better=spec[name]["better"],
                   **PREDICTIONS[_base(name)])
        for name, value in values.items()
    }


class DirectCalls:
    """The untraced run: every call goes straight to the program."""

    def __init__(self):
        #: op id -> speed factor the worker scales that op's times by.
        self.factors: Dict[str, float] = {}

    def call(self, name, metric, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def store(self, store):
        return store

    def wrap_interpreter(self, sim) -> None:
        pass

    def operation(self, op_id: str, op_class: str):
        return nullcontext()

    def note_state(self, op_id: str, workload, kind: str, out) -> None:
        pass


class SpanRecorder(DirectCalls):
    """The traced run: spans in memory, written out when the run ends."""

    def __init__(self):
        super().__init__()
        self._ids = itertools.count(1)
        self._stack: List[list] = []  # [span id, seconds covered by children]
        self.op_id: Optional[str] = None
        #: (id, parent, name, metric, op id, start, end, self seconds)
        self.spans: List[tuple] = []
        #: op id -> {"class", counters, gauges, histograms}
        self.ops: Dict[str, dict] = {}

    def call(self, name, metric, fn, *args, **kwargs):
        frame = [next(self._ids), 0.0]
        parent = self._stack[-1][0] if self._stack else None
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if self._stack:
                self._stack[-1][1] += end - start
            self.spans.append(
                (frame[0], parent, name, metric, self.op_id, start, end, end - start - frame[1])
            )

    def store(self, store):
        return TracedStore(store, self)

    def wrap_interpreter(self, sim) -> None:
        inner = sim.interpreter.simulate
        sim.interpreter.simulate = lambda *a, **k: self.call(
            "interpreter.simulate", "dfs.ms", inner, *a, **k
        )

    @contextmanager
    def operation(self, op_id: str, op_class: str):
        """Attribute spans to *op_id* and record the program's metrics
        for this op alone."""
        inst = Instrumentation.create()
        self.op_id = op_id
        start = time.perf_counter()
        try:
            with instrumented(inst):
                yield
        finally:
            seconds = time.perf_counter() - start
            self.op_id = None
            m = inst.metrics
            self.ops[op_id] = {
                "class": op_class,
                "seconds": seconds,
                "counters": dict(m.counters),
                "gauges": dict(m.gauges),
                "hist": {k: (h.count, h.total) for k, h in m.histograms.items()},
            }

    def note_state(self, op_id: str, workload, kind: str, out) -> None:
        """Record the size of the state the call saw and its updates."""
        facts, updates = workload.state(kind, out)
        self.ops[op_id]["counters"]["db.facts"] = facts
        self.ops[op_id]["counters"]["db.updates"] = updates

    # -- results --------------------------------------------------------------

    def work_digest(self) -> str:
        """Digest of every op's deterministic work: counters and gauges,
        plus histogram sample counts (their totals are times)."""
        rows = [
            (op_id, rec["class"], sorted(rec["counters"].items()),
             sorted(rec["gauges"].items()),
             sorted((k, count) for k, (count, _total) in rec["hist"].items()))
            for op_id, rec in sorted(self.ops.items())
        ]
        return hashlib.sha256(json.dumps(rows).encode()).hexdigest()

    def per_layer(self, timed_ops: List[str]) -> Dict[str, float]:
        """Per-op layer metrics by op class, set-up medians, coverage.
        Span times are scaled by their op's speed factor, like the
        end-to-end timings."""
        timed = set(timed_ops)
        out: Dict[str, float] = {}
        by_class = {c: [o for o in timed_ops if self.ops[o]["class"] == c] for c in OP_CLASSES}
        self_s: Dict[tuple, float] = {}
        covered = 0.0
        for _sid, parent, _name, metric, op_id, start, end, own in self.spans:
            if op_id in timed:
                key = (self.ops[op_id]["class"], metric)
                self_s[key] = self_s.get(key, 0.0) + own * self.factors.get(op_id, 1.0)
                if parent is None:
                    covered += end - start
        for c, ops in by_class.items():
            n = max(1, len(ops))
            total: Dict[str, float] = {}
            for o in ops:
                rec = self.ops[o]
                for k, v in rec["counters"].items():
                    total[k] = total.get(k, 0) + v
                for k, v in rec["gauges"].items():
                    total[k] = total.get(k, 0) + v
                for k, (count, ms) in rec["hist"].items():
                    total[k + ".count"] = total.get(k + ".count", 0) + count
                    total[k + ".total"] = total.get(k + ".total", 0.0) + ms
            for m in SPAN_METRICS:
                out["%s.%s" % (c, m)] = self_s.get((c, m), 0.0) * 1000.0 / n
            for m in COUNTERS + GAUGES + ("db.facts", "db.updates"):
                out["%s.%s" % (c, m)] = total.get(m, 0) / n
            out["%s.store.wal_fsync_ms" % c] = total.get("store.wal_fsync_ms.total", 0.0) / n
            out["%s.store.wal_fsyncs" % c] = total.get("store.wal_fsync_ms.count", 0) / n
            out["%s.frontier.subsume_ratio" % c] = _ratio(
                total.get("frontier.subsumed", 0), total.get("search.configs_expanded", 0))
            out["%s.table.hit_ratio" % c] = _ratio(
                total.get("table.hits", 0), total.get("table.misses", 0))
            out["%s.por.prune_ratio" % c] = _ratio(
                total.get("por.steps_pruned", 0), total.get("search.steps", 0))
        out.update(self._setup_metrics())
        timed_seconds = sum(self.ops[o]["seconds"] for o in timed_ops)
        out["trace.coverage_pct"] = 100.0 * covered / timed_seconds if timed_seconds else 0.0
        return out

    def _setup_metrics(self) -> Dict[str, float]:
        reps = {o: {} for o, rec in self.ops.items() if rec["class"] == "setup"}
        for _sid, _parent, _name, metric, op_id, _start, _end, own in self.spans:
            if op_id in reps:
                scaled_ms = own * 1000.0 * self.factors.get(op_id, 1.0)
                reps[op_id][metric] = reps[op_id].get(metric, 0.0) + scaled_ms
        for op_id, rep in reps.items():
            rep["store.wal_replayed"] = self.ops[op_id]["counters"].get("store.wal_replayed", 0)
        return {
            "setup." + m: statistics.median(r.get(m, 0.0) for r in reps.values()) if reps else 0.0
            for m in SETUP_METRICS
        }

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for sid, parent, name, metric, op_id, start, end, own in self.spans:
                fh.write(json.dumps({
                    "id": sid, "parent": parent, "name": name, "layer": metric,
                    "op": op_id, "start": start, "end": end, "self": own,
                }) + "\n")


def _ratio(part: float, rest: float) -> float:
    """``part / (part + rest)``: the share of attempts a mechanism saved."""
    return part / (part + rest) if part + rest else 0.0


class TracedStore:
    """Delegating ``Store`` wrapper passed as ``store=``: the engines
    duck-type the store, so each protocol call they make is timed as a
    ``store.*`` span and forwarded unchanged."""

    def __init__(self, inner, recorder: SpanRecorder):
        self._inner = inner
        self._call = recorder.call

    def database(self):
        return self._call("store.database", "store.database_ms", self._inner.database)

    def savepoint(self):
        return self._call("store.savepoint", "store.savepoint_ms", self._inner.savepoint)

    def release(self, sp):
        return self._call("store.release", "store.release_ms", self._inner.release, sp)

    def rollback(self, sp):
        return self._call("store.rollback", "store.rollback_ms", self._inner.rollback, sp)

    def insert(self, fact):
        return self._call("store.insert", "store.insert_ms", self._inner.insert, fact)

    def delete(self, fact):
        return self._call("store.delete", "store.delete_ms", self._inner.delete, fact)

    def __getattr__(self, name):
        return getattr(self._inner, name)
