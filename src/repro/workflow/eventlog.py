"""Structured event logs from workflow executions.

Workflow-management systems live off their event logs (the paper:
"monitoring, tracking and querying the status of workflow activities").
This module turns a simulation's raw action trace into a structured,
serializable log: one record per task start/completion and per
synchronization fact, in execution order -- the shape process-mining
tools expect.
"""

from __future__ import annotations

import json
import re
from dataclasses import asdict, dataclass, replace
from typing import List, Optional

from .scheduler import SimulationResult

__all__ = ["EventRecord", "event_log", "to_json", "timeline"]

#: Bookkeeping predicates of the recovery combinators
#: (:mod:`repro.faults.recovery`): attempt tokens are search machinery,
#: not workflow events, so consuming one is not logged.
_RECOVERY_TOKEN = re.compile(r"(retry|fallback|comp)_\d+_tok$")


@dataclass(frozen=True)
class EventRecord:
    """One structured workflow event.

    ``kind`` is ``task_started`` / ``task_done`` / ``task_aborted`` /
    ``item_dispatched`` / ``fact_emitted`` / ``fact_consumed``.
    ``agent`` is set only for ``task_done`` (the history records the
    performer at completion); a ``task_aborted`` record closes its
    ``task_started`` without one -- the attempt failed before any agent
    performed it.
    ``span_id``, when present, is the engine-trace span the simulation
    ran under (see :mod:`repro.obs`), so process-mining output can be
    joined against profiling traces.
    """

    seq: int
    kind: str
    item: str
    task: Optional[str] = None
    agent: Optional[str] = None
    fact: Optional[str] = None
    span_id: Optional[str] = None


def _parse_args(event: str) -> List[str]:
    """Top-level argument strings of a rendered fact.

    Splits only at depth-0 commas, so compound-term arguments survive
    (``review(claim(c1, high), p1)`` → ``["claim(c1, high)", "p1"]``),
    and a zero-argument fact (``tick()`` or bare ``tick``) yields ``[]``.
    """
    start = event.find("(")
    if start < 0:
        return []
    inner = event[start + 1 : event.rfind(")")]
    if not inner.strip():
        return []
    args: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in inner:
        if ch == "," and depth == 0:
            args.append("".join(current).strip())
            current = []
            continue
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        current.append(ch)
    args.append("".join(current).strip())
    return args


def event_log(
    result: SimulationResult, span_id: Optional[str] = None
) -> List[EventRecord]:
    """The structured event log of one simulation run.

    ``span_id`` overrides the correlation id stamped on every record;
    by default it is taken from the result itself (set when the
    simulation ran under instrumentation, ``None`` otherwise).
    """
    if span_id is None:
        span_id = getattr(result, "span_id", None)
    records: List[EventRecord] = []
    seq = 0
    for event in result.events:
        record: Optional[EventRecord] = None
        if event.startswith("ins.started("):
            task, item = _parse_args(event)[:2]
            record = EventRecord(seq, "task_started", item, task=task)
        elif event.startswith("ins.done("):
            task, item, agent = _parse_args(event)[:3]
            record = EventRecord(seq, "task_done", item, task=task, agent=agent)
        elif event.startswith("ins.aborted("):
            task, item = _parse_args(event)[:2]
            record = EventRecord(seq, "task_aborted", item, task=task)
        elif event.startswith("del.workitem("):
            (item,) = _parse_args(event)[:1]
            record = EventRecord(seq, "item_dispatched", item)
        elif event.startswith("ins.") and "(" in event:
            pred = event[len("ins."):event.index("(")]
            if pred not in ("started", "done", "available", "workitem"):
                args = _parse_args(event)
                record = EventRecord(
                    seq, "fact_emitted", args[-1] if args else "",
                    fact=event[len("ins."):],
                )
        elif event.startswith("del.") and "(" in event:
            pred = event[len("del."):event.index("(")]
            if pred not in ("available", "workitem", "pending") and not _RECOVERY_TOKEN.match(pred):
                args = _parse_args(event)
                record = EventRecord(
                    seq, "fact_consumed", args[-1] if args else "",
                    fact=event[len("del."):],
                )
        if record is not None:
            if span_id is not None:
                record = replace(record, span_id=span_id)
            records.append(record)
            seq += 1
    return records


def to_json(result: SimulationResult, indent: int = 2) -> str:
    """The event log as JSON (for process-mining / dashboard export).

    ``span_id`` appears only when set (instrumented runs), so the
    uninstrumented output shape is exactly what it was before tracing
    existed.
    """
    payload = []
    for record in event_log(result):
        fields = asdict(record)
        if fields.get("span_id") is None:
            del fields["span_id"]
        payload.append(fields)
    return json.dumps(payload, indent=indent)


def timeline(result: SimulationResult) -> str:
    """A human-readable per-item timeline."""
    records = event_log(result)
    by_item: dict = {}
    for record in records:
        by_item.setdefault(record.item, []).append(record)
    lines = []
    for item in sorted(by_item):
        lines.append(item + ":")
        for record in by_item[item]:
            if record.kind == "task_done":
                lines.append(
                    "  [%3d] %-14s %s (by %s)"
                    % (record.seq, record.kind, record.task, record.agent)
                )
            elif record.kind in ("task_started", "task_aborted"):
                lines.append(
                    "  [%3d] %-14s %s" % (record.seq, record.kind, record.task)
                )
            else:
                lines.append(
                    "  [%3d] %-14s %s"
                    % (record.seq, record.kind, record.fact or "")
                )
    return "\n".join(lines)
