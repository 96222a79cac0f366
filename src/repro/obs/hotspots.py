"""Per-rule cost attribution: where did the work go?

The metrics registry (:mod:`repro.obs.metrics`) answers *how much* work
an execution did -- ``unify.attempts``, ``search.steps``, ``por.steps_pruned``
-- but not *where* it went.  This module adds the missing dimension: a
:class:`CostAttributor` maintains an explicit stack of attribution
frames, each optionally naming a ``rule``, ``predicate``, and ``phase``
(missing fields inherit from enclosing frames), and every charge --
wall time, unify attempts, step expansions, database delta sizes,
POR pruning credits -- lands on both

* the *effective key* ``(rule, predicate, phase)`` in force at the
  charge site (drives the ranked hotspot table), and
* the full *frame path* (drives the folded-stack / speedscope exports),

so the flame view and the table are two projections of one stream and
their totals agree by construction.

Discipline (same as :mod:`repro.obs.provenance`): attribution is **off
by default**; every engine hot loop pays exactly one ``is not None``
check when it is off, and the engine counters are byte-identical either
way.  Engines read only the ambient attributor that :func:`attributing`
installs; there is no per-engine argument.

Wall-time accounting is settle-based: the attributor keeps one global
mark (`perf_counter` timestamp of the last attribution event) and every
push/pop/:meth:`settle_into` charges the elapsed interval to exactly one
context, so intervals partition the profiled wall clock and no time is
double counted even across nested engines and suspended generators.
Frames are popped by *token* (removed wherever they sit in the stack),
so non-LIFO teardown of abandoned generators cannot corrupt the stack.

This module deliberately imports nothing from :mod:`repro.core` --
``repro.core.unify`` reads the ambient slot at module level, so the
dependency must point one way only.
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "CostAttributor",
    "active_attributor",
    "attributing",
    "engine_frame",
    "meter_engine",
    "rule_label",
    "UNATTRIBUTED",
]

#: Placeholder for a key field no enclosing frame supplies.
UNATTRIBUTED = "(unattributed)"

#: Cost kinds every attributor tracks (time is in seconds).
COST_KINDS = (
    "time",
    "unify.attempts",
    "steps.expansions",
    "db.delta",
    "por.pruned_credit",
)

_SENTINEL = object()


class _Frame:
    __slots__ = ("token", "rule", "predicate", "phase", "key", "path")

    def __init__(self, token, rule, predicate, phase, key, path):
        self.token = token
        self.rule = rule
        self.predicate = predicate
        self.phase = phase
        self.key = key          # effective (rule, predicate, phase)
        self.path = path        # tuple of (kind, label) pairs, root first


def _new_costs() -> Dict[str, float]:
    return {}


def _charge_into(bucket: Dict[str, float], kind: str, amount: float) -> None:
    bucket[kind] = bucket.get(kind, 0.0) + amount


def _sanitize(label: str) -> str:
    # Folded-stack frames are ";"-separated; speedscope is safe either
    # way but one sanitizer keeps the two exports in agreement.
    return label.replace(";", ",").replace("\n", " ")


class CostAttributor:
    """Explicit-stack cost profiler (see module docstring).

    ``clock`` is injectable for deterministic tests; it must be a
    monotonically non-decreasing zero-argument callable.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._stack: List[_Frame] = []
        self._next_token = 0
        self._mark: Optional[float] = None
        # (rule, predicate, phase) -> {kind: amount}
        self.by_key: Dict[Tuple[str, str, str], Dict[str, float]] = {}
        # frame path (tuple of (frame-kind, label)) -> {kind: amount}
        self.by_path: Dict[Tuple[Tuple[str, str], ...], Dict[str, float]] = {}

    # -- stack ------------------------------------------------------------------

    def _top(self) -> Optional[_Frame]:
        return self._stack[-1] if self._stack else None

    def push(
        self,
        rule: Optional[str] = None,
        predicate: Optional[str] = None,
        phase: Optional[str] = None,
        label: Optional[str] = None,
    ) -> int:
        """Push an attribution frame; returns a token for :meth:`pop`.

        Missing key fields inherit from the enclosing frame.  ``label``
        overrides the frame's display name in path exports (defaults to
        the most specific field supplied).
        """
        self._settle(None)
        top = self._top()
        eff_rule = rule if rule is not None else (top.rule if top else None)
        eff_pred = predicate if predicate is not None else (
            top.predicate if top else None
        )
        eff_phase = phase if phase is not None else (top.phase if top else None)
        key = (
            eff_rule if eff_rule is not None else UNATTRIBUTED,
            eff_pred if eff_pred is not None else UNATTRIBUTED,
            eff_phase if eff_phase is not None else UNATTRIBUTED,
        )
        if rule is not None:
            fkind, flabel = "rule", rule
        elif predicate is not None:
            fkind, flabel = "pred", predicate
        elif phase is not None:
            fkind, flabel = "phase", phase
        else:
            fkind, flabel = "frame", label or "(frame)"
        if label is not None:
            flabel = label
        parent_path = top.path if top else ()
        path = parent_path + ((fkind, _sanitize(flabel)),)
        token = self._next_token
        self._next_token += 1
        self._stack.append(
            _Frame(token, eff_rule, eff_pred, eff_phase, key, path)
        )
        return token

    def pop(self, token: int) -> None:
        """Remove the frame identified by *token*, wherever it sits.

        Tolerating non-LIFO pops keeps abandoned generators (isolation
        runners, deferred DFS expansions) from corrupting attribution
        for their surviving siblings.
        """
        self._settle(None)
        for i in range(len(self._stack) - 1, -1, -1):
            if self._stack[i].token == token:
                del self._stack[i]
                return

    @contextmanager
    def frame(self, rule=None, predicate=None, phase=None, label=None):
        token = self.push(rule=rule, predicate=predicate, phase=phase, label=label)
        try:
            yield
        finally:
            self.pop(token)

    # -- charging ---------------------------------------------------------------

    def _context(self, predicate: Optional[str]):
        """Resolve the (key, path) a charge should land on."""
        top = self._top()
        if top is None:
            base_key = (UNATTRIBUTED, UNATTRIBUTED, UNATTRIBUTED)
            base_path: Tuple[Tuple[str, str], ...] = ()
        else:
            base_key, base_path = top.key, top.path
        if predicate is None:
            return base_key, base_path
        key = (base_key[0], predicate, base_key[2])
        path = base_path + (("pred", _sanitize(predicate)),)
        return key, path

    def _settle(self, predicate: Optional[str]) -> None:
        now = self._clock()
        if self._mark is not None:
            dt = now - self._mark
            if dt > 0:
                key, path = self._context(predicate)
                _charge_into(self.by_key.setdefault(key, _new_costs()), "time", dt)
                _charge_into(self.by_path.setdefault(path, _new_costs()), "time", dt)
        self._mark = now

    def mark(self) -> None:
        """Settle elapsed wall time into the current frame context."""
        self._settle(None)

    def settle_into(self, predicate: str) -> None:
        """Settle elapsed wall time into the current context refined by
        *predicate* (used by step metering: time to *produce* a step is
        charged to the predicate the step turned out to act on)."""
        self._settle(predicate)

    def charge(self, kind: str, amount: float = 1, predicate: Optional[str] = None):
        """Charge *amount* of counter-kind cost to the current context,
        optionally refined by a site-supplied *predicate* leaf."""
        key, path = self._context(predicate)
        _charge_into(self.by_key.setdefault(key, _new_costs()), kind, float(amount))
        _charge_into(self.by_path.setdefault(path, _new_costs()), kind, float(amount))

    # -- engine helpers ---------------------------------------------------------

    def meter_steps(self, steps) -> Iterator:
        """Wrap a small-step ``Step`` iterator with per-step attribution.

        Time to produce each step -- and the consumer's processing time
        until it pulls the next one -- is charged to the predicate of
        the step's action; one ``steps.expansions`` is charged per step,
        plus the action's database delta size.  Sentinel-based ``next``
        keeps the wrapper exception-transparent for ``StopIteration``.
        """
        self.mark()
        pred = None
        while True:
            step = next(steps, _SENTINEL)
            if step is _SENTINEL:
                self.mark()
                return
            pred = _action_predicate(step.action)
            self.settle_into(pred)
            self.charge("steps.expansions", 1, predicate=pred)
            delta = _action_delta_size(step.action)
            if delta:
                self.charge("db.delta", delta, predicate=pred)
            yield step
            self.settle_into(pred)

    def meter_phase(self, gen, phase_name: str) -> Iterator:
        """Wrap a generator so that time spent *producing* its items is
        attributed under a ``phase_name`` frame, while consumer time
        between pulls stays with the caller's context.  This is how
        suspended generators (isolation sub-searches) are bracketed
        without leaking their frame over the consumer's work."""
        while True:
            token = self.push(phase=phase_name)
            try:
                item = next(gen, _SENTINEL)
            finally:
                self.pop(token)
            if item is _SENTINEL:
                return
            yield item

    def predicate_rollup(self) -> Dict[str, Dict[str, float]]:
        """Aggregate costs per predicate (for why-not cost citation)."""
        out: Dict[str, Dict[str, float]] = {}
        for (rule, pred, phase), costs in self.by_key.items():
            bucket = out.setdefault(pred, _new_costs())
            for kind, amount in costs.items():
                _charge_into(bucket, kind, amount)
        return out

    def rule_rollup(self) -> Dict[str, Dict[str, float]]:
        """Aggregate *self* costs per rule."""
        out: Dict[str, Dict[str, float]] = {}
        for (rule, pred, phase), costs in self.by_key.items():
            bucket = out.setdefault(rule, _new_costs())
            for kind, amount in costs.items():
                _charge_into(bucket, kind, amount)
        return out

    def cumulative_rollup(self, frame_kind: str = "rule") -> Dict[str, Dict[str, float]]:
        """Aggregate cumulative costs per frame label of *frame_kind*:
        every path's costs are credited to each distinct ``frame_kind``
        frame on it (so a rule that calls itself is counted once)."""
        out: Dict[str, Dict[str, float]] = {}
        for path, costs in self.by_path.items():
            labels = {label for kind, label in path if kind == frame_kind}
            for label in labels:
                bucket = out.setdefault(label, _new_costs())
                for kind, amount in costs.items():
                    _charge_into(bucket, kind, amount)
        return out

    def merge(self, other: "CostAttributor") -> None:
        """Fold *other*'s aggregated costs into this attributor.

        Used to combine per-workload attributors into one suite-wide
        flame view; stacks are not merged (only finished aggregates),
        so merge only quiescent attributors.
        """
        for key, costs in other.by_key.items():
            bucket = self.by_key.setdefault(key, _new_costs())
            for kind, amount in costs.items():
                _charge_into(bucket, kind, amount)
        for path, costs in other.by_path.items():
            bucket = self.by_path.setdefault(path, _new_costs())
            for kind, amount in costs.items():
                _charge_into(bucket, kind, amount)

    # -- totals / coverage ------------------------------------------------------

    def totals(self) -> Dict[str, float]:
        out = _new_costs()
        for costs in self.by_key.values():
            for kind, amount in costs.items():
                _charge_into(out, kind, amount)
        return out

    def path_totals(self) -> Dict[str, float]:
        out = _new_costs()
        for costs in self.by_path.values():
            for kind, amount in costs.items():
                _charge_into(out, kind, amount)
        return out

    def coverage(self) -> Dict[str, float]:
        """Fraction of each cost kind attributed to *named* keys.

        A key field is named when some frame (or charge site) supplied
        it; ``time`` coverage requires a named ``phase``, counter
        coverage requires a named ``predicate``.
        """
        total = _new_costs()
        named = _new_costs()
        for (rule, pred, phase), costs in self.by_key.items():
            for kind, amount in costs.items():
                _charge_into(total, kind, amount)
                field = phase if kind == "time" else pred
                if field != UNATTRIBUTED:
                    _charge_into(named, kind, amount)
        return {
            kind: (named.get(kind, 0.0) / total[kind]) if total.get(kind) else 1.0
            for kind in COST_KINDS
        }

    # -- reporting --------------------------------------------------------------

    def table(self, top: int = 20) -> str:
        """Ranked self/cumulative hotspot table per rule and predicate."""
        lines: List[str] = []
        totals = self.totals()
        lines.append(
            "total: %.1fms  %d unify  %d expansions  %d db-delta  %d pruned"
            % (
                totals.get("time", 0.0) * 1e3,
                totals.get("unify.attempts", 0),
                totals.get("steps.expansions", 0),
                totals.get("db.delta", 0),
                totals.get("por.pruned_credit", 0),
            )
        )
        cov = self.coverage()
        lines.append(
            "coverage: %.1f%% time / %.1f%% unify attributed to named keys"
            % (cov["time"] * 100.0, cov["unify.attempts"] * 100.0)
        )
        for title, kind in (("rule", "rule"), ("predicate", "pred")):
            self_costs = (
                self.rule_rollup() if kind == "rule" else self.predicate_rollup()
            )
            cum = self.cumulative_rollup(kind)
            lines.append("")
            lines.append(
                "%-40s %10s %10s %10s %10s"
                % ("by " + title, "self-ms", "cum-ms", "unify", "expand")
            )
            ranked = sorted(
                self_costs.items(),
                key=lambda kv: (
                    -kv[1].get("time", 0.0),
                    -kv[1].get("unify.attempts", 0.0),
                    kv[0],
                ),
            )
            for label, costs in ranked[:top]:
                lines.append(
                    "%-40s %10.2f %10.2f %10d %10d"
                    % (
                        label[:40],
                        costs.get("time", 0.0) * 1e3,
                        cum.get(label, {}).get("time", costs.get("time", 0.0))
                        * 1e3,
                        costs.get("unify.attempts", 0),
                        costs.get("steps.expansions", 0),
                    )
                )
        return "\n".join(lines)

    def as_dict(self) -> dict:
        """JSON-friendly dump of keys, rollups, totals, and coverage."""
        return {
            "totals": self.totals(),
            "coverage": self.coverage(),
            "keys": [
                {"rule": k[0], "predicate": k[1], "phase": k[2], "costs": costs}
                for k, costs in sorted(self.by_key.items())
            ],
            "rules": self.rule_rollup(),
            "predicates": self.predicate_rollup(),
        }

    def folded(self, kind: str = "time") -> str:
        """flamegraph.pl-compatible folded stacks.

        ``time`` is emitted in integer microseconds; counter kinds are
        emitted as integer counts.  Zero-weight stacks are dropped.
        """
        scale = 1e6 if kind == "time" else 1.0
        lines = []
        for path, costs in sorted(self.by_path.items()):
            amount = costs.get(kind, 0.0) * scale
            weight = int(round(amount))
            if weight <= 0:
                continue
            frames = [label for _fk, label in path] or ["(root)"]
            lines.append("%s %d" % (";".join(frames), weight))
        return "\n".join(lines) + ("\n" if lines else "")

    def speedscope(self, kind: str = "time", name: str = "tdlog hotspots") -> dict:
        """Speedscope ``sampled`` profile built from the same path
        aggregation as :meth:`folded` (weights in microseconds for
        ``time``, raw counts otherwise)."""
        scale = 1e6 if kind == "time" else 1.0
        frame_index: Dict[str, int] = {}
        frames: List[dict] = []
        samples: List[List[int]] = []
        weights: List[float] = []
        for path, costs in sorted(self.by_path.items()):
            weight = costs.get(kind, 0.0) * scale
            if weight <= 0:
                continue
            stack = []
            for _fk, label in path or (("frame", "(root)"),):
                idx = frame_index.get(label)
                if idx is None:
                    idx = frame_index[label] = len(frames)
                    frames.append({"name": label})
                stack.append(idx)
            samples.append(stack)
            weights.append(weight)
        total = sum(weights)
        return {
            "$schema": "https://www.speedscope.app/file-format-schema.json",
            "shared": {"frames": frames},
            "profiles": [
                {
                    "type": "sampled",
                    "name": name,
                    "unit": "microseconds" if kind == "time" else "none",
                    "startValue": 0,
                    "endValue": total,
                    "samples": samples,
                    "weights": weights,
                }
            ],
            "exporter": "tdlog profile hotspots",
        }

    def speedscope_json(self, kind: str = "time", name: str = "tdlog hotspots") -> str:
        return json.dumps(self.speedscope(kind=kind, name=name), indent=2)


_RENAME_SUFFIX = re.compile(r"#\d+")


def rule_label(head: object) -> str:
    """Stable display label for a rule head: strips the ``#N`` suffixes
    variable freshening appends (see ``Program.fresh_rules_for``), so
    every unfolding of one source rule lands on one attribution key."""
    return _RENAME_SUFFIX.sub("", str(head))


def _action_predicate(action) -> str:
    """Best-effort predicate name for a transition-step action (duck
    typed -- this module cannot import :mod:`repro.core`)."""
    atom = getattr(action, "atom", None)
    pred = getattr(atom, "pred", None)
    if pred is not None:
        return str(pred)
    kind = getattr(action, "kind", None)
    return str(kind) if kind else UNATTRIBUTED


def _action_delta_size(action) -> int:
    """Database-delta size of an action: 1 for ``ins``/``del``, the
    flattened subtrace update count for ``iso``, else 0."""
    kind = getattr(action, "kind", None)
    if kind in ("ins", "del"):
        return 1
    if kind == "iso":
        total = 0
        for sub in getattr(action, "subtrace", None) or ():
            total += _action_delta_size(sub)
        return total
    return 0


# -- ambient attributor ------------------------------------------------------------
#
# Same shape as provenance's ambient recorder: a module-level slot the
# engines consult through one ``is not None`` guard, plus a context
# manager that installs/restores it.  It is the only way to attach an
# attributor to an engine.

_ACTIVE: Optional[CostAttributor] = None


def active_attributor() -> Optional[CostAttributor]:
    """The ambient attributor installed by :func:`attributing`, or None."""
    return _ACTIVE


@contextmanager
def attributing(attributor: Optional[CostAttributor] = None):
    """Install *attributor* (default: a fresh one) as the ambient
    attributor for the dynamic extent of the ``with`` block."""
    global _ACTIVE
    attr = attributor if attributor is not None else CostAttributor()
    previous = _ACTIVE
    _ACTIVE = attr
    try:
        yield attr
    finally:
        _ACTIVE = previous


@contextmanager
def engine_frame(attr: Optional[CostAttributor], phase: str):
    """Engine entry helper for *plain-function* engine bodies: install
    *attr* ambiently (so deep charge sites like unification see it) and
    push a phase frame for the block.  No-op when *attr* is None."""
    if attr is None:
        yield
        return
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = attr
    token = attr.push(phase=phase)
    try:
        yield
    finally:
        attr.pop(token)
        _ACTIVE = previous


def meter_engine(attr: Optional[CostAttributor], gen, phase: str) -> Iterator:
    """Engine entry helper for *generator* engine bodies: each pull of
    *gen* runs with *attr* installed ambiently and a phase frame pushed,
    so nothing leaks over the consumer while the generator is suspended.
    Passes *gen* through untouched when *attr* is None."""
    if attr is None:
        yield from gen
        return
    global _ACTIVE
    while True:
        previous = _ACTIVE
        _ACTIVE = attr
        token = attr.push(phase=phase)
        try:
            item = next(gen, _SENTINEL)
        finally:
            attr.pop(token)
            _ACTIVE = previous
        if item is _SENTINEL:
            return
        yield item
