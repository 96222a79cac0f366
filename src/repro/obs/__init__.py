"""Engine-wide instrumentation: metrics, tracing, profiling hooks.

Observability for the Transaction Datalog engines.  Three pieces:

* :class:`~repro.obs.metrics.Metrics` -- a registry of counters, gauges
  (high-water marks), histograms, and wall-clock timers.  Counters are
  deterministic (configurations expanded, table hits, unification
  attempts); timers are kept separate so tests can assert on counters
  without depending on wall time.
* :class:`~repro.obs.tracer.Tracer` -- lightweight span-based tracing.
  Engines open spans for ``solve`` / ``simulate`` / ``iso-subsearch``;
  finished spans serialize as JSON lines with parent ids so external
  tools can rebuild the search tree.
* :func:`~repro.obs.context.instrumented` -- the activation context.
  Instrumentation is **off by default**: the engines capture a single
  module-level observer slot (metrics, derivation recorder, cost
  attributor) at entry, and every hot-path increment is guarded by one
  check, so the uninstrumented paths stay at full speed.

Typical use::

    from repro.obs import Instrumentation, instrumented, render_report

    inst = Instrumentation.create()
    with instrumented(inst):
        list(engine.solve(goal, db))
    print(render_report(inst))

The CLI exposes the same machinery as ``--profile`` (print the report)
and ``--trace-out FILE`` (dump the span log as JSON lines).
"""

from .context import Instrumentation, NOOP, active, instrumented
from .hotspots import CostAttributor, active_attributor, attributing
from .metrics import Metrics
from .progress import ProgressReporter
from .provenance import ProvNode, ProvenanceRecorder, active_recorder, recording
from .report import render_report
from .tracer import Span, Tracer, read_jsonl

# NOTE: repro.obs.explain is deliberately NOT imported here -- it depends
# on the core engines, which in turn import this package.  Import it
# directly: ``from repro.obs import explain``.

__all__ = [
    "CostAttributor",
    "Instrumentation",
    "Metrics",
    "NOOP",
    "ProgressReporter",
    "ProvNode",
    "ProvenanceRecorder",
    "Span",
    "Tracer",
    "active",
    "active_attributor",
    "active_recorder",
    "attributing",
    "instrumented",
    "read_jsonl",
    "recording",
    "render_report",
]
