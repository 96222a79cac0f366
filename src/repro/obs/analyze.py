"""Counter baselines and regression diffs over a fixed profile suite.

The engines' counters are deterministic -- pure functions of the
program, the goal, and the search strategy (see
``tests/obs/test_engine_counters.py``) -- so a committed snapshot of
them *is* a perf contract: any drift in ``search.configs_expanded`` /
``table.misses`` / ``unify.attempts`` means the evaluators' work
changed, long before wall time shows it on a noisy CI box.

Three pieces:

* :func:`profile_suite` -- the fixed, named workloads the baselines
  cover: one per engine family (tabled sequential on a nonrecursive
  and a recursive program, full-TD BFS, fully-bounded search, workflow
  simulation), built from the paper's own examples so the gate tracks
  the programs the repo is *about*.
* :func:`write_baselines` -- run each workload instrumented and write
  ``<name>.json`` per config (``tdlog profile baseline``).
* :func:`diff_baselines` -- re-run and compare against the committed
  snapshots with per-counter tolerances (``tdlog profile diff``); any
  out-of-tolerance drift, in either direction, is a failure.  A PR that
  legitimately moves a counter regenerates the baseline in the same
  change, so the delta is reviewed where it happens.

Tolerances are *relative* (fraction of the baseline value).  The
default is exact (0.0) because the counters are deterministic; CI keeps
it that way.  ``--tolerance``/``--counter name=frac`` exist for local
what-if runs and for any future counter that turns out to be
environment-sensitive.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .context import Instrumentation, instrumented

__all__ = [
    "ProfileConfig",
    "Delta",
    "DiffReport",
    "profile_suite",
    "capture_snapshot",
    "deterministic_record",
    "write_baselines",
    "load_baseline",
    "diff_snapshot",
    "diff_baselines",
    "render_diff",
]

#: Baseline file schema version (bump on shape changes).
SCHEMA = 1

#: Default location for committed baselines, relative to the repo root.
DEFAULT_BASELINE_DIR = os.path.join("benchmarks", "baselines")


@dataclass(frozen=True)
class ProfileConfig:
    """One named, deterministic workload in the profile suite."""

    name: str
    description: str
    run: Callable[[], None]


# -- the fixed workloads ------------------------------------------------------
#
# Engine imports stay inside the builders: ``repro.core`` imports
# ``repro.obs`` at module load, so importing it here at module level
# would be circular.

_BANK_TD = """
transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
withdraw(Acct, Amt) <-
    balance(Acct, Bal) * Bal >= Amt *
    del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
deposit(Acct, Amt) <-
    balance(Acct, Bal) *
    del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""

_PATH_TD = """
path(X, Y) <- e(X, Y).
path(X, Y) <- e(X, Z) * path(Z, Y).
"""

_GENOME_TD = """
simulate <- workitem(W) * del.workitem(W) * (workflow(W) | simulate).
simulate <- not workitem(_).
workflow(W) <- prep(W) * (load_gel(W) | label(W)) * read_gel(W).
prep(W) <-
    available(A) * qualified(A, tech) * del.available(A) *
    ins.done(prep, W, A) * ins.available(A).
load_gel(W) <-
    available(A) * qualified(A, tech) * del.available(A) *
    ins.done(load_gel, W, A) * ins.available(A).
label(W) <- ins.done(label, W, auto).
read_gel(W) <-
    available(A) * qualified(A, reader) * del.available(A) *
    ins.done(read_gel, W, A) * ins.available(A).
"""

_GENOME_FACTS = """
workitem(dna01). workitem(dna02).
available(ana). available(raj).
qualified(ana, tech). qualified(raj, tech). qualified(raj, reader).
"""


def _run_bank() -> None:
    from ..core import parse_database, parse_goal, parse_program, select_engine

    engine = select_engine(parse_program(_BANK_TD), "transfer(a, b, 30)")
    db = parse_database("balance(a, 100). balance(b, 10).")
    assert len(list(engine.solve(parse_goal("transfer(a, b, 30)"), db))) == 1


def _run_path() -> None:
    # Ground start + acyclic chain: the tabled engine's counters are
    # exactly reproducible across processes for this shape (the
    # all-pairs query on a cyclic graph is not -- fixpoint visit order
    # leaks hash randomization into hit/recompute counts).
    from ..core import parse_database, parse_goal, parse_program, select_engine

    engine = select_engine(parse_program(_PATH_TD), "path(a, X)")
    db = parse_database("e(a, b). e(b, c). e(c, d). e(d, e). e(e, f).")
    assert len(list(engine.solve(parse_goal("path(a, X)"), db))) == 5


def _run_genome() -> None:
    from ..core import parse_database, parse_goal, parse_program, select_engine

    engine = select_engine(parse_program(_GENOME_TD), "simulate")
    db = parse_database(_GENOME_FACTS)
    assert engine.simulate(parse_goal("simulate"), db) is not None


def _run_genome_statespace() -> None:
    from ..core import parse_database, parse_program
    from ..verify import explore

    graph = explore(
        parse_program(_GENOME_TD),
        "simulate",
        parse_database("workitem(dna01). available(raj). "
                       "qualified(raj, tech). qualified(raj, reader)."),
        max_states=50_000,
    )
    assert graph.final_ids


def _run_lab_workflow() -> None:
    from ..lims import build_lab_simulator, sample_batch

    sim = build_lab_simulator()
    result = sim.run(sample_batch(3))
    assert len(result.completed("analyze")) == 3


_FANOUT_TD = """
spawn <- item(I) * del.item(I) * (job(I) | spawn).
spawn <- not item(_).
job(I) <- ins.started(I) * ins.finished(I).
"""


def _run_conc_fanout() -> None:
    # Concurrent fan-out stressor for the partial-order reducer: each
    # work item spawns an insert-only job branch that runs alongside the
    # recursive spawner.  The job branches commute with everything, so
    # the ample-set pruner serializes them; without reduction the BFS
    # enumerates every interleaving (docs/PERFORMANCE.md).  Ground start
    # keeps the counters hash-seed deterministic.
    from ..core import parse_database, parse_goal, parse_program, select_engine

    engine = select_engine(parse_program(_FANOUT_TD), "spawn")
    db = parse_database("item(j1). item(j2). item(j3). item(j4). item(j5).")
    assert len(list(engine.solve(parse_goal("spawn"), db))) == 1


_RECURSIVE_TD = """
reach(X) <- sink(X).
reach(X) <- edge(X, Z) * reach(Z) * node(X).
audit <- reach(s0) * (stamp(left) | stamp(right)).
stamp(T) <- ins.audited(T).
"""


def _recursive_facts(depth: int = 7) -> str:
    """A chain of *depth* diamonds: s0 -> {a0,b0} -> s1 -> ... -> sink.

    Every diamond doubles the naive proof count of ``reach(s0)`` while
    the join nodes collapse under answer tabling, so the config's
    headline ratio (naive vs tabled expansions) grows exponentially
    with depth.  Facts live in the database -- not the program -- so
    the untabled run pays its re-derivations in ``unify.attempts``
    (database matching), which the rulebase's head-match memo would
    otherwise hide.
    """
    facts = []
    for i in range(depth):
        s, a, b, t = "s%d" % i, "a%d" % i, "b%d" % i, "s%d" % (i + 1)
        facts += ["edge(%s, %s)." % (s, a), "edge(%s, %s)." % (s, b),
                  "edge(%s, %s)." % (a, t), "edge(%s, %s)." % (b, t)]
        facts += ["node(%s)." % n for n in (s, a, b)]
    facts.append("node(s%d)." % depth)
    facts.append("sink(s%d)." % depth)
    return " ".join(facts)


def _run_recursive_workflow() -> None:
    # Non-tail recursion over a diamond DAG with a concurrent stamping
    # tail: the join nodes are re-reached along exponentially many
    # paths, all served from the answer table after the first proof
    # (docs/PERFORMANCE.md, "Tabling the concurrent interpreter").
    # Ground start + acyclic DAG keep the counters hash-seed
    # deterministic, like the other full-TD configs.
    from ..core import parse_database, parse_goal, parse_program, select_engine

    engine = select_engine(parse_program(_RECURSIVE_TD), "audit")
    db = parse_database(_recursive_facts())
    assert len(list(engine.solve(parse_goal("audit"), db))) == 1


def _run_chaos_faults() -> None:
    # A small, fixed slice of the chaos suite (docs/ROBUSTNESS.md).  The
    # injector is seed-deterministic and holds no RNG of its own, so the
    # ``faults.*`` counters -- ticks consumed, steps dropped, reordered
    # expansions -- are exactly reproducible and baseline-gated like any
    # other engine counter.
    from ..faults import run_chaos, workload_by_name

    reports = run_chaos(
        [workload_by_name("bank_transfer"), workload_by_name("genome_iso")],
        plans=6,
        base_seed=0,
    )
    assert not any(report.violations for report in reports)


def profile_suite() -> List[ProfileConfig]:
    """The fixed workloads the committed baselines cover, one per
    engine family, all drawn from the paper's running examples."""
    return [
        ProfileConfig(
            "bank_transfer",
            "Examples 2.1-2.2 nested banking transfer (tabled sequential evaluator, iso)",
            _run_bank,
        ),
        ProfileConfig(
            "path_tabled",
            "transitive closure, all pairs (tabled sequential engine)",
            _run_path,
        ),
        ProfileConfig(
            "genome_simulate",
            "Examples 3.1-3.3 genome lab, 2 samples (full-TD DFS scheduler)",
            _run_genome,
        ),
        ProfileConfig(
            "genome_statespace",
            "genome lab, 1 sample: exhaustive configuration graph (verifier)",
            _run_genome_statespace,
        ),
        ProfileConfig(
            "lab_workflow_batch3",
            "compiled genome-lab workflow, batch of 3 (workflow simulator)",
            _run_lab_workflow,
        ),
        ProfileConfig(
            "conc_fanout",
            "5-item concurrent fan-out (full-TD BFS, partial-order reduction)",
            _run_conc_fanout,
        ),
        ProfileConfig(
            "recursive_workflow",
            "depth-7 diamond-DAG reachability audit (full-TD BFS, answer tabling)",
            _run_recursive_workflow,
        ),
        ProfileConfig(
            "chaos_faults",
            "seeded fault-injection slice: bank + iso genome, 6 plans each",
            _run_chaos_faults,
        ),
    ]


def suite_config(name: str) -> ProfileConfig:
    for config in profile_suite():
        if config.name == name:
            return config
    raise KeyError(
        "unknown profile config %r (have: %s)"
        % (name, ", ".join(c.name for c in profile_suite()))
    )


# -- capture ------------------------------------------------------------------


def deterministic_record(metrics) -> Dict[str, object]:
    """The counters, gauges and info of *metrics*: the part of a run
    that is a pure function of the search.  Timers and histograms (the
    store's fsync latencies) measure the clock and are left out."""
    snapshot = metrics.snapshot(include_timers=False)
    return {key: snapshot[key] for key in ("counters", "gauges", "info")}


def capture_snapshot(config: ProfileConfig) -> Dict[str, object]:
    """Run *config* under fresh instrumentation; return its baseline
    record (deterministic parts only, see :func:`deterministic_record`)."""
    inst = Instrumentation.create()
    with instrumented(inst):
        config.run()
    return {
        "schema": SCHEMA,
        "config": config.name,
        "description": config.description,
        **deterministic_record(inst.metrics),
    }


def write_baselines(
    out_dir: str, configs: Optional[Sequence[ProfileConfig]] = None
) -> List[str]:
    """Capture every suite config and write ``<name>.json`` files;
    returns the paths written."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []
    for config in configs if configs is not None else profile_suite():
        record = capture_snapshot(config)
        path = os.path.join(out_dir, config.name + ".json")
        with open(path, "w") as handle:
            json.dump(record, handle, indent=2, sort_keys=True)
            handle.write("\n")
        paths.append(path)
    return paths


def load_baseline(path: str) -> Dict[str, object]:
    with open(path) as handle:
        record = json.load(handle)
    if record.get("schema") != SCHEMA:
        raise ValueError(
            "%s: baseline schema %r, expected %r -- regenerate with "
            "'tdlog profile baseline'" % (path, record.get("schema"), SCHEMA)
        )
    return record


# -- diff ---------------------------------------------------------------------


@dataclass(frozen=True)
class Delta:
    """One compared value: a counter, gauge, or info fact."""

    kind: str  # "counter" | "gauge" | "info"
    name: str
    baseline: object
    current: object
    status: str  # "ok" | "regressed" | "improved" | "changed" | "new" | "missing"

    @property
    def ok(self) -> bool:
        return self.status in ("ok", "new")


@dataclass
class DiffReport:
    """All deltas for one profile config."""

    config: str
    deltas: List[Delta] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(d.ok for d in self.deltas)

    @property
    def failures(self) -> List[Delta]:
        return [d for d in self.deltas if not d.ok]


def _within(base: float, cur: float, tolerance: float) -> bool:
    if base == cur:
        return True
    allowance = abs(base) * tolerance
    return abs(cur - base) <= allowance


def _numeric_deltas(
    kind: str,
    base: Dict[str, float],
    cur: Dict[str, float],
    tolerances: Dict[str, float],
    default_tolerance: float,
) -> List[Delta]:
    deltas = []
    for name in sorted(set(base) | set(cur)):
        tolerance = tolerances.get(name, default_tolerance)
        if name not in base:
            deltas.append(Delta(kind, name, None, cur[name], "new"))
        elif name not in cur:
            deltas.append(Delta(kind, name, base[name], None, "missing"))
        elif _within(base[name], cur[name], tolerance):
            deltas.append(Delta(kind, name, base[name], cur[name], "ok"))
        else:
            status = "regressed" if cur[name] > base[name] else "improved"
            deltas.append(Delta(kind, name, base[name], cur[name], status))
    return deltas


def diff_snapshot(
    baseline: Dict[str, object],
    current: Dict[str, object],
    tolerances: Optional[Dict[str, float]] = None,
    default_tolerance: float = 0.0,
) -> DiffReport:
    """Compare a current capture against a baseline record.

    Counters and gauges compare numerically under the tolerance model;
    ``info`` facts (engine backend, sublanguage) must match exactly --
    a workload silently landing on a different engine is drift of the
    worst kind.  More work than baseline is ``regressed``, less is
    ``improved``; *both* fail the gate, because an unexplained
    improvement usually means the workload stopped doing the work the
    baseline measured.
    """
    tolerances = tolerances or {}
    report = DiffReport(config=str(baseline.get("config", "?")))
    for kind in ("counters", "gauges"):
        report.deltas.extend(
            _numeric_deltas(
                kind[:-1],
                dict(baseline.get(kind) or {}),
                dict(current.get(kind) or {}),
                tolerances,
                default_tolerance,
            )
        )
    base_info = dict(baseline.get("info") or {})
    cur_info = dict(current.get("info") or {})
    for name in sorted(set(base_info) | set(cur_info)):
        if name not in base_info:
            report.deltas.append(Delta("info", name, None, cur_info[name], "new"))
        elif name not in cur_info:
            report.deltas.append(Delta("info", name, base_info[name], None, "missing"))
        else:
            status = "ok" if base_info[name] == cur_info[name] else "changed"
            report.deltas.append(
                Delta("info", name, base_info[name], cur_info[name], status)
            )
    return report


def diff_baselines(
    baseline_dir: str,
    tolerances: Optional[Dict[str, float]] = None,
    default_tolerance: float = 0.0,
    configs: Optional[Sequence[ProfileConfig]] = None,
) -> Tuple[List[DiffReport], List[str]]:
    """Re-run the suite and diff each config against its committed
    baseline.  Returns (reports, problems); *problems* lists configs
    with no baseline on disk (which also fails the gate -- an untracked
    workload is an unguarded one)."""
    reports: List[DiffReport] = []
    problems: List[str] = []
    for config in configs if configs is not None else profile_suite():
        path = os.path.join(baseline_dir, config.name + ".json")
        if not os.path.exists(path):
            problems.append(
                "%s: no baseline at %s (run 'tdlog profile baseline')"
                % (config.name, path)
            )
            continue
        baseline = load_baseline(path)
        current = capture_snapshot(config)
        reports.append(
            diff_snapshot(baseline, current, tolerances, default_tolerance)
        )
    return reports, problems


# -- rendering ----------------------------------------------------------------


def _format_value(value: object) -> str:
    if value is None:
        return "-"
    if isinstance(value, float) and not value.is_integer():
        return "%g" % value
    if isinstance(value, float):
        return str(int(value))
    return str(value)


def render_diff(
    reports: Sequence[DiffReport],
    problems: Sequence[str] = (),
    verbose: bool = False,
) -> str:
    """The diff as an aligned text table: failures always, matches with
    ``verbose=True``."""
    lines: List[str] = []
    total = sum(len(r.deltas) for r in reports)
    failed = sum(len(r.failures) for r in reports)
    for report in reports:
        shown = report.deltas if verbose else report.failures
        header = "%s: %s" % (
            report.config,
            "ok (%d values)" % len(report.deltas) if report.ok else "DRIFT",
        )
        lines.append(header)
        width = max((len(d.name) for d in shown), default=0)
        for delta in shown:
            lines.append(
                "  %-9s %-*s  %s -> %s  [%s]"
                % (
                    delta.status,
                    width,
                    delta.name,
                    _format_value(delta.baseline),
                    _format_value(delta.current),
                    delta.kind,
                )
            )
    for problem in problems:
        lines.append("MISSING   %s" % problem)
    lines.append(
        "profile diff: %d config(s), %d value(s) compared, %d out of tolerance%s"
        % (
            len(reports),
            total,
            failed,
            ", %d missing baseline(s)" % len(problems) if problems else "",
        )
    )
    return "\n".join(lines)


def parse_tolerance_overrides(pairs: Sequence[str]) -> Dict[str, float]:
    """Parse ``name=frac`` CLI override strings into a tolerance map."""
    out: Dict[str, float] = {}
    for pair in pairs:
        name, sep, frac = pair.partition("=")
        if not sep or not name:
            raise ValueError("expected name=fraction, got %r" % pair)
        out[name] = float(frac)
    return out
