"""Command-line interface: run, solve, classify, and profile TD programs.

Usage examples::

    tdlog classify workflow.td
    tdlog solve workflow.td --goal 'transfer(a, b, 30)' --db bank.facts
    tdlog run workflow.td --goal 'simulate' --db lab.facts --seed 7
    tdlog run workflow.td --goal 'transfer(a, b, 30)' --db bank.facts \
        --store sqlite:bank.tdlog
    tdlog solve big.td --goal 'search' --store sqlite:run.tdlog \
        --checkpoint-out run.ckpt   # exit 3 on exhaustion, then:
    tdlog solve big.td --goal 'search' --store sqlite:run.tdlog \
        --resume-from run.ckpt
    tdlog store inspect bank.tdlog --json
    tdlog store fsck bank.tdlog --repair
    tdlog explain workflow.td --goal 'transfer(a, b, 30)' --db bank.facts
    tdlog explain workflow.td --goal 'transfer(a, b, 999)' --db bank.facts --why-not
    tdlog explain --audit-por
    tdlog solve workflow.td --goal 'simulate' --db lab.facts --progress 2
    tdlog bench --repeat 5
    tdlog profile baseline
    tdlog profile diff
    tdlog profile hotspots --top 10 --speedscope profile.speedscope.json
    tdlog chaos --plans 50 --seed 0
    tdlog chaos --only bank_transfer --json chaos.json

``run`` finds one successful execution (the simulator) and prints its
trace and final database; ``solve`` enumerates all solutions (bindings +
final state); ``classify`` prints the sublanguage analysis; ``explain``
records derivation provenance and renders proof trees, why-not failure
summaries, and the partial-order-reduction pruning audit; ``bench``
times the profile-suite workloads (wall clock, best/mean over repeats;
``perfbench/`` is the calibrated benchmark);
``profile`` manages counter baselines (``baseline``/``diff``, the CI
regression gate) and the attributed cost profile (``hotspots``);
``store inspect`` prints a durable ``.tdlog`` store's snapshot
generation, WAL tail, checksum status, lease holder, and per-predicate
fact counts (read-only, so it works on damaged or in-use files);
``store fsck`` verifies a store's checksums and meta
coherence offline and can quarantine a damaged WAL tail (``--repair``)
-- see docs/STORAGE.md; ``chaos`` runs the differential fault-injection
suite (seeded fault plans against every chaos workload, asserting the
atomicity and retry-recovery invariants -- see docs/ROBUSTNESS.md;
``--store-faults`` adds the crash-point/byte-corruption store fuzzing
family) and its output is byte-identical for the same arguments.

``tdlog`` is the canonical command name.  The same program is also
installed as ``repro`` (a documented alias kept for older scripts);
both run this module's :func:`main`.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .core import (
    Database,
    analyze,
    format_database,
    format_trace,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)

__all__ = ["main"]


def _load_db(path: Optional[str]) -> Database:
    if path is None:
        return Database()
    with open(path) as handle:
        return parse_database(handle.read())


def _load_program(path: str):
    with open(path) as handle:
        return parse_program(handle.read())


def _cmd_classify(args: argparse.Namespace) -> int:
    program = _load_program(args.program)
    goal = parse_goal(args.goal) if args.goal else None
    print(analyze(program, goal).report())
    return 0


def _open_store_arg(args: argparse.Namespace, db: Optional[Database]):
    """Open ``--store`` (``None`` when absent).  A fresh, empty durable
    store is seeded from *db*; an existing store's contents win over
    ``--db`` (durability means the file is the state of record)."""
    spec = getattr(args, "store", None)
    if not spec:
        return None
    from .store import open_store

    return open_store(spec, db=db)


def _cmd_solve(args: argparse.Namespace) -> int:
    import pickle
    from contextlib import ExitStack

    from .core import DeadlineExceeded, SearchBudgetExceeded

    program = _load_program(args.program)
    db = _load_db(args.db)
    count = 0
    with ExitStack() as stack:
        store = _open_store_arg(args, db if args.db else None)
        if store is not None:
            stack.callback(store.close)
        engine = select_engine(
            program,
            args.goal,
            max_configs=args.max_configs,
            store=store,
            tabling=not getattr(args, "no_tabling", False),
        )
        if getattr(args, "progress", 0):
            # The heartbeat reads the engines' own counters; make sure a
            # registry is active even without --profile/--trace-out.
            from .obs import active, instrumented
            from .obs.progress import ProgressReporter

            obs = active()
            if not obs.enabled:
                obs = stack.enter_context(instrumented())
            stack.enter_context(
                ProgressReporter(obs.metrics, interval=args.progress)
            )
        if getattr(args, "resume_from", None):
            # Continue an interrupted search: the pickled checkpoint
            # carries the goal, frontier, and already-emitted answers;
            # with --store the states come from the durable file that
            # survived the original run (recovery replayed its WAL on
            # open), so checkpoint + store compose into crash restart.
            with open(args.resume_from, "rb") as handle:
                checkpoint = pickle.load(handle)
            solutions = engine.resume(checkpoint)
        else:
            solutions = engine.solve(
                args.goal, None if store is not None else db
            )
        try:
            for solution in solutions:
                count += 1
                if solution.bindings:
                    bindings = ", ".join(
                        "%s = %s" % (v, t)
                        for v, t in sorted(solution.bindings.items())
                    )
                    print("solution %d: %s" % (count, bindings))
                else:
                    print("solution %d." % count)
                print(format_database(solution.database) or "  (empty database)")
                print()
                if args.limit and count >= args.limit:
                    break
        except (SearchBudgetExceeded, DeadlineExceeded) as exc:
            checkpoint = getattr(exc, "checkpoint", None)
            out = getattr(args, "checkpoint_out", None)
            if out is None or checkpoint is None:
                raise
            with open(out, "wb") as handle:
                pickle.dump(checkpoint, handle)
            print(
                "search interrupted (%s); checkpoint written to %s "
                "(resume with --resume-from)" % (type(exc).__name__, out),
                file=sys.stderr,
            )
            return 3
    if count == 0:
        print("no solution: the transaction cannot commit")
        return 1
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from contextlib import ExitStack

    program = _load_program(args.program)
    db = _load_db(args.db)
    with ExitStack() as stack:
        store = _open_store_arg(args, db if args.db else None)
        if store is not None:
            stack.callback(store.close)
        engine = select_engine(
            program, args.goal, max_configs=args.max_configs, store=store
        )
        execution = engine.simulate(
            args.goal, None if store is not None else db, seed=args.seed
        )
        if execution is None:
            print("no successful execution found")
            return 1
        print("trace:")
        print(format_trace(execution.trace, indent="  "))
        print("final database:")
        print(format_database(execution.database) or "  (empty database)")
        if store is not None:
            print("execution committed to store", file=sys.stderr)
    return 0


def _cmd_store_inspect(args: argparse.Namespace) -> int:
    """Debugging surface for the durable backend: snapshot generation,
    WAL length, per-predicate fact counts, checkpoint linkage, lease
    holder, checksum status, and quarantine-sidecar presence.

    Opens *read-only*: inspection must neither take the writer lease
    (the store may be live under another process) nor trigger
    checkpoints, and a damaged store still opens -- degraded -- so
    there is always a way to look at a broken file.
    """
    import os

    from .store import StoreError
    from .store.sqlite import SqliteStore

    if not os.path.exists(args.path):
        # Opening would create an empty store -- surprising for an
        # inspection command, so refuse instead.
        raise StoreError("no such store: %s" % args.path)
    with SqliteStore(args.path, readonly=True) as store:
        stats = store.stats()
        if args.json:
            print(json.dumps(stats, indent=2, sort_keys=True, default=str))
            return 0
        print("store:      %s" % stats["path"])
        print("backend:    %s" % stats["backend"])
        print("schema:     version %s" % stats["schema_version"])
        print("facts:      %d" % stats["facts"])
        print("generation: %d" % stats["generation"])
        print("wal tail:   %d row(s) pending replay" % stats["wal_length"])
        print(
            "checkpoint: generation %d folded WAL through seq %d "
            "(%d fact(s) in snapshot)"
            % (stats["generation"], stats["checkpoint_seq"],
               stats["snapshot_facts"])
        )
        print(
            "checksums:  %s"
            % ("DEGRADED: %s" % stats["degraded"] if stats["degraded"]
               else "verified (snapshot + wal tail)")
        )
        lease = stats["lease"]
        if lease:
            print(
                "lease:      held by pid %s (generation %s)"
                % (lease.get("pid"), lease.get("generation"))
            )
        else:
            print("lease:      free")
        print(
            "quarantine: %s"
            % ("sidecar present (see 'tdlog store fsck')"
               if stats["quarantine"] else "none")
        )
        predicates = stats["predicates"]
        if predicates:
            print("predicates:")
            for pred, n in predicates.items():
                print("  %-20s %d" % (pred, n))
        else:
            print("predicates: (none)")
    return 0


def _cmd_store_fsck(args: argparse.Namespace) -> int:
    """Offline verifier for ``.tdlog`` stores (see
    :mod:`repro.store.fsck`).  Exit 0 when every check passes, 2 when
    damage was found (the same exit class as any other store error);
    ``--repair`` quarantines a damaged WAL tail and exits by the
    post-repair verdict."""
    from .store.fsck import format_fsck, fsck

    report = fsck(args.path, repair=args.repair)
    if args.repair and report.repaired:
        # Show the state the repair left behind, not the damage it
        # removed: verify once more, keeping the repair log.
        verified = fsck(args.path)
        verified.repaired.extend(report.repaired)
        report = verified
    if args.json:
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(format_fsck(report))
    return 0 if report.ok else 2


def _cmd_graph(args: argparse.Namespace) -> int:
    from .verify import deadlocks, explore, may_diverge

    program = _load_program(args.program)
    db = _load_db(args.db)
    graph = explore(program, args.goal, db, max_states=args.max_states)
    stuck = deadlocks(graph)
    print("states:     %d" % len(graph))
    print("final:      %d" % len(graph.final_ids))
    print("stuck:      %d" % len(stuck))
    print("may loop:   %s" % ("yes" if may_diverge(graph) else "no"))
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(graph.to_dot())
        print("dot graph written to %s" % args.dot)
    if stuck and args.show_stuck:
        print("first stuck state:")
        print("  %s" % stuck[0])
        print("  via: %s" % "; ".join(graph.path_to(stuck[0].node_id)))
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    """Answer explanation: proof trees, why-not reports, pruning audit.

    Three modes (see docs/OBSERVABILITY.md, "Explaining answers"):

    * ``explain PROGRAM --goal G``: run the goal with a provenance
      recorder attached and print the proof tree of each solution.
    * ``explain PROGRAM --goal G --why-not``: print the failure-side
      summary instead, with what the dead branches wait for (also the
      automatic fallback when the goal has no solution).  In ``auto``
      mode the failure side is the interpreter's breadth-first search:
      the Datalog reader's bottom-up recording has no dead leaves.
    * ``explain --audit-por [--suite NAME]``: re-verify every recorded
      ample-set pruning decision against its witness and replay with
      reduction off; with a PROGRAM and --goal the audit runs on that
      goal instead of the committed profile suite.
    """
    from .obs import explain as _explain

    if args.audit_por:
        audits = []
        if args.program and args.goal:
            program = _load_program(args.program)
            db = _load_db(args.db)
            audits.append(
                _explain.audit_por_goal(
                    program, args.goal, db, max_configs=args.max_configs
                )
            )
        else:
            from .obs.analyze import profile_suite

            names = args.suite or [c.name for c in profile_suite()]
            if "all" in names:
                names = [c.name for c in profile_suite()]
            audits.extend(_explain.audit_profile_config(name) for name in names)
        for audit in audits:
            print(audit.render())
        return 0 if all(a.ok for a in audits) else 1

    if not args.program or not args.goal:
        print("error: explain needs a PROGRAM and --goal (or --audit-por)",
              file=sys.stderr)
        return 2
    from .obs.hotspots import CostAttributor, attributing

    program = _load_program(args.program)
    db = _load_db(args.db)
    # Run with a cost attributor alongside the recorder so the why-not
    # report can say not just *where* branches died but what they cost.
    attr = CostAttributor()
    mode = "bfs" if args.why_not and args.mode == "auto" else args.mode
    with attributing(attr):
        recorder, solutions = _explain.explain_goal(
            program, args.goal, db, mode=mode, max_configs=args.max_configs
        )
    attr.mark()
    if args.json:
        recorder.write_jsonl(args.json)
        print("provenance written to %s" % args.json, file=sys.stderr)
    if args.dot:
        with open(args.dot, "w") as handle:
            handle.write(_explain.to_dot(recorder) + "\n")
        print("derivation DAG written to %s" % args.dot, file=sys.stderr)
    if args.why_not or not solutions:
        print(
            _explain.why_not_report(
                recorder, top_k=args.top, costs=attr.predicate_rollup()
            )
        )
        return 0 if solutions else 1
    print("%d solution(s); proof tree:" % len(solutions))
    print(_explain.render_proof_tree(recorder))
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    """Wall-clock timings over the profile-suite workloads.

    Complements ``profile diff``: the counter gate catches *work* drift
    deterministically; this reports what that work costs on this
    machine.  Each repeat runs a workload from scratch (fresh program,
    fresh engine), so per-program caches do not flatter later repeats.
    The timings are unscaled and machine-local; speed claims cite
    ``perfbench/`` runs, which carry a machine fingerprint and
    probe-scaled spreads.
    """
    import time

    from .obs.analyze import profile_suite, suite_config

    configs = (
        [suite_config(name) for name in args.only] if args.only else profile_suite()
    )
    if args.repeat < 1:
        print("error: --repeat must be >= 1", file=sys.stderr)
        return 2
    rows = []
    for config in configs:
        samples = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            config.run()
            samples.append(time.perf_counter() - start)
        rows.append(
            {
                "config": config.name,
                "description": config.description,
                "repeat": args.repeat,
                "best_ms": round(min(samples) * 1000.0, 3),
                "mean_ms": round(sum(samples) / len(samples) * 1000.0, 3),
            }
        )
    width = max(len(str(row["config"])) for row in rows)
    print("%-*s  %10s  %10s" % (width, "config", "best (ms)", "mean (ms)"))
    for row in rows:
        print(
            "%-*s  %10.2f  %10.2f"
            % (width, row["config"], row["best_ms"], row["mean_ms"])
        )
    print("(%d repeat(s) per config; best-of is the stable figure)" % args.repeat)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(rows, handle, indent=2)
            handle.write("\n")
        print("bench results written to %s" % args.json, file=sys.stderr)
    return 0


def _cmd_profile_baseline(args: argparse.Namespace) -> int:
    from .obs.analyze import suite_config, write_baselines

    configs = [suite_config(name) for name in args.only] if args.only else None
    for path in write_baselines(args.out, configs):
        print("wrote %s" % path)
    return 0


def _cmd_profile_diff(args: argparse.Namespace) -> int:
    from .obs.analyze import diff_baselines, render_diff, suite_config

    configs = [suite_config(name) for name in args.only] if args.only else None
    reports, problems = diff_baselines(args.baseline_dir, configs)
    print(render_diff(reports, problems, verbose=args.verbose))
    return 0 if all(r.ok for r in reports) and not problems else 1


def _cmd_profile_hotspots(args: argparse.Namespace) -> int:
    """Attributed cost profile of the suite workloads (or one of them).

    Each config runs with a fresh :class:`CostAttributor` *and* fresh
    instrumentation, inside a root frame named after the config, so all
    wall time falls under a named phase.  Per config the command prints
    coverage and the unify cross-check (attributed unify charges vs the
    deterministic ``unify.attempts`` counter -- the two must agree
    exactly); the ranked table and the folded/speedscope exports are
    rendered from the merged attributor so flame totals equal table
    totals by construction.
    """
    from .obs import Instrumentation, instrumented
    from .obs.analyze import profile_suite, suite_config
    from .obs.hotspots import CostAttributor, attributing

    configs = (
        [suite_config(name) for name in args.only] if args.only else profile_suite()
    )
    merged = CostAttributor()
    per_config = []
    failures = []
    for config in configs:
        attr = CostAttributor()
        inst = Instrumentation.create()
        with attributing(attr), instrumented(inst), \
                attr.frame(phase=config.name):
            config.run()
        attr.mark()  # settle trailing wall time before reading aggregates
        counter_unify = inst.metrics.counter("unify.attempts")
        attributed_unify = attr.totals().get("unify.attempts", 0.0)
        coverage = attr.coverage()
        per_config.append(
            {
                "config": config.name,
                "totals": attr.totals(),
                "coverage": coverage,
                "unify_counter": counter_unify,
                "unify_attributed": attributed_unify,
            }
        )
        if int(attributed_unify) != counter_unify:
            failures.append(
                "%s: attributed unify %d != counter %d"
                % (config.name, int(attributed_unify), counter_unify)
            )
        if coverage["time"] < 0.95 or coverage["unify.attempts"] < 0.95:
            failures.append(
                "%s: coverage below 95%% (time %.1f%%, unify %.1f%%)"
                % (
                    config.name,
                    coverage["time"] * 100.0,
                    coverage["unify.attempts"] * 100.0,
                )
            )
        merged.merge(attr)

    width = max(len(row["config"]) for row in per_config)
    print("%-*s  %9s  %9s  %10s  %10s" % (
        width, "config", "time-cov", "unify-cov", "unify-attr", "unify-ctr"))
    for row in per_config:
        print("%-*s  %8.1f%%  %8.1f%%  %10d  %10d" % (
            width,
            row["config"],
            row["coverage"]["time"] * 100.0,
            row["coverage"]["unify.attempts"] * 100.0,
            int(row["unify_attributed"]),
            row["unify_counter"],
        ))
    print()
    print(merged.table(top=args.top))

    if args.json:
        payload = {
            "configs": per_config,
            "merged": merged.as_dict(),
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("hotspot profile written to %s" % args.json, file=sys.stderr)
    if args.folded:
        with open(args.folded, "w") as handle:
            handle.write(merged.folded(kind=args.weight))
        print("folded stacks written to %s (flamegraph.pl compatible)"
              % args.folded, file=sys.stderr)
    if args.speedscope:
        with open(args.speedscope, "w") as handle:
            handle.write(merged.speedscope_json(kind=args.weight))
            handle.write("\n")
        print("speedscope profile written to %s" % args.speedscope,
              file=sys.stderr)

    for failure in failures:
        print("hotspots: %s" % failure, file=sys.stderr)
    return 1 if failures else 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    """Differential fault-injection sweep (see docs/ROBUSTNESS.md).

    Exit status 0 iff no workload reported an atomicity or recovery
    violation; the printed report (and ``--json`` payload) is a pure
    function of the arguments, so CI can diff it byte-for-byte.
    """
    from dataclasses import asdict

    from .faults import (
        chaos_workloads,
        format_report,
        run_chaos,
        store_workloads,
        workload_by_name,
    )

    if args.list:
        for workload in chaos_workloads():
            print("%-16s %s" % (workload.name, workload.description))
        for workload in store_workloads():
            print("%-16s %s [--store-faults]"
                  % (workload.name, workload.description))
        return 0
    if args.plans < 1:
        print("error: --plans must be >= 1", file=sys.stderr)
        return 2
    try:
        workloads = (
            [workload_by_name(name) for name in args.only]
            if args.only
            else None
        )
    except KeyError as exc:
        print("error: %s" % exc.args[0], file=sys.stderr)
        return 2
    if args.store_faults:
        # Opt-in storage-fault family: appended rather than default so
        # existing committed chaos reports stay byte-identical.
        workloads = (
            chaos_workloads() if workloads is None else workloads
        ) + store_workloads()
    reports = run_chaos(
        workloads=workloads,
        plans=args.plans,
        base_seed=args.seed,
        allow_exhaustion=not args.no_exhaustion,
    )
    print(format_report(reports))
    if args.json:
        payload = {
            "plans": args.plans,
            "seed": args.seed,
            "reports": [
                {
                    "workload": report.workload,
                    "commits": report.commits,
                    "aborts": report.aborts,
                    "recoveries": report.recoveries,
                    "violations": len(report.violations),
                    "outcomes": [asdict(o) for o in report.outcomes],
                }
                for report in reports
            ],
        }
        with open(args.json, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print("chaos report written to %s" % args.json, file=sys.stderr)
    return 1 if any(report.violations for report in reports) else 0


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Profiling flags shared by every subcommand (see docs/OBSERVABILITY.md)."""
    parser.add_argument(
        "--profile", action="store_true",
        help="print an engine metrics summary after the command",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the span trace as JSON lines to FILE (overwrites)",
    )
    parser.add_argument(
        "--trace-append", action="store_true",
        help="append to --trace-out instead of overwriting it",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tdlog",
        description="Transaction Datalog: run, solve, classify",
        epilog="'tdlog' is the canonical name; 'repro' is an installed alias.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="sublanguage analysis report")
    p_classify.add_argument("program", help="path to a .td program file")
    p_classify.add_argument("--goal", help="optional goal to include")
    p_classify.set_defaults(fn=_cmd_classify)

    common = dict(help="path to a .td program file")
    p_solve = sub.add_parser("solve", help="enumerate all solutions")
    p_solve.add_argument("program", **common)
    p_solve.add_argument("--goal", required=True, help="goal to execute")
    p_solve.add_argument("--db", help="path to an initial-database facts file")
    p_solve.add_argument("--limit", type=int, default=0, help="stop after N solutions")
    p_solve.add_argument("--max-configs", type=int, default=200_000)
    p_solve.add_argument(
        "--progress", type=float, default=0, metavar="SECONDS",
        help="print a live progress heartbeat (steps, frontier, depth, "
             "solutions, elapsed) to stderr every SECONDS seconds "
             "(default: off)",
    )
    p_solve.add_argument(
        "--store", metavar="SPEC",
        help="storage backend: 'mem' or 'sqlite:PATH' (a bare PATH ending "
             "in .tdlog also works); a fresh durable store is seeded from "
             "--db, an existing one's contents win (see docs/STORAGE.md)",
    )
    p_solve.add_argument(
        "--no-tabling", action="store_true",
        help="disable answer tabling on the small-step engine, which runs "
             "every goal that updates (the naive search is the differential "
             "oracle; see docs/PERFORMANCE.md)",
    )
    p_solve.add_argument(
        "--checkpoint-out", metavar="FILE",
        help="on budget/deadline exhaustion, pickle the resumable "
             "checkpoint to FILE and exit with status 3",
    )
    p_solve.add_argument(
        "--resume-from", metavar="FILE",
        help="resume an interrupted search from a --checkpoint-out FILE "
             "(composes with --store: the durable state recovered on "
             "open, the checkpoint supplies the frontier)",
    )
    p_solve.set_defaults(fn=_cmd_solve)

    p_run = sub.add_parser("run", help="simulate one successful execution")
    p_run.add_argument("program", **common)
    p_run.add_argument("--goal", required=True, help="goal to execute")
    p_run.add_argument("--db", help="path to an initial-database facts file")
    p_run.add_argument("--seed", type=int, help="randomize interleaving choices")
    p_run.add_argument("--max-configs", type=int, default=2_000_000)
    p_run.add_argument(
        "--store", metavar="SPEC",
        help="storage backend: 'mem' or 'sqlite:PATH'; the winning "
             "execution's trace is committed to it under savepoints",
    )
    p_run.set_defaults(fn=_cmd_run)

    p_graph = sub.add_parser(
        "graph", help="explore the configuration graph (verification)"
    )
    p_graph.add_argument("program", **common)
    p_graph.add_argument("--goal", required=True, help="goal to explore")
    p_graph.add_argument("--db", help="path to an initial-database facts file")
    p_graph.add_argument("--max-states", type=int, default=100_000)
    p_graph.add_argument("--dot", help="write a Graphviz .dot file here")
    p_graph.add_argument(
        "--show-stuck", action="store_true",
        help="print the first stuck state and its trace",
    )
    p_graph.set_defaults(fn=_cmd_graph)

    p_explain = sub.add_parser(
        "explain",
        help="proof trees, why-not reports, and the POR pruning audit",
    )
    p_explain.add_argument(
        "program", nargs="?",
        help="path to a .td program file (omit with --audit-por to audit "
             "the committed profile suite)",
    )
    p_explain.add_argument("--goal", help="goal to explain")
    p_explain.add_argument("--db", help="path to an initial-database facts file")
    p_explain.add_argument("--max-configs", type=int, default=200_000)
    p_explain.add_argument(
        "--mode", choices=["auto", "bfs", "dfs"], default="auto",
        help="auto routes by sublanguage; bfs/dfs force the small-step "
             "interpreter's fair search / backtracking scheduler",
    )
    p_explain.add_argument(
        "--why-not", action="store_true",
        help="summarize the failure side instead of the proof tree "
             "(automatic when the goal has no solution)",
    )
    p_explain.add_argument(
        "--audit-por", action="store_true",
        help="re-verify recorded ample-set prunes and replay with "
             "reduction off",
    )
    p_explain.add_argument(
        "--suite", action="append", metavar="CONFIG",
        help="with --audit-por: profile config to audit (repeatable; "
             "'all' or omitted = every config)",
    )
    p_explain.add_argument(
        "--top", type=int, default=5, metavar="K",
        help="blockers and deepest partial derivations to show in "
             "--why-not (default 5)",
    )
    p_explain.add_argument(
        "--dot", metavar="FILE",
        help="write the derivation DAG as Graphviz DOT to FILE",
    )
    p_explain.add_argument(
        "--json", metavar="FILE",
        help="write the provenance log as JSON lines to FILE "
             "(round-trips through the span model)",
    )
    p_explain.set_defaults(fn=_cmd_explain)

    p_bench = sub.add_parser(
        "bench", help="wall-clock timings for the profile-suite workloads"
    )
    p_bench.add_argument(
        "--repeat", type=int, default=5, metavar="N",
        help="runs per config; best and mean are reported (default 5)",
    )
    p_bench.add_argument(
        "--only", action="append", metavar="CONFIG",
        help="restrict to one suite config (repeatable)",
    )
    p_bench.add_argument(
        "--json", metavar="FILE",
        help="also write the timing rows as JSON to FILE",
    )
    p_bench.set_defaults(fn=_cmd_bench)

    p_profile = sub.add_parser(
        "profile", help="counter baselines, regression diffs, cost hotspots"
    )
    profile_sub = p_profile.add_subparsers(dest="profile_command", required=True)

    p_baseline = profile_sub.add_parser(
        "baseline", help="capture counter baselines for the profile suite"
    )
    p_baseline.add_argument(
        "--out", default="benchmarks/baselines", metavar="DIR",
        help="directory for <config>.json baselines (default benchmarks/baselines)",
    )
    p_baseline.add_argument(
        "--only", action="append", metavar="CONFIG",
        help="restrict to one suite config (repeatable)",
    )
    p_baseline.set_defaults(fn=_cmd_profile_baseline)

    p_diff = profile_sub.add_parser(
        "diff", help="re-run the suite and diff counters against baselines"
    )
    p_diff.add_argument(
        "--baseline-dir", default="benchmarks/baselines", metavar="DIR",
        help="directory holding committed baselines",
    )
    p_diff.add_argument(
        "--only", action="append", metavar="CONFIG",
        help="restrict to one suite config (repeatable)",
    )
    p_diff.add_argument(
        "--verbose", action="store_true",
        help="show matching values too, not just drift",
    )
    p_diff.set_defaults(fn=_cmd_profile_diff)

    p_hot = profile_sub.add_parser(
        "hotspots",
        help="attributed cost profile: ranked per-rule/per-predicate "
             "hotspots, flamegraph export",
    )
    p_hot.add_argument(
        "--only", action="append", metavar="CONFIG",
        help="restrict to one suite config (repeatable)",
    )
    p_hot.add_argument(
        "--top", type=int, default=20, metavar="N",
        help="rows per ranking section (default 20)",
    )
    p_hot.add_argument(
        "--json", metavar="FILE",
        help="write per-config and merged attribution as JSON to FILE",
    )
    p_hot.add_argument(
        "--folded", metavar="FILE",
        help="write folded stacks to FILE (feed to flamegraph.pl)",
    )
    p_hot.add_argument(
        "--speedscope", metavar="FILE",
        help="write a speedscope.app profile JSON to FILE",
    )
    p_hot.add_argument(
        "--weight", default="time",
        choices=["time", "unify.attempts", "steps.expansions", "db.delta"],
        help="weight dimension for --folded/--speedscope (default time)",
    )
    p_hot.set_defaults(fn=_cmd_profile_hotspots)

    p_store = sub.add_parser(
        "store", help="inspect and manage durable stores (.tdlog files)"
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)
    p_inspect = store_sub.add_parser(
        "inspect",
        help="print snapshot generation, WAL length, fact counts, "
             "checkpoint linkage, lease holder, and checksum status "
             "for a durable store (read-only; works on damaged files)",
    )
    p_inspect.add_argument("path", help="path to a .tdlog store file")
    p_inspect.add_argument(
        "--json", action="store_true",
        help="emit the raw stats dict as JSON instead of text",
    )
    p_inspect.set_defaults(fn=_cmd_store_inspect)
    p_fsck = store_sub.add_parser(
        "fsck",
        help="verify a durable store's checksums, meta coherence, and "
             "replayability; exit 2 when damage is found",
    )
    p_fsck.add_argument("path", help="path to a .tdlog store file")
    p_fsck.add_argument(
        "--repair", action="store_true",
        help="quarantine a damaged WAL tail into PATH%s and roll the "
             "store back to its last provable state" % ".quarantine",
    )
    p_fsck.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON instead of text",
    )
    p_fsck.set_defaults(fn=_cmd_store_fsck)

    p_chaos = sub.add_parser(
        "chaos",
        help="seeded fault-injection sweep over the chaos workloads",
    )
    p_chaos.add_argument(
        "--plans", type=int, default=50, metavar="N",
        help="fault plans per workload (default 50)",
    )
    p_chaos.add_argument(
        "--seed", type=int, default=0, metavar="S",
        help="base seed; plan i uses seed S+i (default 0)",
    )
    p_chaos.add_argument(
        "--only", action="append", metavar="WORKLOAD",
        help="restrict to one chaos workload (repeatable)",
    )
    p_chaos.add_argument(
        "--no-exhaustion", action="store_true",
        help="generate only window-based faults (no forced budget/deadline)",
    )
    p_chaos.add_argument(
        "--json", metavar="FILE",
        help="also write the full per-plan outcomes as JSON to FILE",
    )
    p_chaos.add_argument(
        "--store-faults", action="store_true",
        help="also run the storage-fault family (crash-point and "
             "byte-corruption fuzzing of the durable store)",
    )
    p_chaos.add_argument(
        "--list", action="store_true", help="list workloads and exit"
    )
    p_chaos.set_defaults(fn=_cmd_chaos)

    for command in (
        p_classify, p_solve, p_run, p_graph, p_explain, p_chaos,
    ):
        _add_obs_flags(command)

    return parser


def _dispatch(args: argparse.Namespace) -> int:
    """Run the selected command, rendering storage errors (bad --store
    spec, missing/corrupt .tdlog file) as a message + exit 2 rather
    than a traceback."""
    from .store import StoreError

    try:
        return args.fn(args)
    except StoreError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if not (getattr(args, "profile", False) or getattr(args, "trace_out", None)):
        return _dispatch(args)

    from .obs import Instrumentation, instrumented, render_report

    inst = Instrumentation.create()
    trace_failed = False
    try:
        with instrumented(inst):
            status = _dispatch(args)
    finally:
        # Report even when the command errors out (e.g. budget exceeded):
        # that is exactly when the counters explain what happened.
        if args.trace_out:
            try:
                inst.tracer.write_jsonl(
                    args.trace_out, append=getattr(args, "trace_append", False)
                )
                print("trace written to %s" % args.trace_out, file=sys.stderr)
            except OSError as exc:
                trace_failed = True
                print(
                    "error: cannot write trace to %s: %s" % (args.trace_out, exc),
                    file=sys.stderr,
                )
        if args.profile:
            print(render_report(inst))
    return 1 if trace_failed else status


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
