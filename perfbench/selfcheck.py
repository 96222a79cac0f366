"""``run.py --selfcheck``: the benchmark's checks on itself.

1. Every oracle accepts the program's real answer and flags a
   deliberately corrupted one (a dropped fact, a dropped answer, a
   flipped commit, an off-by-one balance, a lost durable commit).
2. A worker whose first timed op raises (``--break-op``) counts exactly
   that one failure, and its result line says ``"correct": false``.
3. Two traced runs of each workload with the same seed report identical
   per-op work counters (``work_digest``), each in a fresh process with
   the hash seed derived from the workload seed, and report every
   per-layer metric that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import itertools
import os
import shutil
import time

from repro import Constant, Solution, Variable
from tracing import DirectCalls
from workloads import (
    WORKLOADS,
    audit_oracle,
    balance_oracle,
    lab_history_oracle,
    lab_read_oracle,
    path_oracle,
)

#: Timed pairs in each determinism run (small: only counters matter).
DETERMINISM_PAIRS = 12


def _first_pair(workload, workdir):
    wl = WORKLOADS[workload](7, 2, DirectCalls(), workdir)
    wl.prepare()
    wl.setup()
    op = wl.op(0)
    return wl, op, wl.read(0)


def _lab(workdir):
    wl, result, read = _first_pair("lab_simulate", workdir)
    batch = wl.batches[0]
    history = result.history
    analyzed = next(f for f in history.facts("done") if f.args[0].value == "analyze")
    history_, report, done, derived = read
    yield "lab op accepted", lab_history_oracle(batch, history) is None
    yield "lab op: dropped done(analyze) flagged", \
        lab_history_oracle(batch, history.delete(analyzed)) is not None
    yield "lab read accepted", lab_read_oracle(batch, *read) is None
    yield "lab read: dropped completed item flagged", \
        lab_read_oracle(batch, history_, report, done[1:], derived) is not None


def _graph(workdir):
    wl, solutions, answers = _first_pair("graph_query", workdir)
    s, r = wl.op_starts[0], wl.read_starts[0]
    yield "graph read accepted", path_oracle(wl.reach[r], answers) is None
    yield "graph read: dropped answer flagged", path_oracle(wl.reach[r], answers[1:]) is not None
    yield "graph op accepted", audit_oracle(s, wl.reach[s], wl.sinks, wl.db, solutions) is None
    # A sink reachable from the start node, so audit(S) commits and has stamps.
    s = next(x for x in range(len(wl.reach)) if (wl.reach[x] | {x}) & wl.sinks and wl.reach[x])
    solutions = wl._solve(wl.audit_program, "audit(n%d)" % s)
    first = solutions[0]
    stamp = next(iter(first.database.difference(wl.db)))
    broken = [Solution(first.bindings, first.database.delete(stamp))] + solutions[1:]
    yield "graph op: dropped stamp flagged", \
        audit_oracle(s, wl.reach[s], wl.sinks, wl.db, broken) is not None
    yield "graph op: lost solution flagged", \
        audit_oracle(s, wl.reach[s], wl.sinks, wl.db, solutions[1:]) is not None


def _ledger(workdir):
    wl, execution, answers = _first_pair("ledger_commit", workdir)
    try:
        before = dict(wl.oracle.balances)
        flipped = object() if execution is None else None
        yield "ledger op: flipped outcome flagged", wl.check_op(0, flipped) is not None
        wl.oracle.balances = before
        yield "ledger op accepted", wl.check_op(0, execution) is None
        acct = wl.ops[0][0][0]
        want = wl.oracle.balances[acct]
        yield "ledger read accepted", balance_oracle(acct, want, answers) is None
        off = [Solution({Variable("B"): Constant(want + 1)}, answers[0].database)]
        yield "ledger read: off-by-one balance flagged", balance_oracle(acct, want, off) is not None
        yield "ledger durability accepted", not wl.finish()
        wl.oracle.balances[acct] += 1
        yield "ledger durability: lost commit flagged", bool(wl.finish())
    finally:
        wl.teardown()


def oracle_checks(root: str):
    for name, check in (("lab", _lab), ("graph", _graph), ("ledger", _ledger)):
        workdir = os.path.join(root, name)
        os.makedirs(workdir, exist_ok=True)
        try:
            yield from check(workdir)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)


def failure_check(seed: int):
    """A broken op goes through ``Runner.step`` and is reported."""
    from run import load_spec, result_line, run_worker

    name = "graph_query"
    result = run_worker(name, seed, DETERMINISM_PAIRS, False, time.monotonic() + 170.0, break_op=0)
    line = result_line([result], result["metrics"], load_spec()["end_to_end"])
    yield "broken op counted as one failure", \
        result["failed"] == 1 and "broken on purpose" in result["failures"][0]
    yield "broken op reported in the result line", \
        line["correct"] is False and line["failed"] == 1 \
        and line["attempted"] == result["attempted"] > 1


def determinism_checks(workload, seed: int):
    from run import load_spec, run_worker

    names = set(load_spec()["per_layer"]) - {"trace.overhead_pct"}
    for name in [workload] if workload else sorted(WORKLOADS):
        deadline = time.monotonic() + 170.0
        results = [run_worker(name, seed, DETERMINISM_PAIRS, True, deadline) for _ in range(2)]
        digests = [r["work_digest"] for r in results]
        yield "%s: identical per-op work counters" % name, digests[0] == digests[1]
        yield "%s: every per-layer metric reported" % name, \
            names <= set(results[0]["per_layer"])


def selfcheck(workload=None, seed: int = 1) -> int:
    from run import OUT_DIR

    ok = True
    root = os.path.abspath(os.path.join(OUT_DIR, "work", "selfcheck-%d" % os.getpid()))
    checks = (oracle_checks(root), failure_check(seed), determinism_checks(workload, seed))
    for label, passed in itertools.chain(*checks):
        ok &= passed
        print("%-48s %s" % (label, "ok" if passed else "FAILED"))
    shutil.rmtree(root, ignore_errors=True)
    return 0 if ok else 1
