"""The repository benchmark: three closed-loop Transaction Datalog workloads.

Run from the repository root::

    python3 perfbench/run.py --workload lab_simulate --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selfcheck

Workloads (one client, one thread, no think time; see ``workloads.py``):

``lab_simulate``
    Gel-pipeline batches simulated by one long-lived workflow simulator
    (small-step DFS), each followed by a monitor/Datalog status read.
``graph_query``
    ``audit(S)`` ops (BFS interpreter with answer tables and POR) and
    ``path(S, X)`` reads (tabled sequential evaluator) over a seeded
    graph, each goal parsed, routed and solved with a cold engine.
``ledger_commit``
    Durable (nested) transfer transactions committed to a SQLite store
    through ``Engine.simulate``, each followed by a balance point read.

Each run executes a fixed, seeded sequence of op/read pairs whose length
is ``--seconds`` times the workload's nominal pair rate (never a clock
cutoff), in a fresh worker process whose ``PYTHONHASHSEED`` is derived
from the workload seed.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs the same seed untraced and then traced and prints the
per-layer metrics, including ``trace.overhead_pct`` (traced vs untraced
``ops_per_s``).  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Each run also writes a record (machine fingerprint, seeds, op counts,
failures, the store's filesystem, every metric with the end-to-end
metric and workload it should move) to ``.perfbench/records/``, and a
traced run writes its spans to ``.perfbench/spans/``.  The ledger store
lives in a scratch directory under ``.perfbench/`` (the benchmark reads
and writes only inside the checkout), with the program's
``synchronous=FULL``.

A run in which any operation fails still prints its result line, with
``"correct": false``, the failures counted in ``failed`` and the
metrics its passing calls allow; the failure messages go to standard
error.  The names, units and directions of the metrics come from
``BENCHMARK.json``.

``--selfcheck`` checks that every oracle flags a corrupted answer, that
an op made to fail is counted and reported, and that two traced runs
with the same seed report identical per-op work counters; it exits 1 if
any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import zlib

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

#: A run must end within this many seconds (children included).
RUN_BUDGET_S = 170.0
OUT_DIR = ".perfbench"

#: Fewest timed pairs in a run, so each p90 has at least ten samples beyond it.
MIN_PAIRS = 110


def load_spec() -> dict:
    """The metrics of ``BENCHMARK.json`` by kind and name: the one source
    of their names, units and directions."""
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    return {kind: {m["name"]: m for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def hash_seed(workload: str, seed: int) -> int:
    """The ``PYTHONHASHSEED`` of a workload process, derived from its seed."""
    return zlib.crc32(("%s:%d" % (workload, seed)).encode())


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
    }


def run_worker(workload: str, seed: int, pairs: int, traced: bool, deadline: float,
               spans: str = None, break_op: int = None) -> dict:
    """Run one workload process to completion and return its result."""
    workdir = os.path.abspath(os.path.join(
        OUT_DIR, "work", "%s-%d-%d-%d" % (workload, seed, int(traced), os.getpid())))
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    out = os.path.join(workdir, "result.json")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = str(hash_seed(workload, seed))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--pairs", str(pairs), "--traced", str(int(traced)),
           "--workdir", workdir, "--out", out]
    if spans:
        cmd += ["--spans", os.path.abspath(spans)]
    if break_op is not None:
        cmd += ["--break-op", str(break_op)]
    try:
        proc = subprocess.run(cmd, env=env, timeout=max(1.0, deadline - time.monotonic()),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            raise RuntimeError("%s worker exited %d:\n%s" % (workload, proc.returncode,
                                                             proc.stderr[-4000:]))
        with open(out) as fh:
            return json.load(fh)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def result_line(runs, values: dict, wanted: dict) -> dict:
    """The result line of a run made of worker *runs*: the *wanted*
    metrics that *values* has, and ``correct`` only when no operation
    failed.  A clean run must have every wanted metric."""
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    missing = [name for name in wanted if name not in values]
    if missing and not failed:
        raise RuntimeError("metrics missing from a clean run: %s" % ", ".join(missing))
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": wanted[name]["unit"]}
                    for name in wanted if name in values},
    }


def report_failures(runs) -> None:
    for r in runs:
        if r["failed"]:
            sys.stderr.write("perfbench: %s seed %d: %d of %d operations failed:\n%s\n" % (
                r["workload"], r["seed"], r["failed"], r["attempted"],
                "\n".join(r["failures"])))


def write_record(name: str, record: dict) -> None:
    path = os.path.join(OUT_DIR, "records", name + ".json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """One benchmark run; returns the result line as a dict."""
    from tracing import describe_per_layer
    from workloads import WORKLOADS

    spec = load_spec()
    deadline = time.monotonic() + RUN_BUDGET_S
    pairs = max(MIN_PAIRS, round(seconds * WORKLOADS[workload].pairs_per_second))
    untraced = run_worker(workload, seed, pairs, False, deadline)
    runs = [untraced]
    record = {
        "fingerprint": fingerprint(),
        "workload": workload, "seed": seed, "hash_seed": hash_seed(workload, seed),
        "seconds": seconds, "pairs": pairs, "trace": trace,
        "store_fs": untraced["store_fs"],
    }
    values = {} if trace else untraced["metrics"]
    if trace and not untraced["failed"]:
        spans = os.path.join(OUT_DIR, "spans", "%s-seed%d.jsonl" % (workload, seed))
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        traced = run_worker(workload, seed, pairs, True, deadline, spans)
        runs.append(traced)
        values = dict(traced["per_layer"])
        if traced["metrics"]:
            values["trace.overhead_pct"] = 100.0 * (
                untraced["metrics"]["ops_per_s"] / traced["metrics"]["ops_per_s"] - 1.0)
        record["work_digest"] = traced["work_digest"]
        record["spans"] = spans
        record["per_layer"] = describe_per_layer(
            {name: values[name] for name in spec["per_layer"] if name in values},
            spec["per_layer"])
    report_failures(runs)
    record["runs"] = runs
    record["end_to_end"] = untraced["metrics"]
    result = result_line(runs, values, spec["per_layer" if trace else "end_to_end"])
    record["result"] = result
    write_record("%s-seed%d-trace%d" % (workload, seed, int(trace)), record)
    return result


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selfcheck", action="store_true")
    args = ap.parse_args(argv)
    if args.selfcheck:
        from selfcheck import selfcheck

        return selfcheck(args.workload, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


def _check_checkout() -> None:
    """The benchmark builds nothing: it runs the package under ``src``."""
    if not os.path.isfile(os.path.join("src", "repro", "__init__.py")):
        sys.stderr.write("perfbench: run from the repository root (no src/repro here)\n")
        sys.exit(2)


if __name__ == "__main__":
    _check_checkout()
    sys.path.insert(0, os.path.abspath("src"))
    sys.exit(main())
