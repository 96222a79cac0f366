"""One workload run in a fresh process; ``run.py`` starts it.

Usage: python3 perfbench/worker.py --workload NAME --seed N --pairs P
           --traced 0|1 --workdir DIR --out FILE [--spans FILE]

The process must start with ``PYTHONHASHSEED`` set and ``src`` on
``PYTHONPATH`` (``run.py`` does both).  It sets the workload up
``SETUP_REPS`` times (each set-up includes its own warm-up prefix of
pairs), runs the fixed sequence of ``P`` timed pairs on the last
set-up, checks every op and read with the workload's oracle, and writes
a JSON result to FILE.  A traced run also writes its spans, one JSON object a line.
``--break-op K`` makes the ``K``-th timed op raise; ``run.py
--selfcheck`` uses it to check that a failed op is counted and reported.

Timings are reported at a reference machine speed.  On a shared host the
speed of the same Python code swings by a third or more, in spells from
tens of milliseconds to tens of seconds, which no run length averages
away.  So the worker times :func:`probe`, a fixed pure-Python loop,
before the first timed call and after every timed call, and scales each
call's latency by ``PROBE_REF_MS / t``, where ``t`` is the mean of the
probe times just before and just after that call.  The raw wall-clock
metrics, every latency and every probe time are kept in the result
beside the reported ones.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from contextlib import contextmanager

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracing import DirectCalls, SpanRecorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPS = 7
#: Failure messages kept in a result (all failures are counted).
MAX_MESSAGES = 20
#: Probe time (ms) that timings are scaled to: about the probe's median
#: time on the 2-vCPU 2.1 GHz Xeon host the bounds were measured on, so
#: the figures read close to wall time there.
PROBE_REF_MS = 0.6

# Integer keys: their hashes, unlike those of strings, do not depend on
# PYTHONHASHSEED, so the probe's dict layout is the same in every run.
_PROBE_KEYS = [(i % 97, i % 13, i) for i in range(2000)]
_PROBE_TABLE = {key: i for i, key in enumerate(_PROBE_KEYS)}
_PROBE_ORDER = list(range(2000))[::-1]


class _Cell:
    __slots__ = ("value",)

    def __init__(self):
        self.value = 0


def _bump(cell: _Cell, n: int) -> None:
    cell.value += n & 7


def probe() -> int:
    """Fixed pure-Python work: dict lookups on tuple keys, type checks,
    calls, slot updates and a sort -- the interpreter paths the engines
    use -- over data built once at import.  It allocates almost nothing,
    so its time depends on the machine's speed, not on the size of the
    program's heap."""
    table, cell, acc = _PROBE_TABLE, _Cell(), 0
    for key in _PROBE_KEYS:
        value = table[key]
        if isinstance(key[0], int) and key[1] != 5:
            acc += value & 15
        _bump(cell, value)
    return acc + cell.value + sorted(_PROBE_ORDER)[-1]


def speed_factor(before: float, after: float) -> float:
    """Scale for a call bracketed by probes of *before* and *after* ms."""
    return 2.0 * PROBE_REF_MS / (before + after)


@contextmanager
def collector_off():
    """Run benchmark-side work with the cyclic collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def time_probe() -> float:
    """Time one probe (ms) after an untimed one, with the collector off,
    so neither cold caches nor a collection land in the timing."""
    with collector_off():
        probe()
        start = time.perf_counter()
        probe()
        return (time.perf_counter() - start) * 1000.0


def percentile(values, q: int) -> float:
    """The q-th percentile (inclusive method) of *values*."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def e2e_metrics(latencies, slots_s, setup_s, peak_rss_mb) -> dict:
    """End-to-end metrics from per-class latencies (ms) of the calls that
    passed and the program's share of the timed phase (``slots_s``, one
    entry per call); empty unless each class has enough samples for ten
    to lie beyond its p90."""
    if any(len(v) < 100 for v in latencies.values()):
        return {}
    return {
        "setup_s": statistics.median(setup_s),
        "ops_per_s": sum(map(len, latencies.values())) / sum(slots_s),
        "op_ms_p50": statistics.median(latencies["op"]),
        "op_ms_p90": percentile(latencies["op"], 90),
        "read_ms_p50": statistics.median(latencies["read"]),
        "read_ms_p90": percentile(latencies["read"], 90),
        "peak_rss_mb": peak_rss_mb,
    }


class Runner:
    def __init__(self, workload, calls):
        self.wl = workload
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.messages = []
        #: Seconds the last ``step`` spent checking (benchmark-side work).
        self.check_s = 0.0

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.messages) < MAX_MESSAGES:
            self.messages.append(what)

    def step(self, kind: str, i: int, op_id: str):
        """Run and check op or read *i*; returns its latency in seconds,
        or None when it failed."""
        self.attempted += 1
        self.check_s = 0.0
        run = self.wl.op if kind == "op" else self.wl.read
        check = self.wl.check_op if kind == "op" else self.wl.check_read
        try:
            with self.calls.operation(op_id, kind):
                start = time.perf_counter()
                out = run(i)
                elapsed = time.perf_counter() - start
        except Exception:
            self.fail("%s %d raised: %s" % (kind, i, traceback.format_exc(limit=3)))
            return None
        start = time.perf_counter()
        with collector_off():
            self.calls.note_state(op_id, self.wl, kind, out)
            problem = check(i, out)
        self.check_s = time.perf_counter() - start
        if problem is not None:
            self.fail("%s %d: %s" % (kind, i, problem))
            return None
        return elapsed


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--traced", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--break-op", type=int)
    args = ap.parse_args(argv)

    calls = SpanRecorder() if args.traced else DirectCalls()
    wl = WORKLOADS[args.workload](args.seed, args.pairs, calls, args.workdir, SETUP_REPS)
    if args.break_op is not None:
        wl.op = _broken(wl.op, wl.first_timed + args.break_op)
    runner = Runner(wl, calls)

    setup_s, setup_raw_s = [], []
    for rep in range(SETUP_REPS):
        wl.teardown()
        wl.prepare()
        gc.collect()
        probes = [time_probe()]
        start = time.perf_counter()
        with calls.operation("setup:%d" % rep, "setup"):
            wl.setup()
        pieces = [time.perf_counter() - start]
        probes.append(time_probe())
        for i in wl.warmup(rep):
            for kind in ("op", "read"):
                pieces.append(runner.step(kind, i, "warm%d:%s:%d" % (rep, kind, i)) or 0.0)
                probes.append(time_probe())
        factors = [speed_factor(probes[k], probes[k + 1]) for k in range(len(pieces))]
        setup_raw_s.append(sum(pieces))
        setup_s.append(sum(t * f for t, f in zip(pieces, factors)))
        calls.factors["setup:%d" % rep] = factors[0]

    gc.collect()
    raw = {"op": [], "read": []}  # (call index, ms) of the calls that passed
    probes = [time_probe()]  # probes[k] and probes[k + 1] bracket call k
    # slots[k]: wall time from the end of probe k to the start of probe
    # k + 1, less the check of call k.  Together they are the timed phase
    # less the benchmark's own probe and oracle time.
    slots = []
    timed_ops = []
    mark = time.perf_counter()
    for i in range(wl.first_timed, wl.total):
        for kind in ("op", "read"):
            op_id = "%s:%d" % (kind, i)
            elapsed = runner.step(kind, i, op_id)
            if elapsed is not None:
                raw[kind].append((len(timed_ops), elapsed * 1000.0))
            timed_ops.append(op_id)
            slots.append(time.perf_counter() - mark - runner.check_s)
            probes.append(time_probe())
            mark = time.perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runner.attempted += 1  # the post-run check counts as one operation
    try:
        for problem in wl.finish():
            runner.fail("post-run: " + problem)
    except Exception:
        runner.fail("post-run check raised: %s" % traceback.format_exc(limit=3))

    factors = [speed_factor(probes[k], probes[k + 1]) for k in range(len(timed_ops))]
    calls.factors.update(zip(timed_ops, factors))
    scaled = {k: [ms * factors[j] for j, ms in v] for k, v in raw.items()}
    unscaled = {k: [ms for _j, ms in v] for k, v in raw.items()}
    scaled_slots = [t * f for t, f in zip(slots, factors)]
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "traced": bool(args.traced),
        "pairs": args.pairs,
        "warmup_pairs": wl.warmup_pairs,
        "setup_reps": SETUP_REPS,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "failures": runner.messages,
        "counts": {k: len(v) for k, v in raw.items()},
        "store_fs": wl.store_fs,
        "probe_ms": {"median": statistics.median(probes), "ref": PROBE_REF_MS},
        "setup_samples_s": setup_s,
        "samples_ms": dict(unscaled, probe=probes),
        "metrics": e2e_metrics(scaled, scaled_slots, setup_s, peak_rss_mb),
        "raw_metrics": e2e_metrics(unscaled, slots, setup_raw_s, peak_rss_mb),
    }
    if args.traced:
        result["work_digest"] = calls.work_digest()
        result["per_layer"] = calls.per_layer(timed_ops)
        if args.spans:
            calls.write_spans(args.spans)
    with open(args.out, "w") as fh:
        json.dump(result, fh)
    return 0


def _broken(op, index: int):
    """*op*, except that call *index* raises."""

    def run(i):
        if i == index:
            raise RuntimeError("op %d broken on purpose (--break-op)" % i)
        return op(i)

    return run


if __name__ == "__main__":
    sys.exit(main())
