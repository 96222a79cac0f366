"""The three benchmark workloads, their seeded inputs and their oracles.

Each workload is one closed loop with one client and no think time.  A
run executes a fixed, seeded sequence of *pairs*: one op (the workload's
transaction) followed by one read (a query-only goal).  The program is
driven through its public API only; every call that enters a layer goes
through ``calls.call(name, layer, fn, ...)``, which is a plain call in an
untraced run and a recorded span in a traced one (see ``tracing.py``).

Every op and read is checked by an oracle that the benchmark computes
itself, without the engines under test: the expected lab history, a
breadth-first search over the generated graph, and a pure-Python ledger
replay.  A check returns ``None`` when the answer is right and a short
message when it is wrong.
"""

from __future__ import annotations

import os
import random
import shutil
from collections import Counter
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from repro import (
    open_store,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.datalog import evaluate
from repro.lims import build_lab_simulator
from repro.store import SqliteStore, fsck
from repro.workflow.monitor import completed_items, history_program, status_report

__all__ = ["WORKLOADS", "LabSimulate", "GraphQuery", "LedgerCommit"]


def _flat_updates(actions) -> int:
    """Inserts plus deletes in an execution trace, ``iso`` bodies included."""
    n = 0
    for action in actions:
        if action.kind in ("ins", "del"):
            n += 1
        elif action.subtrace:
            n += _flat_updates(action.subtrace)
    return n


#: The per-layer time metric an ``engine.solve`` span is charged to, by
#: the backend ``select_engine`` chose (an unknown backend charges none).
SOLVE_LAYER = {
    "SequentialEngine": "seqeval.ms",
    "Interpreter": "bfs.ms",
    "NonrecursiveEngine": "nonrec.ms",
}


def solve_all(calls, engine, goal, db=None):
    """All solutions of *goal*, as one ``engine.solve`` span."""
    layer = SOLVE_LAYER.get(type(engine.backend).__name__, "other.ms")
    return calls.call("engine.solve", layer, lambda: list(engine.solve(goal, db)))


class Workload:
    """Shared shape: inputs are made in ``__init__`` (untimed), ``setup``
    is the program work before the first timed op, ``op``/``read`` make
    the timed calls and return the program's answer, which ``check_op``/
    ``check_read`` judge and ``state`` sizes (all untimed)."""

    name = ""
    #: Pairs per second of ``--seconds`` that size the fixed op sequence.
    #: The sequence never depends on the clock: the same arguments always
    #: run the same ops.
    pairs_per_second = 1.0
    #: Pairs run inside each set-up, before timing starts.  Set-up ``r``
    #: of ``reps`` warms up on its own prefix of inputs, indices
    #: ``warmup(r)``; the timed pairs follow, from ``first_timed``.
    warmup_pairs = 0
    #: Store filesystem, recorded in the run record ("none" without one).
    store_fs = "none"

    def __init__(self, seed: int, pairs: int, calls, workdir: str, reps: int = 1):
        self.seed = seed
        self.pairs = pairs
        self.calls = calls
        self.workdir = workdir
        self.first_timed = reps * self.warmup_pairs
        #: Inputs to generate: every set-up's warm-up prefix, then the timed pairs.
        self.total = self.first_timed + pairs

    def warmup(self, rep: int) -> range:
        return range(rep * self.warmup_pairs, (rep + 1) * self.warmup_pairs)

    def prepare(self) -> None:
        """Untimed work before each set-up (fresh copies of inputs)."""

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Release what ``setup`` opened (untimed)."""

    def finish(self) -> List[str]:
        """Post-run checks; returns failure messages."""
        return []

    def state(self, kind: str, out) -> Tuple[int, int]:
        """(facts in the state the call saw, inserts + deletes it made)."""
        raise NotImplementedError


# -- lab_simulate -------------------------------------------------------------

#: The gel pipeline as the oracle knows it: task -> role (None: automated).
LAB_TASKS = {
    "receive": "clerk",
    "prep_dna": "tech",
    "load_gel": "tech",
    "run_gel": "gel_rig",
    "read_gel": "reader",
    "analyze": None,
}
#: The default lab agent pool: agent -> qualifications.
LAB_AGENTS = {
    "clerk0": {"clerk"},
    "tech0": {"tech"},
    "tech1": {"tech", "reader"},
    "rig0": {"gel_rig"},
    "reader0": {"reader"},
}


class LabSimulate(Workload):
    """One long-lived gel-pipeline simulator; each op simulates a batch
    of fresh samples (DFS with a seeded interleaving), each read queries
    that batch's history through the monitor and the Datalog evaluator."""

    name = "lab_simulate"
    pairs_per_second = 8.5
    warmup_pairs = 3
    batch_size = 4

    def __init__(self, seed, pairs, calls, workdir, reps=1):
        super().__init__(seed, pairs, calls, workdir, reps)
        rng = random.Random(seed)
        self.batches = [
            ["w%d_%d_%d" % (seed, i, k) for k in range(self.batch_size)]
            for i in range(self.total)
        ]
        self.run_seeds = [rng.randrange(1 << 30) for _ in range(self.total)]
        self.results: Dict[int, object] = {}
        self.sim = None

    def setup(self):
        call = self.calls.call
        self.sim = call("build_lab_simulator", "compile.ms", build_lab_simulator, iterate=True)
        self.calls.wrap_interpreter(self.sim)

    def op(self, i):
        result = self.calls.call(
            "WorkflowSimulator.run", "simulate.ms", self.sim.run,
            self.batches[i], seed=self.run_seeds[i],
        )
        self.results[i] = result
        return result

    def read(self, i):
        call = self.calls.call
        result = self.results.pop(i)
        history = result.history
        report = call("status_report", "monitor.ms", status_report, history, result.span_id)
        done = call("completed_items", "monitor.ms", completed_items, history, "analyze")
        derived = call("evaluate", "datalog.ms", evaluate, history_program(), history)
        return history, report, done, derived

    def state(self, kind, out):
        if kind == "op":
            return len(out.history), _flat_updates(out.execution.trace)
        return len(out[0]), 0

    def check_op(self, i, out) -> Optional[str]:
        return lab_history_oracle(self.batches[i], out.history)

    def check_read(self, i, out) -> Optional[str]:
        return lab_read_oracle(self.batches[i], *out)


def _facts(db, pred: str) -> List[Tuple]:
    return [tuple(t.value for t in f.args) for f in db.facts(pred)]


def lab_history_oracle(batch: Sequence[str], history) -> Optional[str]:
    """Every sample ran each pipeline task exactly once, with a qualified
    agent, concluded, and left every agent available again."""
    expected_agents = set(LAB_AGENTS)
    if {a for (a,) in _facts(history, "available")} != expected_agents:
        return "agents not all available again"
    if _facts(history, "workitem"):
        return "work items left unconsumed"
    done = Counter((t, w) for t, w, _a in _facts(history, "done"))
    want = Counter((t, w) for t in LAB_TASKS for w in batch)
    if done != want:
        return "done facts %d, pipeline expects %d" % (sum(done.values()), len(want))
    for task, item, agent in _facts(history, "done"):
        role = LAB_TASKS[task]
        if role is None and agent != "auto" or role is not None and role not in LAB_AGENTS.get(agent, ()):
            return "done(%s, %s, %s) by an unqualified agent" % (task, item, agent)
    if {w for (w,) in _facts(history, "conclusive")} != set(batch):
        return "not every sample concluded"
    if Counter(_facts(history, "started")) != Counter((t, w) for t in LAB_TASKS for w in batch):
        return "started facts do not match the pipeline"
    return None


def lab_read_oracle(batch, history, report, done, derived) -> Optional[str]:
    """The monitor and the Datalog views agree with the raw history."""
    if list(done) != sorted(batch):
        return "completed_items %r, expected %r" % (done, sorted(batch))
    if {w for (w,) in _facts(derived, "touched")} != set(batch):
        return "touched(W) does not cover the batch"
    workers = {a for _t, _w, a in _facts(history, "done")}
    if {a for (a,) in _facts(derived, "idle")} != set(LAB_AGENTS) - workers:
        return "idle(A) disagrees with the history"
    if "  %-20s %d" % ("analyze", len(batch)) not in report.splitlines():
        return "status report does not count %d analyses" % len(batch)
    return None


# -- graph_query --------------------------------------------------------------

GRAPH_QUERY_TD = """
path(X, Y) <- e(X, Y).
path(X, Y) <- e(X, Z) * path(Z, Y).
"""

GRAPH_AUDIT_TD = """
walk(X, X) <- sink(X).
walk(X, Y) <- e(X, Z) * walk(Z, Y).
audit(S) <- node(S) * walk(S, T) *
    ((ins.audited(S, T) * ins.seen(S)) | (ins.stamp(T) * ins.logged(T))).
"""


def graph_edges(rng: random.Random, clusters: int, size: int, extra: int, closure: int):
    """A forest of ``clusters`` random DAGs of ``size`` nodes.  Each is a
    random arborescence from its first node (the root, which so reaches
    every other node) plus ``extra`` forward edges, redrawn until its
    transitive closure has exactly ``closure`` pairs."""
    edges: List[Tuple[int, int]] = []
    for c in range(clusters):
        while True:
            local = {(rng.randrange(j), j) for j in range(1, size)}
            while len(local) < size - 1 + extra:
                a = rng.randrange(size - 1)
                local.add((a, rng.randrange(a + 1, size)))
            if sum(map(len, reach_sets(size, local))) == closure:
                break
        base = c * size
        edges.extend((base + a, base + b) for a, b in local)
    return sorted(edges)


def reach_sets(nodes: int, edges) -> List[FrozenSet[int]]:
    """Nodes reachable from each node by one or more edges (plain BFS)."""
    succ: Dict[int, List[int]] = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    out = []
    for s in range(nodes):
        seen: Set[int] = set()
        frontier = list(succ.get(s, ()))
        while frontier:
            x = frontier.pop()
            if x not in seen:
                seen.add(x)
                frontier.extend(succ.get(x, ()))
        out.append(frozenset(seen))
    return out


class GraphQuery(Workload):
    """A seeded graph database and a stream of goals, each taken through
    ``parse_goal`` -> ``select_engine`` -> ``engine.solve`` with a cold
    engine: reads are query-only ``path(S, X)`` (tabled sequential
    evaluator), ops are the concurrent recursive ``audit(S)`` (BFS
    interpreter with answer tables and partial-order reduction)."""

    name = "graph_query"
    pairs_per_second = 12.0
    warmup_pairs = 6
    #: The cost of a ``path(S, X)`` read grows steeply with the reach set
    #: of S and with the pairs the tabled evaluation derives under it, so
    #: start nodes come from a narrow band: cluster roots, whose reach
    #: set has ``cluster_size - 1`` nodes and whose cluster's closure has
    #: ``closure`` pairs.
    clusters, cluster_size, extra_edges, closure = 24, 5, 2, 8
    #: Every fourth cluster has no sink, so audits from it must fail.
    sinkless_every = 4

    def __init__(self, seed, pairs, calls, workdir, reps=1):
        super().__init__(seed, pairs, calls, workdir, reps)
        rng = random.Random(seed)
        n = self.clusters * self.cluster_size
        edges = graph_edges(
            rng, self.clusters, self.cluster_size, self.extra_edges, self.closure
        )
        self.reach = reach_sets(n, edges)
        out_degree = Counter(a for a, _b in edges)
        self.sinks = {
            x for x in range(n)
            if not out_degree[x] and (x // self.cluster_size) % self.sinkless_every
            != self.sinkless_every - 1
        }
        self.facts_text = " ".join(
            ["e(n%d, n%d)." % e for e in edges]
            + ["node(n%d)." % x for x in range(n)]
            + ["sink(n%d)." % x for x in sorted(self.sinks)]
        )
        starts = [s for s in range(n) if len(self.reach[s]) == self.cluster_size - 1]
        self.op_starts = [rng.choice(starts) for _ in range(self.total)]
        self.read_starts = [rng.choice(starts) for _ in range(self.total)]

    def setup(self):
        call = self.calls.call
        self.query_program = call("parse_program", "parser.ms", parse_program, GRAPH_QUERY_TD)
        self.audit_program = call("parse_program", "parser.ms", parse_program, GRAPH_AUDIT_TD)
        self.db = call("parse_database", "parser.ms", parse_database, self.facts_text)

    def _solve(self, program, text):
        call = self.calls.call
        goal = call("parse_goal", "parser.ms", parse_goal, text)
        engine = call("select_engine", "route.ms", select_engine, program, goal)
        return solve_all(self.calls, engine, goal, self.db)

    def op(self, i):
        return self._solve(self.audit_program, "audit(n%d)" % self.op_starts[i])

    def read(self, i):
        return self._solve(self.query_program, "path(n%d, X)" % self.read_starts[i])

    def state(self, kind, out):
        return len(self.db), sum(len(s.database.difference(self.db)) for s in out)

    def check_op(self, i, out) -> Optional[str]:
        s = self.op_starts[i]
        return audit_oracle(s, self.reach[s], self.sinks, self.db, out)

    def check_read(self, i, out) -> Optional[str]:
        return path_oracle(self.reach[self.read_starts[i]], out)


def _values(facts) -> Set[Tuple]:
    """Facts as plain ``(pred, arg values...)`` tuples for the oracles."""
    return {(f.pred,) + tuple(t.value for t in f.args) for f in facts}


def path_oracle(reach: FrozenSet[int], solutions) -> Optional[str]:
    """``path(S, X)`` answers are exactly the BFS reach set of S."""
    got = [t.value for sol in solutions for t in sol.bindings.values()]
    want = {"n%d" % x for x in reach}
    if len(got) != len(want) or set(got) != want:
        return "path answers %s, BFS reach set %s" % (sorted(got), sorted(want))
    return None


def audit_oracle(s: int, reach, sinks, db, solutions) -> Optional[str]:
    """``audit(S)`` commits once per sink T reachable from S (S itself
    included), each time inserting exactly the four stamps for (S, T)."""
    src = "n%d" % s
    want = {
        frozenset({
            ("audited", src, "n%d" % t), ("seen", src),
            ("stamp", "n%d" % t), ("logged", "n%d" % t),
        })
        for t in (reach | {s}) & sinks
    }
    if any(db.difference(sol.database) for sol in solutions):
        return "audit(%s) deleted facts" % src
    got = [frozenset(_values(sol.database.difference(db))) for sol in solutions]
    if len(got) != len(want) or set(got) != want:
        return "audit(%s): %d solutions, oracle expects %d" % (src, len(got), len(want))
    return None


# -- ledger_commit ------------------------------------------------------------

LEDGER_TD = """
transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
withdraw(Acct, Amt) <-
    balance(Acct, Bal) * Bal >= Amt *
    del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
deposit(Acct, Amt) <-
    balance(Acct, Bal) *
    del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""

Leg = Tuple[str, str, int]


class Ledger:
    """The pure-Python oracle: balances and the transfer rule."""

    def __init__(self, balances: Dict[str, int]):
        self.balances = dict(balances)

    def apply(self, legs: Sequence[Leg]) -> bool:
        """Apply a transaction atomically; False (and no change) when a
        leg would overdraw its payer at that point of the sequence."""
        trial = dict(self.balances)
        for payer, payee, amount in legs:
            if trial[payer] < amount:
                return False
            trial[payer] -= amount
            trial[payee] += amount
        self.balances = trial
        return True


def ledger_goal(legs: Sequence[Leg]) -> str:
    text = " * ".join("transfer(%s, %s, %d)" % leg for leg in legs)
    return text if len(legs) == 1 else "iso(%s)" % text


def ledger_ops(
    rng: random.Random, ledger: Ledger, count: int,
    refuse_share: float, multi_share: float,
) -> List[Tuple[Leg, ...]]:
    """A seeded stream of single and nested two-transfer transactions,
    applied to *ledger* as generated.  About ``refuse_share`` of them get
    one leg that overdraws its payer, so the whole transaction must be
    refused; ``multi_share`` of them have two legs."""
    accounts = sorted(ledger.balances)
    ops: List[Tuple[Leg, ...]] = []
    for _ in range(count):
        n_legs = 2 if rng.random() < multi_share else 1
        bad_leg = rng.randrange(n_legs) if rng.random() < refuse_share else -1
        trial = Ledger(ledger.balances)
        legs = []
        for k in range(n_legs):
            payer, payee = rng.sample(accounts, 2)
            balance = trial.balances[payer]
            if k == bad_leg:
                amount = balance + 1 + rng.randrange(50)
            else:
                amount = 1 + rng.randrange(max(1, min(100, balance)))
                trial.apply([(payer, payee, amount)])
            legs.append((payer, payee, amount))
        ledger.apply(legs)
        ops.append(tuple(legs))
    return ops


def _filesystem(path: str) -> str:
    """Filesystem type of the mount holding *path* (from /proc/self/mounts)."""
    path = os.path.realpath(path)
    best, kind = "", "unknown"
    try:
        with open("/proc/self/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) > 2 and path.startswith(fields[1]) and len(fields[1]) > len(best):
                    best, kind = fields[1], fields[2]
    except OSError:
        pass
    return kind


class LedgerCommit(Workload):
    """A durable SQLite store of ``balance`` facts, reopened at set-up.
    Each op commits one (possibly nested) transfer transaction through
    ``Engine.simulate`` with ``store=``; each read is a ``balance(A, B)``
    point query through the same engine."""

    name = "ledger_commit"
    pairs_per_second = 55.0
    warmup_pairs = 16
    accounts = 2000
    #: Single transfers applied to the base store after its last
    #: snapshot, so every set-up replays a WAL tail (4 rows each, below
    #: the 256-row fold threshold).
    tail_transfers = 40
    #: Shares of refused and of two-transfer transactions: refusals
    #: (cheapest), singles and pairs sit in separate latency bands, and
    #: these shares put the op p50 inside the singles' band and the p90
    #: inside the pairs' band, away from the band edges.
    refuse_share = 0.15
    multi_share = 0.3

    def __init__(self, seed, pairs, calls, workdir, reps=1):
        super().__init__(seed, pairs, calls, workdir, reps)
        rng = random.Random(seed)
        start = {"a%04d" % i: 500 + rng.randrange(1000) for i in range(self.accounts)}
        self.store_fs = _filesystem(workdir)
        self.base_path = os.path.join(workdir, "base.tdlog")
        self.path = os.path.join(workdir, "ledger.tdlog")
        generation = Ledger(start)
        tail = ledger_ops(rng, generation, self.tail_transfers, 0.0, 0.0)
        self._build_base(start, tail)
        self.initial = dict(generation.balances)
        # Every set-up starts from the same store, so each warm-up prefix
        # is generated from the initial balances; the timed ops continue
        # from where the last set-up's warm-up leaves them.
        self.ops = []
        for _rep in range(reps):
            generation = Ledger(self.initial)
            self.ops += ledger_ops(
                rng, generation, self.warmup_pairs, self.refuse_share, self.multi_share
            )
        self.ops += ledger_ops(rng, generation, pairs, self.refuse_share, self.multi_share)
        self.oracle = Ledger(self.initial)
        self.store = None

    def _build_base(self, start, tail):
        """Input generation: a snapshot of every account plus a WAL tail."""
        from repro.core.terms import atom

        store = SqliteStore(self.base_path)
        try:
            sp = store.savepoint()
            for acct, bal in start.items():
                store.insert(atom("balance", acct, bal))
            store.release(sp)
            store.checkpoint()
            balances = dict(start)
            for legs in tail:
                sp = store.savepoint()
                for payer, payee, amount in legs:
                    for acct, delta in ((payer, -amount), (payee, amount)):
                        store.delete(atom("balance", acct, balances[acct]))
                        balances[acct] += delta
                        store.insert(atom("balance", acct, balances[acct]))
                store.release(sp)
        finally:
            store.close()

    def prepare(self):
        shutil.copyfile(self.base_path, self.path)
        self.oracle = Ledger(self.initial)

    def setup(self):
        call = self.calls.call
        store = call("open_store", "store.open_ms", open_store, "sqlite:" + self.path)
        self.store = store
        program = call("parse_program", "parser.ms", parse_program, LEDGER_TD)
        self.engine = call(
            "select_engine", "route.ms", select_engine, program,
            store=self.calls.store(store),
        )

    def teardown(self):
        if self.store is not None:
            self.store.close()
            self.store = None

    def op(self, i):
        call = self.calls.call
        goal = call("parse_goal", "parser.ms", parse_goal, ledger_goal(self.ops[i]))
        return call("engine.simulate", "dfs.ms", self.engine.simulate, goal)

    def read(self, i):
        call = self.calls.call
        goal = call("parse_goal", "parser.ms", parse_goal, "balance(%s, B)" % self.ops[i][0][0])
        return solve_all(self.calls, self.engine, goal)

    def state(self, kind, out):
        updates = _flat_updates(out.trace) if kind == "op" and out is not None else 0
        return len(self.store.database()), updates

    def check_op(self, i, out) -> Optional[str]:
        committed = self.oracle.apply(self.ops[i])
        if committed != (out is not None):
            return "%s: %s, oracle says %s" % (
                ledger_goal(self.ops[i]),
                "committed" if out is not None else "refused",
                "commit" if committed else "refuse",
            )
        return None

    def check_read(self, i, out) -> Optional[str]:
        acct = self.ops[i][0][0]
        return balance_oracle(acct, self.oracle.balances[acct], out)

    def finish(self) -> List[str]:
        """Durability: reopen the store after the run; every acknowledged
        commit must survive, and fsck must find the file clean."""
        self.teardown()
        failures = []
        store = open_store("sqlite:" + self.path)
        try:
            got = {str(f.args[0]): f.args[1].value for f in store.database().facts("balance")}
        finally:
            store.close()
        if got != self.oracle.balances:
            wrong = sum(1 for a in self.oracle.balances if got.get(a) != self.oracle.balances[a])
            failures.append("reopened store: %d balances differ from the oracle" % wrong)
        report = fsck(self.path)
        if not report.ok:
            failures.append("fsck found problems in the reopened store")
        return failures


def balance_oracle(acct: str, want: int, answers) -> Optional[str]:
    """A point read returns exactly the oracle's balance."""
    values = [t.value for sol in answers for t in sol.bindings.values()]
    if values != [want]:
        return "balance(%s, B) gave %r, oracle %d" % (acct, values, want)
    return None


WORKLOADS = {cls.name: cls for cls in (LabSimulate, GraphQuery, LedgerCommit)}
