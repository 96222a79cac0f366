"""Experiment E0 (context): the storage layer under a LabFlow-1-style mix.

The paper's motivation is data-intensive workflow: at the genome center
"database performance became a bottleneck in workflow throughput", and
the authors built the LabFlow-1 benchmark [26] to stress storage
managers with the lab's operation mix -- append experimental results,
look up the latest state of a sample, scan histories.  This benchmark
applies the same mix to our immutable-state storage layer, which every
engine sits on; it contextualizes the absolute numbers of the other
benchmarks.
"""

import pytest

from repro import Database, atom
from repro.complexity import estimate_growth, measure, print_series
from repro.core.terms import Atom, Variable
from repro.lims import synthetic_history

W = Variable("W")
A = Variable("A")


def test_append_only_growth(benchmark):
    """Appending results one state at a time (the insert-only regime).

    The growth verdict is on counted work, not on seconds: each insert
    copies the ``result`` group of the state it extends, so the cost of
    a run is the sum of those group sizes.  The seconds are printed as
    context.
    """
    rows = []
    sizes = []
    copied = []
    for n in (500, 1000, 2000, 4000):
        facts = [atom("result", "s%05d" % i, i % 97) for i in range(n)]

        def append_all():
            db = Database()
            group_sizes = 0
            for fact in facts:
                group_sizes += len(db.facts("result"))
                db = db.insert(fact)
            return db, group_sizes

        (db, group_sizes), seconds = measure(append_all)
        assert len(db) == n
        rows.append([n, group_sizes, seconds, seconds / n * 1e6])
        sizes.append(n)
        copied.append(group_sizes)
    print_series(
        "E0: append-only inserts (immutable states)",
        ["facts", "facts copied", "seconds", "us/insert"],
        rows,
    )
    assert estimate_growth(sizes, copied) == "polynomial"

    facts = [atom("result", "s%05d" % i, i) for i in range(1000)]
    def append_1000():
        db = Database()
        for fact in facts:
            db = db.insert(fact)
    benchmark.pedantic(append_1000, rounds=3, iterations=1)


def test_point_lookup_mix(benchmark):
    """The LabFlow 'latest state of a sample' lookups over histories."""
    rows = []
    for n in (100, 400, 1600):
        history = synthetic_history(n, seed=n)
        samples = ["dna%04d" % i for i in range(0, n, max(1, n // 50))]

        def lookups():
            hits = 0
            for s in samples:
                pattern = Atom("done", (atom("q", "analyze").args[0], atom("q", s).args[0], A))
                hits += sum(1 for _ in history.match(pattern))
            return hits

        hits, seconds = measure(lookups)
        assert hits == len(samples)
        rows.append([n, len(samples), seconds])
    print_series(
        "E0: point lookups over histories",
        ["samples", "queries", "seconds"],
        rows,
    )
    history = synthetic_history(400, seed=1)
    pattern = Atom("done", (atom("q", "analyze").args[0], atom("q", "dna0007").args[0], A))
    benchmark.pedantic(lambda: list(history.match(pattern)), rounds=10, iterations=10)


def test_history_scan_mix(benchmark):
    """Full-history scans (the analysis-program access pattern)."""
    rows = []
    for n in (100, 400, 1600):
        history = synthetic_history(n, seed=n)

        def scan():
            per_agent = {}
            for fact in history.facts("done"):
                per_agent[str(fact.args[2])] = per_agent.get(str(fact.args[2]), 0) + 1
            return per_agent

        per_agent, seconds = measure(scan)
        assert per_agent["auto"] == n
        rows.append([n, len(history), seconds])
    print_series(
        "E0: full-history scans",
        ["samples", "|history|", "seconds"],
        rows,
    )
    history = synthetic_history(400, seed=2)
    benchmark.pedantic(lambda: len(list(history.facts("done"))), rounds=10, iterations=10)
