"""A search reports to the observers active at its first pull.

The metrics, the derivation recorder and the cost attributor share one
slot, and every engine entry captures all three together.  A search
whose first answer is pulled inside the observer blocks and whose rest
is drained outside them must therefore report exactly what the same
search reports when drained inside the blocks -- and a search started
with nothing active must report nothing, wherever it is drained.
"""

from contextlib import nullcontext

from repro import (
    Interpreter,
    parse_database,
    parse_program,
    select_engine,
)
from repro.obs import (
    CostAttributor,
    Instrumentation,
    ProvenanceRecorder,
    attributing,
    instrumented,
    recording,
)
from repro.verify.statespace import explore

TC = """
path(X, Y) <- e(X, Y).
path(X, Y) <- e(X, Z) * path(Z, Y).
"""
CHAIN = "e(a, b). e(b, c). e(c, d). e(d, e). e(e, f)."
GOAL = "path(a, Y)"


def bfs_search():
    interp = Interpreter(parse_program(TC), tabling=False)
    return interp.solve(GOAL, parse_database(CHAIN))


def read_search():
    engine = select_engine(parse_program(TC), GOAL)
    return engine.solve(GOAL, parse_database(CHAIN))


def observe(search, record, split):
    """Run *search* under fresh observers; with *split*, only the first
    answer is pulled inside the blocks and the rest outside them."""
    inst, attr = Instrumentation.create(), CostAttributor()
    rec = ProvenanceRecorder() if record else None
    with instrumented(inst), attributing(attr), \
            recording(rec) if record else nullcontext():
        gen = search()
        answers = [next(gen)] if split else list(gen)
    answers += list(gen)
    return answers, inst, attr, rec


def unify_pair(inst, attr):
    return (
        inst.metrics.counter("unify.attempts"),
        attr.totals().get("unify.attempts", 0.0),
    )


class TestCaptureAtFirstPull:
    def test_bfs_unify_reaches_metrics_and_attributor(self):
        inside, inst_in, attr_in, _ = observe(bfs_search, False, split=False)
        split, inst, attr, _ = observe(bfs_search, False, split=True)
        assert len(split) == len(inside) == 5
        assert unify_pair(inst, attr) == unify_pair(inst_in, attr_in)
        assert inst.metrics.counter("unify.attempts") == 22
        assert inst.metrics.counters == inst_in.metrics.counters

    def test_bfs_recorder_nodes_are_all_counted(self):
        _, inst_in, attr_in, rec_in = observe(bfs_search, True, split=False)
        _, inst, attr, rec = observe(bfs_search, True, split=True)
        assert len(rec.nodes) == len(rec_in.nodes) == 23
        assert inst.metrics.counter("prov.nodes") == len(rec.nodes)
        assert unify_pair(inst, attr) == unify_pair(inst_in, attr_in)

    def test_reader_recorder_nodes_are_all_counted(self):
        _, inst_in, _, rec_in = observe(read_search, True, split=False)
        _, inst, _, rec = observe(read_search, True, split=True)
        assert inst.metrics.info.get("engine.backend") == "DatalogReader"
        assert len(rec.nodes) == len(rec_in.nodes) == 27
        assert inst.metrics.counter("prov.nodes") == len(rec.nodes)

    def test_search_started_with_nothing_active_reports_nothing(self):
        gen = bfs_search()
        first = next(gen)
        inst = Instrumentation.create()
        with instrumented(inst):
            rest = list(gen)
        assert first and len(rest) == 4
        assert inst.metrics.counter("search.solutions") == 0
        assert inst.metrics.counter("unify.attempts") == 0
        assert inst.metrics.counters == {}

    def test_facade_stamps_the_observers_of_its_first_pull(self):
        # Creating the façade's generator inside a block is not a pull:
        # the engine info and the sublanguage timer go where the search's
        # counters go, to the observers active at the first pull.
        inst = Instrumentation.create()
        with instrumented(inst):
            gen = read_search()
        assert len(list(gen)) == 5
        assert inst.metrics.info == {} and inst.metrics.counters == {}


class TestOneHandlePerSearch:
    """Each search threads the handle it captured; nothing about its
    observers lives on the engine, and nested searches see the same
    metrics and attributor as the search that started them."""

    CHAIN6 = " ".join("e(n%d, n%d)." % (i, i + 1) for i in range(6))

    def test_interleaved_reads_keep_their_own_observers(self):
        # A conjunction on the interpreter paused under one block, a
        # read on the reader under another: each reports to its own.
        engine = select_engine(parse_program(TC))
        db = parse_database(self.CHAIN6)
        alone, read_alone = Instrumentation.create(), Instrumentation.create()
        with instrumented(alone):
            expected = list(
                select_engine(parse_program(TC)).solve("path(n0, Y) * path(Y, Z)", db)
            )
        with instrumented(read_alone):
            next(select_engine(parse_program(TC)).solve("path(n3, Y)", db))
        first, second = Instrumentation.create(), Instrumentation.create()
        with instrumented(first):
            gen = engine.solve("path(n0, Y) * path(Y, Z)", db)
            answers = [next(gen)]
        with instrumented(second):
            next(engine.solve("path(n3, Y)", db))
        answers += list(gen)
        assert len(answers) == len(expected) == 15
        assert first.metrics.info["engine.backend"] == "Interpreter"
        assert second.metrics.info["engine.backend"] == "DatalogReader"
        assert first.metrics.counter("table.hits") > 0
        assert first.metrics.counters == alone.metrics.counters
        assert second.metrics.counters == read_alone.metrics.counters

    def test_explore_attributes_nested_iso_searches(self):
        program = parse_program(
            "run <- iso(item(X) * del.item(X) * ins.done(X))."
        )
        inst, attr = Instrumentation.create(), CostAttributor()
        with instrumented(inst), attributing(attr):
            explore(program, "run", parse_database("item(a). item(b)."))
        assert inst.metrics.counter("search.steps") == 6
        assert attr.totals()["steps.expansions"] == 9
