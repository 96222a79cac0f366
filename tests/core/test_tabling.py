"""Answer tabling for the concurrent interpreter (repro.core.tabling).

Three layers of coverage:

1. The table machinery itself: canonical call keys, answer
   normalization, one entry per (call, database) key, and entries that
   keep general and specific answers alike.
2. The solution-level differential: tabling is pure work-avoidance, so
   with it on and off the interpreter must produce identical answer
   sets and final databases over the profile-suite configs and the six
   chaos workloads (the ``tabling=False`` path is the naive oracle,
   mirroring the reducer differential in ``test_transitions_diff.py``).
3. The interactions the design doc calls out: bypass under fault
   injection (chaos reports stay byte-identical), checkpoint/resume
   with a warm table, table-hit provenance, and the headline >= 5x
   reduction on the recursive profile workload.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    parse_database,
    parse_goal,
    parse_program,
)
from repro.core.errors import ReproError, SearchBudgetExceeded
from repro.core.tabling import (
    AnswerTable,
    TableEntry,
    _normalize_values,
    canonical_call,
)
from repro.core.terms import Constant, Variable, atom
from repro.obs import Instrumentation, instrumented
from repro.obs.analyze import (
    _BANK_TD,
    _FANOUT_TD,
    _GENOME_TD,
    _PATH_TD,
    _RECURSIVE_TD,
    _recursive_facts,
)


def _c(name):
    return Constant(name)


def _v(name):
    return Variable(name)


class TestCanonicalKeys:
    def test_constants_stay_variables_rename(self):
        canon, originals = canonical_call(atom("p", _c("a"), _v("X"), _v("Y")))
        assert str(canon) == "p(a, V0, V1)"
        assert originals == [_v("X"), _v("Y")]

    def test_repeated_variables_share_a_name(self):
        canon, originals = canonical_call(atom("p", _v("X"), _v("X")))
        assert str(canon) == "p(V0, V0)"
        assert originals == [_v("X")]

    def test_alpha_equivalent_calls_share_a_key(self):
        a, _ = canonical_call(atom("p", _v("X"), _v("Y")))
        b, _ = canonical_call(atom("p", _v("U"), _v("W")))
        assert a == b


class TestSubsumption:
    """No answer subsumes another: an entry stores every distinct
    normalized answer, general and specific alike, as the naive search
    returns both."""

    def test_normalization_renames_unbound_positions(self):
        out = _normalize_values((_v("G12"), _c("a"), _v("G12"), _v("H3")))
        assert out == (_v("A0"), _c("a"), _v("A0"), _v("A1"))

    def test_general_and_specific_answers_both_stored(self):
        entry = TableEntry()
        db = Database()
        assert entry.add((_c("a"),), db, ()) is not None
        assert entry.add((_v("X"),), db, ()) is not None
        # Equal up to fresh-variable names: a duplicate.
        assert entry.add((_v("Y"),), db, ()) is None
        assert [a[0] for a in entry.answers.values()] == [(_c("a"),), (_v("A0"),)]

    def test_subsumption_requires_matching_final_db(self):
        # Answers are (bindings, final database) pairs: a general
        # binding under a different final state is another answer.
        entry = TableEntry()
        db1 = parse_database("m(1).")
        db2 = parse_database("m(2).")
        assert entry.add((_c("a"),), db1, ()) is not None
        assert entry.add((_v("X"),), db2, ()) is not None
        assert len(entry.answers) == 2

    def test_add_does_not_compare_databases(self, monkeypatch):
        # Storing an answer is one dict probe: 200 ground answers with
        # distinct final databases never call Database.__eq__ (a scan
        # of the stored answers would make ~40,000 calls).
        dbs = [parse_database("m(%d)." % i) for i in range(200)]
        calls = []
        eq = Database.__eq__

        def counting_eq(self, other):
            calls.append(1)
            return eq(self, other)

        monkeypatch.setattr(Database, "__eq__", counting_eq)
        entry = TableEntry()
        for i, db in enumerate(dbs):
            assert entry.add((_c("v%d" % i),), db, ()) is not None
        assert len(entry.answers) == 200
        assert calls == []


#: Two ways to pick: one binds the argument, one leaves it unbound with
#: the same final database.
_PICK = """
pick(X) <- opt(X).
pick(X) <- free.
two(Y, Z) <- pick(Y) * pick(Z).
"""


class TestNonGroundAnswers:
    @pytest.mark.parametrize(
        "goal", ["two(Y, Z)", "pick(Y) * pick(Z)", "pick(Y) * ins.z * pick(Z)"]
    )
    def test_tabled_solutions_equal_naive(self, goal):
        # Each pick answers Y = a and Y unbound, so every goal has four
        # solutions; serving only the general answer would lose the
        # bindings to a.
        program = parse_program(_PICK)
        db = parse_database("opt(a). free.")
        goal = program.resolve_goal(parse_goal(goal))
        tabled = _solution_set(Interpreter(program), goal, db)
        naive = _solution_set(Interpreter(program, tabling=False), goal, db)
        assert tabled == naive
        assert len(tabled) == 4


class TestDeltaKeys:
    """Table keys: one entry per (call shape, database) pair."""

    def test_distinct_databases_get_distinct_entries(self):
        table = AnswerTable()
        canon, _ = canonical_call(atom("p", _v("X")))
        e1 = table.entry(canon, parse_database("a(1)."))
        e2 = table.entry(canon, parse_database("a(2)."))
        e1b = table.entry(canon, parse_database("a(1)."))
        assert e1 is not e2
        assert e1 is e1b

    def test_snapshot_restore_round_trip(self):
        table = AnswerTable()
        db = parse_database("a(1).")
        canon, _ = canonical_call(atom("p", _v("X")))
        entry = table.entry(canon, db)
        entry.add((_c("a"),), db, ())
        entry.add((_v("X"),), db, ())
        entry.complete = True
        warm = AnswerTable.restore(table.snapshot())
        served = warm.entry(canon, db)
        assert served is not None and served.complete
        assert list(served.answers.values()) == list(entry.answers.values())


# -- solution-level differential ----------------------------------------------


def _solution_set(interp, goal, db):
    return {
        (
            tuple(sorted((str(v), str(t)) for v, t in sol.bindings.items())),
            sol.database,
        )
        for sol in interp.solve(goal, db)
    }


def assert_tabling_invisible(program, goal, db, max_configs=400_000):
    """Tabling must change only the work, never the result: same answer
    sets and final databases with ``tabling`` on and off."""
    goal = program.resolve_goal(goal)
    tabled = _solution_set(
        Interpreter(program, max_configs=max_configs), goal, db
    )
    naive = _solution_set(
        Interpreter(program, max_configs=max_configs, tabling=False), goal, db
    )
    assert tabled == naive
    assert tabled  # every workload here has at least one solution


#: One-sample genome database (as in the reducer differential): the
#: naive enumeration of the two-sample profile db is tens of seconds.
_GENOME_ONE = (
    "workitem(dna01). available(ana). available(raj). "
    "qualified(ana, tech). qualified(raj, tech). qualified(raj, reader)."
)


class TestTablingInvisibleOnProfileSuite:
    """Tabling on/off: identical answer sets and final databases on the
    profile-suite programs (the configs the counter gate pins)."""

    def test_bank_transfer(self):
        assert_tabling_invisible(
            parse_program(_BANK_TD),
            parse_goal("transfer(a, b, 30)"),
            parse_database("balance(a, 100). balance(b, 10)."),
        )

    def test_path_tabled(self):
        assert_tabling_invisible(
            parse_program(_PATH_TD),
            parse_goal("path(a, X)"),
            parse_database("e(a, b). e(b, c). e(c, d). e(d, e). e(e, f)."),
        )

    def test_genome_simulate(self):
        assert_tabling_invisible(
            parse_program(_GENOME_TD), parse_goal("simulate"),
            parse_database(_GENOME_ONE),
        )

    def test_genome_statespace_db(self):
        assert_tabling_invisible(
            parse_program(_GENOME_TD), parse_goal("simulate"),
            parse_database(
                "workitem(dna01). available(raj). "
                "qualified(raj, tech). qualified(raj, reader)."
            ),
        )

    def test_conc_fanout(self):
        assert_tabling_invisible(
            parse_program(_FANOUT_TD), parse_goal("spawn"),
            parse_database("item(j1). item(j2). item(j3). item(j4). item(j5)."),
        )

    def test_recursive_workflow(self):
        assert_tabling_invisible(
            parse_program(_RECURSIVE_TD), parse_goal("audit"),
            parse_database(_recursive_facts(5)),
        )

    def test_lab_workflow(self):
        from repro.core.formulas import Call
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator()
        assert_tabling_invisible(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(1)),
        )


class TestTablingInvisibleOnChaosWorkloads:
    """The six chaos workloads' programs, unfaulted: tabling must be
    invisible on the very shapes the chaos gate perturbs.  (Under fault
    injection the interpreter bypasses the table entirely -- see
    TestTablingBypassedUnderFaults.)"""

    def test_bank_transfer(self):
        from repro.faults.chaos import _BANK_DB, _BANK_TD as BANK

        assert_tabling_invisible(
            parse_program(BANK),
            parse_goal("transfer(a, b, 30)"),
            parse_database(_BANK_DB),
        )

    def test_path_query(self):
        from repro.faults.chaos import _PATH_DB, _PATH_TD as PATH

        assert_tabling_invisible(
            parse_program(PATH),
            parse_goal("path(a, Y) * ins.reached(Y)"),
            parse_database(_PATH_DB),
        )

    def test_genome_simulate(self):
        from repro.faults.chaos import _GENOME_TD as GENOME

        assert_tabling_invisible(
            parse_program(GENOME), parse_goal("simulate"),
            parse_database(_GENOME_ONE),
        )

    def test_genome_iso(self):
        from repro.faults.chaos import _GENOME_ISO_TD

        assert_tabling_invisible(
            parse_program(_GENOME_ISO_TD), parse_goal("simulate"),
            parse_database(_GENOME_ONE),
        )

    def test_lab_workflow(self):
        from repro.core.formulas import Call
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator(iterate=False)
        assert_tabling_invisible(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(1)),
        )

    def test_lab_iterate(self):
        from repro.core.formulas import Call
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator(iterate=True)
        assert_tabling_invisible(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(1)),
        )


# -- the headline reduction ---------------------------------------------------


class TestRecursiveSpeedup:
    def _measure(self, **kw):
        inst = Instrumentation.create()
        with instrumented(inst):
            interp = Interpreter(
                parse_program(_RECURSIVE_TD), max_configs=2_000_000, **kw
            )
            sols = list(
                interp.solve(parse_goal("audit"), parse_database(_recursive_facts()))
            )
        return sols, inst.metrics

    def test_recursive_workflow_reduced_at_least_5x(self):
        # The acceptance benchmark: on the recursive profile workload
        # the table must cut expansions and unification fan-out by
        # >= 5x (measured ~14x / ~12x at depth 7; asserting the floor).
        sols_on, on = self._measure()
        sols_off, off = self._measure(tabling=False)
        assert {s.database for s in sols_on} == {s.database for s in sols_off}
        assert on.counter("search.solutions") == off.counter("search.solutions")
        assert off.counter("search.configs_expanded") >= 5 * on.counter(
            "search.configs_expanded"
        )
        assert off.counter("unify.attempts") >= 5 * on.counter("unify.attempts")
        assert on.counter("table.hits") > 0
        assert off.counter("table.hits") == 0
        assert off.counter("table.misses") == 0

    def test_table_hits_on_multiple_configs(self):
        # table.hits > 0 on at least two profile-suite workloads: the
        # recursive diamond and the concurrent fan-out (whose drained
        # ``spawn`` tail re-reaches tabled states).
        def hits(text, goal, db):
            inst = Instrumentation.create()
            with instrumented(inst):
                list(
                    Interpreter(parse_program(text)).solve(
                        parse_goal(goal), parse_database(db)
                    )
                )
            return inst.metrics.counter("table.hits")

        assert hits(_RECURSIVE_TD, "audit", _recursive_facts(4)) > 0
        assert (
            hits(
                _FANOUT_TD,
                "spawn",
                "item(j1). item(j2). item(j3). item(j4). item(j5).",
            )
            > 0
        )


class TestKeyCap:
    def test_capped_lookups_run_untabled_with_the_same_answers(self, monkeypatch):
        from repro.core import tabling as tabling_module

        program = parse_program(_RECURSIVE_TD)
        db = parse_database(_recursive_facts(4))
        monkeypatch.setattr(tabling_module, "MAX_KEYS", 2)
        # The second goal's iso body is looked up after the cap is
        # reached, so it too runs untabled.
        for text in ("audit", "audit * iso(audit)"):
            goal = parse_goal(text)
            naive = _solution_set(Interpreter(program, tabling=False), goal, db)
            inst = Instrumentation.create()
            with instrumented(inst):
                capped = _solution_set(Interpreter(program), goal, db)
            assert capped == naive, text
            assert inst.metrics.gauge("table.capped") > 0
            assert inst.metrics.gauge("table.keys") == 2


# -- table lifetime -----------------------------------------------------------

#: The bank program plus one ``|`` rule, so that ``select_engine`` routes
#: it to the interpreter.
_BANK_CONC_TD = _BANK_TD + "both <- ins.x | ins.y.\n"

_PATH_GOAL = "path(a, X)"


class TestTableLifetime:
    """A table serves one initial database: a search from another state
    than the previous one starts with an empty table."""

    def test_commits_over_a_store_keep_the_table_bounded(self):
        from repro import select_engine
        from repro.store import MemoryStore

        store = MemoryStore(parse_database("balance(a, 100). balance(b, 10)."))
        engine = select_engine(parse_program(_BANK_CONC_TD), store=store)
        assert isinstance(engine.backend, Interpreter)
        for _ in range(20):
            assert engine.simulate("transfer(a, b, 1)") is not None
            # A simulate over a store leaves no table behind.
            assert engine.backend._table.keys == 0
        assert store.database() == parse_database("balance(a, 80). balance(b, 30).")
        # A search from the committed state fills the table for that
        # state alone: transfer, its iso body, withdraw and deposit.
        assert len(list(engine.solve("transfer(a, b, 1)"))) == 1
        assert engine.backend._table.keys == 4

    def test_an_equal_database_keeps_the_warm_table(self):
        program = parse_program(_PATH_TD)
        interp = Interpreter(program)
        goal = parse_goal(_PATH_GOAL)
        first = _solution_set(interp, goal, parse_database("e(a, b). e(b, c)."))
        inst = Instrumentation.create()
        with instrumented(inst):
            again = _solution_set(interp, goal, parse_database("e(a, b). e(b, c)."))
        assert again == first and len(first) == 2
        assert inst.metrics.counter("table.misses") == 0
        assert inst.metrics.counter("table.hits") > 0

    def test_a_paused_search_survives_another_states_search(self):
        # The second search starts from another state and empties the
        # table under the paused first one, which must still finish with
        # all its answers: its later ``path`` calls generate again, in
        # the new table.
        program = parse_program(_PATH_TD)
        goal = parse_goal("path(c, Y) * (ins.e(d, q) | path(a, X))")
        one = parse_database("e(a, b). e(b, c). e(c, d).")
        two = parse_database("e(a, x). e(x, y).")
        interp = Interpreter(program)
        paused = interp.solve(goal, one)
        first = next(paused)
        table = interp._table
        assert _solution_set(interp, goal, two) == _solution_set(
            Interpreter(program), goal, two
        )
        assert interp._table is not table
        keys = interp._table.keys
        got = {
            (tuple(sorted((str(v), str(t)) for v, t in s.bindings.items())), s.database)
            for s in [first, *paused]
        }
        assert interp._table.keys > keys
        assert got == _solution_set(Interpreter(program), goal, one)
        assert len(got) == 4


# -- composition with fault injection -----------------------------------------


class TestTablingBypassedUnderFaults:
    def test_no_table_counters_under_fault_injection(self):
        # The table object exists (faults can go dormant mid-run) but
        # every use site checks ``self.faults is None``: a faulted run
        # must emit no table.* counters at all.
        from repro.faults import FaultInjector, generate_plan

        program = parse_program(_BANK_TD)
        plan = generate_plan(seed=3, predicates=("balance",), agents=())
        inst = Instrumentation.create()
        with instrumented(inst):
            Interpreter(program, faults=FaultInjector(plan)).simulate(
                parse_goal("transfer(a, b, 30)"),
                parse_database("balance(a, 100). balance(b, 10)."),
            )
        assert inst.metrics.counter("table.hits") == 0
        assert inst.metrics.counter("table.misses") == 0

    def test_table_never_consulted_under_fault_injection(self, monkeypatch):
        # Fault plans target individual interleavings, so the chaos
        # harness must see the naive small-step expansion: tdlog chaos
        # output stays byte-identical whatever the table does.  If the
        # interpreter consulted the table here, this run would raise.
        from repro.core import tabling as tabling_module
        from repro.faults import FaultInjector, generate_plan

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("answer table consulted under fault injection")

        # One lookup serves head calls and iso bodies alike.
        monkeypatch.setattr(tabling_module.AnswerTable, "entry", boom)
        program = parse_program(_BANK_TD)
        plan = generate_plan(seed=3, predicates=("balance",), agents=())
        interp = Interpreter(program, faults=FaultInjector(plan))
        interp.simulate(
            parse_goal("transfer(a, b, 30)"),
            parse_database("balance(a, 100). balance(b, 10)."),
        )

    def test_chaos_runs_never_touch_the_table(self, monkeypatch):
        # What keeps chaos reports byte-identical whatever the table
        # holds: every chaos run is faulted, so none of them creates or
        # reads an answer-table entry (``entry`` is the one way to do
        # either).  The chaos runner catches only ReproError, so a
        # consulted table fails this test.
        from repro.core import tabling as tabling_module
        from repro.faults.chaos import format_report, run_chaos, workload_by_name

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("answer table consulted in a chaos run")

        monkeypatch.setattr(tabling_module.AnswerTable, "entry", boom)
        workloads = [workload_by_name("bank_transfer"), workload_by_name("genome_iso")]
        report = format_report(run_chaos(workloads, plans=4, base_seed=0))
        assert "chaos verdict: OK (2 workload(s), 0 violation(s))" in report


# -- checkpoint/resume with a warm table --------------------------------------

#: The chain walk from test_checkpoint.py: many interruption points,
#: recursive calls the table can serve warm across resumptions.
_CHAIN = """
walk(X, Y) <- edge(X, Y) * ins.visited(Y).
walk(X, Y) <- edge(X, Z) * ins.visited(Z) * walk(Z, Y).
"""

_CHAIN_DB = (
    "edge(a, b). edge(b, c). edge(c, d). edge(d, e). edge(e, f). "
    "edge(f, g). edge(g, h). edge(h, i). edge(i, j)."
)


class TestCheckpointResume:
    def _full(self):
        interp = Interpreter(parse_program(_CHAIN), max_configs=1_000_000)
        return _solution_set(
            interp, parse_goal("walk(a, Y)"), parse_database(_CHAIN_DB)
        )

    def test_checkpoint_carries_the_warm_table(self):
        interp = Interpreter(parse_program(_CHAIN), max_configs=30)
        with pytest.raises(SearchBudgetExceeded) as info:
            list(interp.solve(parse_goal("walk(a, Y)"), parse_database(_CHAIN_DB)))
        checkpoint = info.value.checkpoint
        assert checkpoint is not None
        assert checkpoint.table is not None

    def test_round_trip_resumes_to_the_full_answer_set(self):
        db = parse_database(_CHAIN_DB)
        got = set()
        interruptions = 0
        source = Interpreter(parse_program(_CHAIN), max_configs=40).solve(
            parse_goal("walk(a, Y)"), db
        )
        while True:
            try:
                for sol in source:
                    got.add(
                        (
                            tuple(
                                sorted(
                                    (str(v), str(t))
                                    for v, t in sol.bindings.items()
                                )
                            ),
                            sol.database,
                        )
                    )
                break
            except ReproError as exc:
                interruptions += 1
                assert exc.checkpoint is not None
                source = Interpreter(
                    parse_program(_CHAIN), max_configs=1_000_000
                ).resume(exc.checkpoint)
        assert interruptions >= 1
        assert got == self._full()

    def test_resuming_the_same_checkpoint_twice_is_idempotent(self):
        db = parse_database(_CHAIN_DB)
        with pytest.raises(SearchBudgetExceeded) as info:
            list(
                Interpreter(parse_program(_CHAIN), max_configs=25).solve(
                    parse_goal("walk(a, Y)"), db
                )
            )
        checkpoint = info.value.checkpoint

        def drain():
            return {
                (
                    tuple(
                        sorted(
                            (str(v), str(t)) for v, t in sol.bindings.items()
                        )
                    ),
                    sol.database,
                )
                for sol in Interpreter(
                    parse_program(_CHAIN), max_configs=1_000_000
                ).resume(checkpoint)
            }

        assert drain() == drain()

    def test_naive_marks_guarantee_progress_under_tiny_budgets(self):
        # The livelock regression: with tabling, a config interrupted
        # mid-big-step must be re-expanded naively on resume, or a
        # too-small resume budget restarts the same generation from
        # scratch forever.  Thirteen-step hops must still terminate.
        db = parse_database(_CHAIN_DB)
        got = []
        hops = 0
        source = Interpreter(parse_program(_CHAIN), max_configs=13).solve(
            parse_goal("walk(a, Y)"), db
        )
        while hops < 500:
            try:
                got.extend(source)
                break
            except ReproError as exc:
                hops += 1
                source = Interpreter(
                    parse_program(_CHAIN), max_configs=13
                ).resume(exc.checkpoint)
        else:
            pytest.fail("resume loop made no progress (tabling livelock)")
        assert len(got) == len(self._full())


# -- provenance ---------------------------------------------------------------


class TestTableHitProvenance:
    def test_table_hit_nodes_recorded(self):
        # The second probe call is served from the first one's entry.
        from repro.obs import recording
        from repro.obs.provenance import DISPOSITIONS

        interp = Interpreter(parse_program("probe <- item(X)."))
        with recording() as rec:
            sols = list(
                interp.solve(
                    parse_goal("probe * probe * ins.done"),
                    parse_database("item(a). item(b)."),
                )
            )
        assert sols
        hits = [n for n in rec.nodes if n.disposition == "table-hit"]
        assert hits, "the second probe call must be served from the table"
        assert "table-hit" in DISPOSITIONS
        for node in hits:
            assert node.witness and "key" in node.witness
            assert node.witness["answers"] >= 1
