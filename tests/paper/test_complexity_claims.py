"""Integration tests pinning the *shape* of the paper's complexity map.

These are the testable faces of Section 4/5's theorems at laptop scale:
growth directions, decidability boundaries, and who-terminates-on-what.
The benchmarks measure the same families at larger sizes; here we pin
correctness at small sizes.
"""

import pytest

from repro import (
    Database,
    Interpreter,
    SearchBudgetExceeded,
    Sublanguage,
    classify,
    parse_goal,
    select_engine,
)
from repro.complexity import (
    binary_counter_family,
    chain_edges,
    diverging_counter_machine,
    insert_only_closure,
    nonrecursive_path_program,
    transitive_closure_program,
)
from repro.machines import counter_to_td
from repro.machines.counter import parity_program


class TestC1FullTDisRE:
    """Theorem 4.1/4.4 territory: full TD simulates unbounded machines
    with a constant-size database; divergence is indistinguishable from
    slow acceptance (budget, not verdict)."""

    def test_machine_encoding_agrees_with_machine(self):
        m = parity_program()
        for n in (0, 1, 2):
            program, goal, db = counter_to_td(m, c0=n)
            got = Interpreter(program, max_configs=1_000_000).succeeds(goal, db)
            assert got == m.accepts(c0=n)

    def test_divergence_hits_budget(self):
        # por=False: this claim is about the *naive* interleaving
        # enumeration.  The partial-order reducer happens to decide this
        # particular machine finitely (counter 1's consume-inc body is
        # forever blocked -- nothing writes inc1 -- so every schedule is
        # provably commit-free), which does not contradict RE-ness: no
        # reducer decides every encoding.
        program, goal, db = counter_to_td(diverging_counter_machine())
        interp = Interpreter(program, max_configs=3_000, por=False)
        with pytest.raises(SearchBudgetExceeded):
            interp.succeeds(goal, db)

    def test_divergence_reducer_may_decide_an_instance(self):
        # The flip side: with the reducer on, the same encoding fails
        # finitely (and correctly -- the machine never accepts).  Sound
        # pruning may shrink an infinite fruitless search to a finite
        # one; it must never change the verdict when one is reached.
        program, goal, db = counter_to_td(diverging_counter_machine())
        interp = Interpreter(program, max_configs=3_000)
        assert interp.succeeds(goal, db) is False

    def test_database_never_grows_with_runtime(self):
        program, goal, db = counter_to_td(parity_program(), c0=4)
        exe = Interpreter(program, max_configs=2_000_000).simulate(goal, db)
        assert len(exe.database) <= len(db) + 3


class TestC2SequentialTDisDecidable:
    """Theorem 4.5: no concurrency -> a terminating (EXPTIME) decision
    procedure, with exponentially growing work on the counter family."""

    def test_binary_counter_simulates(self):
        for n in (1, 2, 3):
            program, goal, db = binary_counter_family(n)
            exe = Interpreter(program, max_configs=2_000_000).simulate(goal, db)
            assert exe is not None

    def test_steps_double_per_bit(self):
        lengths = []
        for n in (2, 3, 4, 5):
            program, goal, db = binary_counter_family(n)
            exe = Interpreter(program, max_configs=2_000_000).simulate(goal, db)
            lengths.append(len(exe.trace))
        ratios = [b / a for a, b in zip(lengths, lengths[1:])]
        # each extra bit roughly doubles the execution length
        assert all(r > 1.7 for r in ratios)

    def test_family_is_inside_a_decidable_fragment(self):
        program, goal, _db = binary_counter_family(3)
        assert select_engine(program, goal).decidable


class TestC4NonrecursivePolynomial:
    """Theorem 4.7: nonrecursive TD decides in polynomial time."""

    def test_path4_query(self):
        program = nonrecursive_path_program()
        engine = select_engine(program)
        assert engine.sublanguage is Sublanguage.NONRECURSIVE
        assert engine.succeeds("witness", chain_edges(4))
        assert not engine.succeeds("witness", chain_edges(3))

    def test_terminates_on_larger_inputs(self):
        program = nonrecursive_path_program()
        engine = select_engine(program)
        assert engine.succeeds("witness", chain_edges(4, extra_random=60, seed=1))


class TestC5QueryOnlyIsDatalog:
    """Query-only TD coincides with classical Datalog."""

    def test_td_vs_datalog_answers(self):
        from repro.datalog import evaluate, from_td
        from repro import atom

        program = transitive_closure_program()
        db = chain_edges(5)
        # TD's own semantics, the tabled interpreter, against Datalog.
        td = Interpreter(program)
        dl_facts = evaluate(from_td(program), db)
        for x in range(6):
            for y in range(6):
                goal = parse_goal("path(%d, %d)" % (x, y))
                assert td.succeeds(goal, db) == (atom("path", x, y) in dl_facts)


class TestC6InsertOnly:
    """Test+insert TD: the monotone scientific-workflow fragment."""

    def test_reachability_by_materialization(self):
        program = insert_only_closure()
        interp = Interpreter(program, max_configs=2_000_000)
        db = chain_edges(5)
        assert interp.simulate(parse_goal("reach(0, 5)"), db) is not None
        assert interp.simulate(parse_goal("reach(5, 0)"), db) is None

    def test_classifier_sees_no_deletion(self):
        from repro import analyze

        assert analyze(insert_only_closure()).insert_only


class TestC7FullyBounded:
    """Section 5: fully bounded TD -- the practical fragment.  All the
    paper's workflow machinery compiles into it except the dynamic
    instance spawner, and execution is decidable."""

    def test_lab_pipeline_is_fully_bounded(self):
        from repro.lims import gel_pipeline
        from repro.workflow.compiler import compile_workflows

        prog = compile_workflows([gel_pipeline(iterate=True)])
        assert classify(prog) in (
            Sublanguage.FULLY_BOUNDED,
            Sublanguage.NONRECURSIVE,
        )

    def test_instance_spawner_is_not(self, simulate_program):
        assert classify(simulate_program) is Sublanguage.FULL

    def test_fully_bounded_failure_is_decided(self):
        # an unsatisfiable fully bounded goal terminates with "no"
        from repro import parse_program

        prog = parse_program(
            "drain <- item(X) * del.item(X) * drain.\ndrain <- blocked."
        )
        engine = select_engine(prog)
        assert engine.decidable
        assert not engine.succeeds("drain", Database())
