"""Experiment C1/C3: full TD is RE-complete with a fixed schema.

Paper artifact: the RE-completeness theorem and Corollary 4.6 (three
concurrent sequential processes suffice).  We regenerate their
operational content:

* a two-counter machine runs inside TD as three concurrent processes;
  execution length grows with the machine's runtime while the database
  stays constant-size (storage lives in recursion depth);
* a diverging machine drives the semi-decision procedure into its budget
  -- termination cannot be promised, only fairness;
* the two-stack construction (the literal Corollary 4.6 encoding) agrees
  with the native machines.
"""

import pytest

from repro import Interpreter, SearchBudgetExceeded
from repro.complexity import diverging_counter_machine, measure, print_series
from repro.machines import counter_to_td, tm_to_two_stack, two_stack_to_td
from repro.machines.counter import parity_program, transfer_program
from repro.machines.turing import BLANK, TuringMachine


def test_counter_machine_simulation_scales(benchmark):
    """Trace length grows linearly with machine runtime; database stays
    constant -- the fixed-schema RE argument, measured."""
    machine = transfer_program()
    rows = []
    for n in (1, 2, 4, 6, 8):
        program, goal, db = counter_to_td(machine, c0=n)
        interp = Interpreter(program, max_configs=5_000_000)
        exe, seconds = measure(lambda: interp.simulate(goal, db))
        assert exe is not None
        _accepted, _c0, _c1, native_steps = machine.run(c0=n)
        rows.append([n, native_steps, len(exe.trace), len(exe.database), seconds])
    print_series(
        "C1: counter machine in TD (3 concurrent processes)",
        ["c0", "machine steps", "TD trace len", "final |db|", "seconds"],
        rows,
    )
    # trace grows with input, database does not
    traces = [r[2] for r in rows]
    assert traces == sorted(traces) and traces[-1] > traces[0]
    dbs = [r[3] for r in rows]
    assert max(dbs) <= min(dbs) + 1

    program, goal, db = counter_to_td(machine, c0=4)
    interp = Interpreter(program, max_configs=5_000_000)
    benchmark.pedantic(
        lambda: interp.simulate(goal, db), rounds=3, iterations=1
    )


def test_acceptance_matches_native_machine(benchmark):
    machine = parity_program()
    rows = []
    for n in range(5):
        program, goal, db = counter_to_td(machine, c0=n)
        interp = Interpreter(program, max_configs=5_000_000)
        accepted, seconds = measure(lambda: interp.succeeds(goal, db))
        assert accepted == machine.accepts(c0=n)
        rows.append([n, accepted, seconds])
    print_series(
        "C1: TD acceptance == machine acceptance (parity)",
        ["c0", "accepts", "seconds"],
        rows,
    )
    program, goal, db = counter_to_td(machine, c0=2)
    interp = Interpreter(program, max_configs=5_000_000)
    benchmark.pedantic(lambda: interp.succeeds(goal, db), rounds=3, iterations=1)


def test_divergence_exhausts_budget(benchmark):
    """The RE boundary made operational: no verdict, only budget."""
    program, goal, db = counter_to_td(diverging_counter_machine())
    rows = []
    for budget in (1_000, 4_000, 16_000):
        # por=False: this claim is about the *naive* interleaving
        # enumeration.  The partial-order reducer happens to decide this
        # particular machine finitely (counter 1's consume-inc body is
        # forever blocked -- nothing writes inc1 -- so every schedule is
        # provably commit-free), which does not contradict RE-ness: no
        # reducer decides every encoding.
        interp = Interpreter(program, max_configs=budget, por=False)
        def attempt():
            try:
                return "accepted" if interp.succeeds(goal, db) else "refuted"
            except SearchBudgetExceeded:
                return "budget"
        outcome, seconds = measure(attempt)
        assert outcome == "budget"
        # The reduced search reaches a verdict, and the right one.
        assert Interpreter(program, max_configs=budget).succeeds(goal, db) is False
        rows.append([budget, outcome, seconds])
    print_series(
        "C1: diverging machine -- semi-decision budgets",
        ["budget (configs)", "outcome", "seconds"],
        rows,
    )
    interp = Interpreter(program, max_configs=1_000, por=False)
    def run():
        try:
            interp.succeeds(goal, db)
        except SearchBudgetExceeded:
            pass
    benchmark.pedantic(run, rounds=3, iterations=1)


def test_two_stack_corollary46(benchmark):
    """The literal Corollary 4.6 construction: three concurrent
    sequential processes simulate a two-stack machine."""
    tm = TuringMachine(
        states=frozenset({"even", "odd", "acc"}),
        input_alphabet=frozenset({"a"}),
        tape_alphabet=frozenset({"a", BLANK}),
        transitions={
            ("even", "a"): [("odd", "a", "R")],
            ("odd", "a"): [("even", "a", "R")],
            ("even", BLANK): [("acc", BLANK, "R")],
        },
        start="even",
        accepting=frozenset({"acc"}),
    )
    tsm = tm_to_two_stack(tm)
    rows = []
    for n in (0, 1, 2):
        word = ["a"] * n
        program, goal, db = two_stack_to_td(tsm, word)
        interp = Interpreter(program, max_configs=8_000_000)
        got, seconds = measure(lambda: interp.succeeds(goal, db))
        assert got == tm.accepts(word) == tsm.accepts(word)
        rows.append([n, got, seconds])
    print_series(
        "C3: two-stack machine in TD (Corollary 4.6)",
        ["|input|", "accepts", "seconds"],
        rows,
    )
    program, goal, db = two_stack_to_td(tsm, ["a", "a"])
    interp = Interpreter(program, max_configs=8_000_000)
    benchmark.pedantic(lambda: interp.succeeds(goal, db), rounds=1, iterations=1)
