"""Differential test: optimized vs. naive redex enumeration.

``enabled_steps`` ships two implementations: the indexed/pruned default
(freeness-summary skipping, per-signature rule dispatch) and the naive
scan it replaced, kept as an oracle behind ``optimized=False``.  The
optimizations are pure work-avoidance -- skipping a branch is only legal
when *no* database could ever let it step -- so on every reachable
configuration both must produce the same multiset of transitions.

Steps are compared modulo variable renaming: the two paths consume the
program's fresh-variable counter differently, so raw formulas differ in
``#k`` suffixes while the transitions they denote are identical.  The
fingerprint is ``(action text, canonical key of the applied residual,
successor database)`` -- exactly the parts renaming cannot touch.

The workloads are the five profile-suite configs (the programs the
counter gate pins), explored breadth-first to a state cap.

A second differential covers the partial-order reducer: unlike the
naive-enumeration oracle, reduction deliberately changes which
configurations are *visited*, so the equivalence is at the solution
level -- identical answer sets and identical final databases with the
reducer on and off, over the profile-suite configs and the six chaos
workloads.  Step by step, the reducer's transitions must still be a
sub-multiset of the full enumeration's at every reachable configuration
(same fingerprints), which pins how it plugs residuals into context.
"""

import re
from collections import Counter, deque

import pytest

from repro import Database, parse_database, parse_goal, parse_program
from repro.core.formulas import apply_subst
from repro.core.interpreter import Interpreter, _Budget
from repro.core.por import PartialOrderReducer
from repro.core.transitions import canonical_key, enabled_steps
from repro.obs.analyze import (
    _BANK_TD,
    _FANOUT_TD,
    _GENOME_FACTS,
    _GENOME_TD,
    _PATH_TD,
)


#: Fresh-variable suffixes (``B2#3``) in action text; atoms are already
#: displayed suffix-free, but builtin details inside iso subtraces are not.
_FRESH_SUFFIX = re.compile(r"#\d+")


def _fingerprint(step):
    residual = apply_subst(step.residual, step.subst)
    action = _FRESH_SUFFIX.sub("", str(step.action))
    return (action, canonical_key(residual), step.database)


def assert_enumeration_equivalent(program, goal, db, max_states=400):
    """BFS over reachable configurations; at each one, the optimized and
    naive enumerations must agree as multisets modulo renaming."""
    goal = program.resolve_goal(goal)
    interp = Interpreter(program)
    runner = interp._isol_runner(_Budget(interp.max_configs))
    seen = set()
    frontier = [(goal, db)]
    checked = 0
    while frontier and checked < max_states:
        proc, state = frontier.pop(0)
        key = (canonical_key(proc), state)
        if key in seen:
            continue
        seen.add(key)
        checked += 1
        optimized = list(enabled_steps(program, proc, state, runner))
        naive = list(
            enabled_steps(program, proc, state, runner, optimized=False)
        )
        opt_fp = Counter(_fingerprint(s) for s in optimized)
        naive_fp = Counter(_fingerprint(s) for s in naive)
        assert opt_fp == naive_fp, (
            "enumeration mismatch at process %s / db %s:\n"
            "optimized-only: %s\nnaive-only: %s"
            % (proc, state, opt_fp - naive_fp, naive_fp - opt_fp)
        )
        for step in optimized:
            frontier.append(
                (apply_subst(step.residual, step.subst), step.database)
            )
    assert checked > 0


class TestProfileSuiteEquivalence:
    def test_bank_transfer(self):
        assert_enumeration_equivalent(
            parse_program(_BANK_TD),
            parse_goal("transfer(a, b, 30)"),
            parse_database("balance(a, 100). balance(b, 10)."),
        )

    def test_path_tabled(self):
        assert_enumeration_equivalent(
            parse_program(_PATH_TD),
            parse_goal("path(a, X)"),
            parse_database("e(a, b). e(b, c). e(c, d). e(d, e). e(e, f)."),
        )

    def test_genome_simulate(self):
        assert_enumeration_equivalent(
            parse_program(_GENOME_TD),
            parse_goal("simulate"),
            parse_database(_GENOME_FACTS),
        )

    def test_genome_statespace(self):
        assert_enumeration_equivalent(
            parse_program(_GENOME_TD),
            parse_goal("simulate"),
            parse_database(
                "workitem(dna01). available(raj). "
                "qualified(raj, tech). qualified(raj, reader)."
            ),
        )

    def test_lab_workflow(self):
        from repro.core.formulas import Call
        from repro.core.terms import atom
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator()
        assert_enumeration_equivalent(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(2)),
            max_states=200,
        )


class TestTargetedShapes:
    """Shapes the freeness summary must *not* prune."""

    def test_blocked_branch_unblocks_after_binding(self):
        # X is free in ins.p(X) until the test binds it: the summary is
        # db-independent, so it must keep the branch.
        program = parse_program("go <- q(X) * ins.p(X).")
        assert_enumeration_equivalent(
            program, parse_goal("go"), parse_database("q(a). q(b).")
        )

    def test_never_ground_update_skipped_identically(self):
        # A concurrent branch that can never step: both enumerations
        # must agree it contributes nothing (and the others still run).
        program = parse_program("go <- ins.p(X) | ins.a | ins.b.")
        assert_enumeration_equivalent(program, parse_goal("go"), Database())

    def test_builtin_over_unbound_variable(self):
        program = parse_program("go <- Y is X + 1 | ins.a.")
        assert_enumeration_equivalent(program, parse_goal("go"), Database())

    def test_iso_of_truth_still_steps(self):
        program = parse_program("go <- iso(true) * ins.a.")
        assert_enumeration_equivalent(program, parse_goal("go"), Database())

    def test_negation_and_zero_arity(self):
        program = parse_program(
            "go <- not stop * ins.mark * stop2.\nstop2 <- mark."
        )
        assert_enumeration_equivalent(program, parse_goal("go"), Database())


# -- partial-order reduction: the reduced steps are enabled steps -------------


def reduced_step_totals(program, goal, db, max_states=300):
    """BFS over reachable configurations; at each one, the reducer's
    steps must be a sub-multiset of the full enumeration's, modulo
    renaming -- the same transitions, with each residual plugged into
    the same context.  Returns the (reduced, full) step totals."""
    goal = program.resolve_goal(goal)
    interp = Interpreter(program)
    runner = interp._isol_runner(_Budget(interp.max_configs))
    reducer = PartialOrderReducer(program)
    seen = set()
    frontier = deque([(goal, db)])
    reduced_total = full_total = 0
    while frontier and len(seen) < max_states:
        proc, state = frontier.popleft()
        key = (canonical_key(proc), state)
        if key in seen:
            continue
        seen.add(key)
        full = list(enabled_steps(program, proc, state, runner))
        reduced = list(
            enabled_steps(program, proc, state, runner, reducer=reducer)
        )
        extra = Counter(_fingerprint(s) for s in reduced) - Counter(
            _fingerprint(s) for s in full
        )
        assert not extra, "reducer-only steps at process %s / db %s: %s" % (
            proc,
            state,
            sorted(map(str, extra)),
        )
        reduced_total += len(reduced)
        full_total += len(full)
        frontier.extend((apply_subst(s.residual, s.subst), s.database) for s in full)
    return reduced_total, full_total


class TestReducedStepsAreEnabled:
    def test_lab_iterate(self):
        from repro.core.formulas import Call
        from repro.core.terms import atom
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator(iterate=True)
        reduced, full = reduced_step_totals(
            sim.program, Call(atom("simulate")), sim.initial_database(sample_batch(3))
        )
        assert (reduced, full) == (233, 901)

    def test_genome_simulate(self):
        reduced, full = reduced_step_totals(
            parse_program(_GENOME_TD),
            parse_goal("simulate"),
            parse_database(_GENOME_FACTS),
        )
        assert (reduced, full) == (336, 876)


# -- partial-order reduction: solution-level differential ---------------------


def _solution_set(interp, goal, db):
    return {
        (
            tuple(sorted((str(v), str(t)) for v, t in sol.bindings.items())),
            sol.database,
        )
        for sol in interp.solve(goal, db)
    }


def assert_por_invisible(program, goal, db, max_configs=400_000):
    """The reducer must change only the work, never the result: same
    answer sets, same set of final databases, with ``por`` on and off."""
    goal = program.resolve_goal(goal)
    reduced = _solution_set(
        Interpreter(program, max_configs=max_configs), goal, db
    )
    naive = _solution_set(
        Interpreter(program, max_configs=max_configs, por=False), goal, db
    )
    assert reduced == naive
    assert reduced  # every workload here has at least one solution


#: One-sample genome database: the reducer-off enumeration of the full
#: two-sample profile db takes tens of seconds, and one sample already
#: exercises every rule (it is exactly the genome_statespace config db).
_GENOME_ONE = (
    "workitem(dna01). available(ana). available(raj). "
    "qualified(ana, tech). qualified(raj, tech). qualified(raj, reader)."
)


class TestPartialOrderReductionInvisible:
    """POR on/off: identical answer sets and final databases."""

    def test_bank_transfer(self):
        assert_por_invisible(
            parse_program(_BANK_TD),
            parse_goal("transfer(a, b, 30)"),
            parse_database("balance(a, 100). balance(b, 10)."),
        )

    def test_path_tabled(self):
        assert_por_invisible(
            parse_program(_PATH_TD),
            parse_goal("path(a, X)"),
            parse_database("e(a, b). e(b, c). e(c, d). e(d, e). e(e, f)."),
        )

    def test_genome_simulate(self):
        assert_por_invisible(
            parse_program(_GENOME_TD), parse_goal("simulate"),
            parse_database(_GENOME_ONE),
        )

    def test_conc_fanout(self):
        assert_por_invisible(
            parse_program(_FANOUT_TD), parse_goal("spawn"),
            parse_database("item(j1). item(j2). item(j3). item(j4). item(j5)."),
        )

    def test_lab_workflow(self):
        from repro.core.formulas import Call
        from repro.core.terms import atom
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator()
        assert_por_invisible(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(1)),
        )


class TestPorInvisibleOnChaosWorkloads:
    """The six chaos workloads' programs (docs/ROBUSTNESS.md), unfaulted:
    the reducer must be invisible on the very shapes the chaos gate
    perturbs.  (Under fault injection the interpreter bypasses the
    reducer entirely -- see TestPorDisabledUnderFaults.)"""

    def test_bank_transfer(self):
        from repro.faults.chaos import _BANK_DB, _BANK_TD as BANK

        assert_por_invisible(
            parse_program(BANK),
            parse_goal("transfer(a, b, 30)"),
            parse_database(_BANK_DB),
        )

    def test_path_query(self):
        from repro.faults.chaos import _PATH_DB, _PATH_TD as PATH

        assert_por_invisible(
            parse_program(PATH),
            parse_goal("path(a, Y) * ins.reached(Y)"),
            parse_database(_PATH_DB),
        )

    def test_genome_simulate(self):
        from repro.faults.chaos import _GENOME_TD as GENOME

        assert_por_invisible(
            parse_program(GENOME), parse_goal("simulate"),
            parse_database(_GENOME_ONE),
        )

    def test_genome_iso(self):
        from repro.faults.chaos import _GENOME_ISO_TD

        assert_por_invisible(
            parse_program(_GENOME_ISO_TD), parse_goal("simulate"),
            parse_database(_GENOME_ONE),
        )

    def test_lab_workflow(self):
        from repro.core.formulas import Call
        from repro.core.terms import atom
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator(iterate=False)
        assert_por_invisible(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(1)),
        )

    def test_lab_iterate(self):
        from repro.core.formulas import Call
        from repro.core.terms import atom
        from repro.lims import build_lab_simulator, sample_batch

        sim = build_lab_simulator(iterate=True)
        assert_por_invisible(
            sim.program,
            Call(atom("simulate")),
            sim.initial_database(sample_batch(1)),
        )


class TestPorDisabledUnderFaults:
    def test_reducer_bypassed_when_faults_attached(self, monkeypatch):
        # Fault plans target individual interleavings, so the chaos
        # harness must see the unreduced enumeration: tdlog chaos output
        # stays byte-identical whatever the reducer does.  If the
        # interpreter consulted the reducer here, this run would raise.
        from repro.core import por as por_module
        from repro.faults import FaultInjector, generate_plan

        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("reducer consulted under fault injection")

        monkeypatch.setattr(por_module.PartialOrderReducer, "steps", boom)
        program = parse_program(_BANK_TD)
        plan = generate_plan(seed=3, predicates=("balance",), agents=())
        interp = Interpreter(program, faults=FaultInjector(plan))
        interp.simulate(
            parse_goal("transfer(a, b, 30)"),
            parse_database("balance(a, 100). balance(b, 10)."),
        )
