"""Answer explanation: proof trees, why-not reports, and the POR audit."""

import pytest

from repro import parse_database, parse_goal, parse_program
from repro.obs import recording
from repro.obs.analyze import profile_suite
from repro.obs.explain import (
    audit_por_goal,
    audit_profile_config,
    check_ample_witness,
    explain_goal,
    render_proof_tree,
    to_dot,
    verify_execution,
    why_not_report,
)

PROFILE_NAMES = [c.name for c in profile_suite()]


class TestProofTrees:
    """One workload per sublanguage gets a correct, non-empty proof."""

    def test_serial_update_transaction(self, bank_program, bank_db):
        recorder, solutions = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db
        )
        assert len(solutions) == 1
        tree = render_proof_tree(recorder)
        assert "transfer(a, b, 30)" in tree
        # The committed derivation shows the transfer's net updates.
        assert "+balance(a, 70)" in tree and "-balance(a, 100)" in tree
        assert "+balance(b, 40)" in tree
        assert "[solution]" in tree

    def test_tabled_recursive_query(self, tc_program, chain_db):
        recorder, solutions = explain_goal(tc_program, "path(a, X)", chain_db)
        assert len(solutions) == 3  # b, c, d
        tree = render_proof_tree(recorder)
        for answer in ("path(a, b)", "path(a, c)", "path(a, d)"):
            assert answer in tree
        # The reader's fixpoint records each derived fact of the magic
        # program with its premises, under the goal's root.
        facts = {n.label: n for n in recorder.nodes if n.kind == "fact"}
        assert facts["path__bf(a, d)"].witness["premises"]
        root = next(n for n in recorder.nodes if n.parent is None)
        assert root.label == "path(a, X)"

    def test_concurrent_simulation(self, simulate_program):
        db = parse_database("workitem(w1). workitem(w2).")
        recorder, solutions = explain_goal(
            simulate_program, "simulate", db, mode="bfs"
        )
        assert solutions
        tree = render_proof_tree(recorder)
        assert "+done(w1)" in tree and "+done(w2)" in tree

    def test_datalog_fact_provenance(self, tc_program, chain_db):
        from repro.core.terms import atom
        from repro.datalog import evaluate, from_td

        with recording() as recorder:
            facts = evaluate(from_td(tc_program), chain_db)
        assert atom("path", "a", "d") in facts
        derived = [n for n in recorder.nodes if n.kind == "fact"]
        assert derived
        by_label = {n.label: n for n in derived}
        # path(a, d) is derived from a premise recorded earlier in the DAG.
        assert "path(a, d)" in by_label
        witness = by_label["path(a, d)"].witness
        assert witness.get("premises"), "derived fact must name its premises"

    def test_bfs_and_dfs_agree(self, bank_program, bank_db):
        rec_bfs, bfs = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="bfs"
        )
        rec_dfs, dfs = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="dfs"
        )
        assert len(bfs) == 1 and len(dfs) == 1
        assert bfs[0].database == dfs[0].database
        assert rec_bfs.solutions() and rec_dfs.solutions()

    def test_dfs_trace_is_a_checkable_certificate(self, bank_program, bank_db):
        _, solutions = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="dfs"
        )
        assert verify_execution(solutions[0], bank_db)
        # Tampering with the claimed final state must fail the check.
        import dataclasses

        from repro.core.terms import atom

        forged = solutions[0].database.insert(atom("balance", "c", 1))
        tampered = dataclasses.replace(solutions[0], database=forged)
        assert not verify_execution(tampered, bank_db)

    def test_bad_mode_rejected(self, bank_program, bank_db):
        with pytest.raises(ValueError):
            explain_goal(bank_program, "transfer(a, b, 30)", bank_db, mode="x")


class TestWhyNot:
    def test_failed_goal_reports_dead_branches(self, bank_program, bank_db):
        recorder, solutions = explain_goal(
            bank_program, "transfer(a, b, 999)", bank_db
        )
        assert solutions == []
        assert "no solution recorded" in render_proof_tree(recorder)
        report = why_not_report(recorder)
        assert "dispositions:" in report
        assert "derivation nodes:" in report

    def test_small_step_why_not_shows_deepest_paths(self, bank_program, bank_db):
        recorder, solutions = explain_goal(
            bank_program, "transfer(a, b, 999)", bank_db, mode="bfs"
        )
        assert solutions == []
        report = why_not_report(recorder)
        assert "dead branches" in report
        assert "deepest partial derivations:" in report
        # The search got as far as the balance test before dying.
        assert "withdraw" in report or "transfer" in report

    def test_succeeding_goal_notes_solutions(self, bank_program, bank_db):
        recorder, _ = explain_goal(bank_program, "transfer(a, b, 30)", bank_db)
        report = why_not_report(recorder)
        assert "solution(s) exist" in report

    def test_cost_rollup_cited_when_provided(self, bank_program, bank_db):
        from repro.obs import CostAttributor, attributing

        attr = CostAttributor()
        with attributing(attr):
            recorder, solutions = explain_goal(
                bank_program, "transfer(a, b, 999)", bank_db, mode="bfs"
            )
        attr.mark()
        assert solutions == []
        report = why_not_report(recorder, costs=attr.predicate_rollup())
        assert "attributed cost by predicate" in report
        assert "unify" in report
        # Dead-branch lines cite the cost spent under their predicate.
        assert "(cost:" in report

    def test_no_costs_no_cost_section(self, bank_program, bank_db):
        recorder, _ = explain_goal(
            bank_program, "transfer(a, b, 999)", bank_db, mode="bfs"
        )
        report = why_not_report(recorder)
        assert "attributed cost" not in report


#: ROADMAP item 8's example: a recursive call whose interior the tabled
#: search used to hide in an unrecorded nested search.
GO_Z = """
path(X, Y) <- e(X, Y).
path(X, Y) <- e(X, Z) * path(Z, Y).
go(Y) <- path(a, Y) * ins.done(Y).
"""

#: A staffing hole: the only available agent lacks the qualification.
STAFFING = """
task(W) <- available(A) * qualified(A, sequencer) *
           del.available(A) * ins.done(W, A) * ins.available(A).
"""

MODES = ["auto", "bfs", "dfs"]


def _blockers(report):
    """The ranked ``blocked Nx on: REASON`` lines of a why-not report."""
    return [
        line.split(" on: ", 1)[1]
        for line in report.splitlines()
        if line.startswith("  blocked ")
    ]


def _why_not(text, goal, facts="", mode="auto", top_k=5):
    recorder, solutions = explain_goal(
        parse_program(text), goal, parse_database(facts), mode=mode
    )
    return recorder, solutions, why_not_report(recorder, top_k=top_k)


class TestNestedSearches:
    """Table generations and ``iso`` bodies record under the ``call`` or
    ``iso`` node that started them, so the tabled default search shows
    its dead branches."""

    @pytest.mark.parametrize("mode", ["auto", "bfs"])
    def test_tabled_call_interior_reaches_the_dead_branch(self, mode):
        recorder, solutions, report = _why_not(
            GO_Z, "go(z)", "e(a, b). e(b, c). e(c, d).", mode, top_k=10
        )
        assert solutions == []
        (call,) = [
            n for n in recorder.nodes
            if n.kind == "call" and n.label == "call path(d, z)"
        ]
        leaf = next(
            n for n in recorder.nodes
            if n.label == "e(d, z)" and n.disposition == "failed-unify"
        )
        assert call in recorder.path_to(leaf.node_id)
        assert "waiting for fact e(d, z)" in _blockers(report)

    @pytest.mark.parametrize("mode", MODES)
    def test_staffing_hole_ranked_first(self, mode):
        _, solutions, report = _why_not(
            STAFFING, "task(w1)", "available(ana). qualified(ana, tech).", mode
        )
        assert solutions == []
        assert _blockers(report)[0] == "waiting for fact qualified(ana, sequencer)"

    def test_bank_bfs_records_the_transfer_interior(self, bank_program, bank_db):
        recorder, solutions = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="bfs"
        )
        labels = {n.label for n in recorder.nodes}
        assert {"call withdraw(a, 30)", "call deposit(b, 30)"} <= labels
        assert {"del.balance(a, 100)", "ins.balance(a, 70)",
                "del.balance(b, 10)", "ins.balance(b, 40)"} <= labels
        assert any(n.kind == "iso" for n in recorder.nodes)

    def test_only_the_goals_answers_are_solutions(self, bank_program, bank_db):
        recorder, solutions = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="bfs"
        )
        assert len(solutions) == len(recorder.solutions()) == 1
        assert recorder.by_disposition().get("nested-final", 0) > 0
        assert "note: 1 solution(s) exist" in why_not_report(recorder)
        tree = render_proof_tree(recorder)
        assert "nested-final" not in tree and len(tree.splitlines()) == 2


class TestBlockers:
    """What the dead branches wait for, ranked over the dead leaves (the
    cases the retired ``tdlog diagnose`` covered)."""

    @pytest.mark.parametrize("mode", MODES)
    def test_committing_goal(self, mode):
        _, solutions, report = _why_not("go <- ins.done.", "go", mode=mode)
        assert len(solutions) == 1
        assert "solution(s) exist" in report
        assert _blockers(report) == []

    @pytest.mark.parametrize("mode", MODES)
    def test_missing_fact_identified(self, mode):
        _, solutions, report = _why_not(
            "go <- license(W) * ins.approved(W).", "go", mode=mode
        )
        assert solutions == []
        assert _blockers(report) == ["waiting for fact license(W)"]

    @pytest.mark.parametrize("mode", MODES)
    def test_staffing_hole_reads_clearly(self, mode):
        _, _, report = _why_not(
            STAFFING, "task(w1)", "available(ana). qualified(ana, tech).", mode
        )
        assert "qualified(ana, sequencer)" in _blockers(report)[0]
        assert "deepest partial derivations:" in report

    @pytest.mark.parametrize("mode", MODES)
    def test_guard_failure_identified(self, mode):
        _, _, report = _why_not(
            "go <- bal(B) * B >= 100 * ins.ok.", "go", "bal(10).", mode
        )
        assert _blockers(report) == ["guard fails: 10 >= 100"]

    @pytest.mark.parametrize("mode", MODES)
    def test_absence_blocker_identified(self, mode):
        _, _, report = _why_not(
            "go <- not lock(_) * ins.ok.", "go", "lock(x).", mode
        )
        (reason,) = _blockers(report)
        assert reason.startswith("waiting for absence of lock(")

    @pytest.mark.parametrize("mode", MODES)
    def test_multiple_branches_aggregated(self, mode):
        _, _, report = _why_not(
            "go <- a(x) * ins.ok.\ngo <- b(x) * ins.ok.\ngo <- c(x) * ins.ok.",
            "go", mode=mode,
        )
        assert {"waiting for fact a(x)", "waiting for fact b(x)",
                "waiting for fact c(x)"} <= set(_blockers(report))

    @pytest.mark.parametrize("mode", MODES)
    def test_iso_blockers_labelled(self, mode):
        _, _, report = _why_not(
            "go <- iso(token(t) * del.token(t)).", "go", mode=mode
        )
        assert _blockers(report) == ["inside iso: waiting for fact token(t)"]

    @pytest.mark.parametrize("mode", MODES)
    def test_top_limits_report(self, mode):
        rules = "\n".join("go <- p%d(x) * ins.ok." % i for i in range(10))
        _, _, report = _why_not(rules, "go", mode=mode, top_k=3)
        assert len(_blockers(report)) == 3

    @pytest.mark.parametrize("mode", MODES)
    def test_blocker_inside_iso_with_updates(self, mode):
        # The failure point is mid-way through an isolated body (an
        # overdraft guard), past a step the body already took.
        _, _, report = _why_not(
            """
            transfer(F, T, Amt) <- iso(
                balance(F, Bal) * Bal >= Amt *
                del.balance(F, Bal) * B2 is Bal - Amt * ins.balance(F, B2)
            ).
            """,
            "transfer(a, b, 500)", "balance(a, 100).", mode,
        )
        assert _blockers(report) == ["inside iso: guard fails: 100 >= 500"]

    @pytest.mark.parametrize("mode", MODES)
    def test_missing_fact_inside_iso(self, mode):
        _, _, report = _why_not("t <- iso(permit(x) * ins.ok * del.ok).", "t", mode=mode)
        assert _blockers(report) == ["inside iso: waiting for fact permit(x)"]

    def test_bfs_and_dfs_mark_dead_ends_alike(self):
        # Both schedulers run one expansion, which marks a configuration
        # failed-unify only when it had no step at all: one whose every
        # step leads into a dead configuration keeps its disposition.
        dispositions = [
            _why_not("p <- ins.z.", "ins.a * license(W) * ins.b", mode=mode)[0]
            .by_disposition()
            for mode in ("bfs", "dfs")
        ]
        assert dispositions[0] == dispositions[1] == {"root": 1, "dead-config": 1}


class TestDot:
    def test_dot_output_shape(self, bank_program, bank_db):
        recorder, _ = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="bfs"
        )
        dot = to_dot(recorder)
        assert dot.startswith("digraph provenance {") and dot.endswith("}")
        assert "palegreen" in dot  # the solution node is highlighted
        assert "->" in dot

    def test_dot_truncation_keeps_solution_ancestry(self, bank_program, bank_db):
        recorder, _ = explain_goal(
            bank_program, "transfer(a, b, 30)", bank_db, mode="bfs"
        )
        dot = to_dot(recorder, max_nodes=5)
        assert "palegreen" in dot


class TestWitnessCheck:
    def test_missing_witness_is_a_problem(self):
        assert check_ample_witness(None) is not None
        assert check_ample_witness({}) is not None

    def test_commuting_witness_passes(self):
        witness = {
            "ample": "env",
            "ample_frontier": {"reads": ["pending"], "inserts": [], "deletes": []},
            "competitors": {"reads": [], "inserts": [], "deletes": []},
            "competitor_shared_vars": [],
            "pruned": [
                {
                    "branch": "other",
                    "closure": {
                        "reads": ["workitem"],
                        "inserts": ["done"],
                        "deletes": ["workitem"],
                    },
                    "shared_vars": [],
                }
            ],
        }
        assert check_ample_witness(witness) is None

    def test_read_write_conflict_detected(self):
        witness = {
            "ample_frontier": {"reads": ["x"], "inserts": [], "deletes": []},
            "competitors": {"reads": [], "inserts": [], "deletes": []},
            "competitor_shared_vars": [],
            "pruned": [
                {
                    "branch": "b",
                    "closure": {"reads": [], "inserts": ["x"], "deletes": []},
                    "shared_vars": [],
                }
            ],
        }
        problem = check_ample_witness(witness)
        assert problem is not None and "conflicts" in problem

    def test_shared_variables_detected(self):
        witness = {
            "ample_frontier": {"reads": [], "inserts": [], "deletes": []},
            "competitors": {"reads": [], "inserts": [], "deletes": []},
            "competitor_shared_vars": ["W"],
            "pruned": [],
        }
        problem = check_ample_witness(witness)
        assert problem is not None and "variables" in problem


class TestPorAudit:
    def test_goal_audit_on_bank(self, bank_program, bank_db):
        audit = audit_por_goal(bank_program, "transfer(a, b, 30)", bank_db)
        assert audit.ok, audit.render()
        assert audit.solutions_reduced == audit.solutions_full == 1
        assert "OK" in audit.render()

    def test_goal_audit_on_concurrent_program(self, simulate_program):
        db = parse_database("workitem(w1). workitem(w2). workitem(w3).")
        audit = audit_por_goal(simulate_program, "simulate", db)
        assert audit.ok, audit.render()
        assert audit.pruned > 0, "fanout must exercise the reducer"
        assert audit.solutions_reduced == audit.solutions_full

    @pytest.mark.parametrize("name", PROFILE_NAMES)
    def test_profile_suite_audits_clean(self, name):
        audit = audit_profile_config(name)
        assert audit.ok, audit.render()
