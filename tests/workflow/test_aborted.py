"""Aborted terminations are recorded distinctly: compiler abort rules,
monitor queries, and event-log records."""

import json

import pytest

from repro.core.database import Database
from repro.core.terms import atom
from repro.datalog import evaluate
from repro.faults import AgentOutage, FaultPlan, Window
from repro.workflow import (
    Agent,
    SeqFlow,
    Step,
    Task,
    WorkflowSimulator,
    WorkflowSpec,
)
from repro.workflow.compiler import compile_workflows
from repro.workflow.eventlog import event_log, timeline, to_json
from repro.workflow.monitor import (
    aborted_tasks,
    failed_items,
    history_program,
    in_progress,
    status_report,
)


def spec():
    return WorkflowSpec(
        "flow",
        SeqFlow(Step("prep"), Step("scan")),
        (Task("prep", role="t"), Task("scan", None)),
    )


@pytest.fixture
def outage_result():
    """One item run while the only qualified agent is permanently out:
    ``prep`` aborts (graceful degradation), ``scan`` still completes."""
    sim = WorkflowSimulator(
        [spec()], agents=[Agent("ada", ("t",))], abortable=True
    )
    plan = FaultPlan(0, outages=(AgentOutage("ada", Window(0, None)),))
    return sim.run(["w1"], fault_plan=plan)


class TestCompiler:
    def test_abortable_adds_a_last_resort_rule_per_task(self):
        plain = compile_workflows([spec()])
        degraded = compile_workflows([spec()], abortable=True)
        assert len(degraded.rules) == len(plain.rules) + 2
        rendered = [str(r) for r in degraded.rules]
        assert any("aborted" in r for r in rendered)
        assert not any("aborted" in str(r) for r in plain.rules)

    def test_abort_rule_listed_after_the_normal_rule(self):
        # DFS honors program order, so the normal rule must come first
        # or every task would abort even with agents available.
        rules = compile_workflows([spec()], abortable=True).rules
        prep = [str(r) for r in rules if str(r.head).startswith("task_prep")]
        assert len(prep) == 2
        assert "done" in prep[0] and "aborted" in prep[1]

    def test_unfaulted_abortable_run_never_aborts(self):
        sim = WorkflowSimulator(
            [spec()], agents=[Agent("ada", ("t",))], abortable=True
        )
        result = sim.run(["w1", "w2"])
        assert not list(result.history.facts("aborted"))
        assert result.completed("prep") == ["w1", "w2"]


class TestOutageRun:
    def test_aborted_recorded_distinctly_from_done(self, outage_result):
        history = outage_result.history
        assert aborted_tasks(history) == [("prep", "w1")]
        done = {str(f.args[0]) for f in history.facts("done")}
        assert "prep" not in done and "scan" in done

    def test_aborted_attempts_are_not_in_progress(self, outage_result):
        assert in_progress(outage_result.history) == []

    def test_failed_items_require_no_later_completion(self, outage_result):
        assert failed_items(outage_result.history) == ["w1"]

    def test_status_report_lists_aborts_and_failures(self, outage_result):
        text = status_report(outage_result.history)
        assert "aborted attempts: prep/w1" in text
        assert "failed items: w1" in text


class TestMonitorQueries:
    def test_completion_of_the_same_task_recovers_the_item(self):
        db = Database([
            atom("started", "prep", "w1"),
            atom("aborted", "prep", "w1"),
            atom("started", "prep", "w1"),
            atom("done", "prep", "w1", "ada"),
        ])
        assert aborted_tasks(db) == [("prep", "w1")]
        assert failed_items(db) == []

    def test_history_program_derives_failed_view(self):
        failed_db = Database([
            atom("started", "prep", "w1"),
            atom("aborted", "prep", "w1"),
        ])
        facts = evaluate(history_program(), failed_db)
        assert atom("failed", "w1") in facts
        recovered_db = failed_db.insert(atom("done", "prep", "w1", "ada"))
        assert atom("failed", "w1") not in evaluate(
            history_program(), recovered_db
        )


class TestEventLog:
    def test_task_aborted_record_closes_the_started_pair(self, outage_result):
        records = event_log(outage_result)
        kinds = [(r.kind, r.task, r.item) for r in records]
        assert ("task_aborted", "prep", "w1") in kinds
        start = next(
            r.seq for r in records
            if r.kind == "task_started" and r.task == "prep"
        )
        abort = next(r.seq for r in records if r.kind == "task_aborted")
        assert start < abort

    def test_timeline_and_json_render_aborts(self, outage_result):
        assert "task_aborted" in timeline(outage_result)
        payload = json.loads(to_json(outage_result))
        assert any(r["kind"] == "task_aborted" for r in payload)


class TestRetryRecovery:
    def test_transient_outage_commits_via_retry(self):
        sim = WorkflowSimulator([spec()], agents=[Agent("ada", ("t",))])
        plan = FaultPlan(0, outages=(AgentOutage("ada", Window(0, 8)),))
        result = sim.run(
            ["w1"], fault_plan=plan, retry_attempts=10, retry_budget=50_000
        )
        assert result.completed("prep") == ["w1"]
        assert not list(result.history.facts("aborted"))
