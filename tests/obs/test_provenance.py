"""Provenance recorder: round-trip, taxonomy, and the zero-cost-off guard."""

import json

import pytest

from repro import Interpreter, parse_database, parse_goal, parse_program, select_engine
from repro.obs import (
    Instrumentation,
    ProvenanceRecorder,
    active_recorder,
    instrumented,
    recording,
)
from repro.obs.provenance import (
    DISPOSITIONS,
    action_delta,
    config_digest,
    render_bindings,
)

BANK_TEXT = """
    transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
    withdraw(Acct, Amt) <-
        balance(Acct, Bal) * Bal >= Amt *
        del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
    deposit(Acct, Amt) <-
        balance(Acct, Bal) *
        del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""


def bank_run(provenance):
    """One BFS bank transfer with the given recorder attached.

    Untabled: these tests pin the recorder's *small-step* node shape
    (per-step bindings, rule unifiers); the tabled big-step path has its
    own provenance coverage in tests/core/test_tabling.py."""
    program = parse_program(BANK_TEXT)
    db = parse_database("balance(a, 100). balance(b, 10).")
    interp = Interpreter(program, tabling=False)
    if provenance is None:
        return list(interp.solve(parse_goal("transfer(a, b, 30)"), db))
    with recording(provenance):
        return list(interp.solve(parse_goal("transfer(a, b, 30)"), db))


class TestRecorder:
    def test_records_a_derivation_tree(self):
        rec = ProvenanceRecorder()
        solutions = bank_run(rec)
        assert len(solutions) == 1
        assert rec.nodes
        roots = [n for n in rec.nodes if n.parent is None]
        assert len(roots) == 1 and roots[0].disposition == "root"
        assert rec.solutions(), "the committed branch must be marked"
        # Every solution's ancestry chains back to the root.
        for sol in rec.solutions():
            path = rec.path_to(sol.node_id)
            assert path[0].node_id == roots[0].node_id
            assert path[-1] is sol

    def test_dispositions_stay_in_taxonomy(self):
        rec = ProvenanceRecorder()
        bank_run(rec)
        for node in rec.nodes:
            assert node.disposition in DISPOSITIONS

    def test_step_nodes_carry_bindings_and_deltas(self):
        rec = ProvenanceRecorder()
        bank_run(rec)
        sol = rec.solutions()[0]
        path = rec.path_to(sol.node_id)
        # The committing iso step nets the transfer's four updates.
        deltas = [n for n in path if n.inserted or n.deleted]
        assert deltas, "proof path must show database deltas"
        all_ins = [f for n in path for f in n.inserted]
        assert any(f.startswith("balance(a, 70)") for f in all_ins)
        assert any(n.bindings for n in path)

    def test_cap_drops_and_counts(self):
        rec = ProvenanceRecorder(max_nodes=2)
        assert rec.record("config", "a") == 0
        assert rec.record("config", "b", parent=0) == 1
        assert rec.record("config", "c", parent=0) is None
        assert rec.dropped == 1
        rec.mark(None, "solution")  # tolerated, no-op

    def test_mark_never_downgrades_solution(self):
        rec = ProvenanceRecorder()
        nid = rec.record("config", "goal")
        rec.mark(nid, "solution", witness={"answers": ["x"]})
        rec.mark(nid, "failed-unify")
        assert rec.nodes[nid].disposition == "solution"
        assert rec.nodes[nid].witness == {"answers": ["x"]}

    def test_parent_stack(self):
        rec = ProvenanceRecorder()
        outer = rec.record("call", "p(X)")
        inner = rec.record("call", "q(X)", parent=outer)
        assert rec.nodes[inner].parent == outer
        assert rec.nodes[inner].depth == 1


class TestRoundTrip:
    def test_jsonl_round_trip_is_lossless(self):
        rec = ProvenanceRecorder()
        bank_run(rec)
        reloaded = ProvenanceRecorder.from_jsonl(rec.to_jsonl())
        assert len(reloaded.nodes) == len(rec.nodes)
        for a, b in zip(rec.nodes, reloaded.nodes):
            assert (a.node_id, a.parent, a.kind, a.label) == (
                b.node_id,
                b.parent,
                b.kind,
                b.label,
            )
            assert a.disposition == b.disposition
            assert a.bindings == b.bindings
            assert a.inserted == b.inserted
            assert a.deleted == b.deleted
            assert a.witness == b.witness
            assert a.depth == b.depth
        assert reloaded.by_disposition() == rec.by_disposition()

    def test_round_trip_re_renders_identical_proof(self):
        from repro.obs.explain import render_proof_tree

        rec = ProvenanceRecorder()
        bank_run(rec)
        reloaded = ProvenanceRecorder.from_jsonl(rec.to_jsonl())
        assert render_proof_tree(reloaded) == render_proof_tree(rec)

    def test_spans_are_tracer_compatible(self, tmp_path):
        from repro.obs import read_jsonl

        rec = ProvenanceRecorder()
        bank_run(rec)
        path = tmp_path / "prov.jsonl"
        rec.write_jsonl(str(path))
        spans = read_jsonl(path.read_text())
        assert len(spans) == len(rec.nodes)
        assert all(str(s["span_id"]).startswith("p") for s in spans)
        assert all(str(s["name"]).startswith("prov.") for s in spans)


class TestAmbientActivation:
    def test_off_by_default(self):
        assert active_recorder() is None

    def test_recording_context_nests_and_restores(self):
        with recording() as outer:
            assert active_recorder() is outer
            with recording(ProvenanceRecorder()) as inner:
                assert active_recorder() is inner
            assert active_recorder() is outer
        assert active_recorder() is None

    def test_engines_pick_up_ambient_recorder(self):
        program = parse_program(BANK_TEXT)
        db = parse_database("balance(a, 100). balance(b, 10).")
        with recording() as rec:
            engine = select_engine(program, "transfer(a, b, 30)")
            list(engine.solve("transfer(a, b, 30)", db))
        assert rec.nodes and rec.solutions()


class TestZeroOverheadOff:
    """Recording off must leave the counter stream byte-identical."""

    def _counters(self, provenance):
        inst = Instrumentation.create()
        with instrumented(inst):
            bank_run(provenance)
        snap = inst.metrics.snapshot(include_timers=False)
        return {
            "counters": snap["counters"],
            "gauges": snap["gauges"],
        }

    def test_disabled_runs_are_byte_identical(self):
        a = json.dumps(self._counters(None), sort_keys=True)
        b = json.dumps(self._counters(None), sort_keys=True)
        assert a == b

    def test_recorder_adds_only_prov_counters(self):
        plain = self._counters(None)
        traced = self._counters(ProvenanceRecorder())
        prov_keys = {
            k: v for k, v in traced["counters"].items() if k.startswith("prov.")
        }
        assert prov_keys.get("prov.nodes", 0) > 0
        traced["counters"] = {
            k: v for k, v in traced["counters"].items() if not k.startswith("prov.")
        }
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            traced, sort_keys=True
        )


class TestHelpers:
    def test_render_bindings_caps(self):
        subst = {"V%02d" % i: i for i in range(12)}
        out = render_bindings(subst, limit=8)
        assert len(out) == 9 and out["..."] == "+4 more"

    def test_config_digest_stable_and_distinct(self):
        db1 = parse_database("a(1).")
        db2 = parse_database("a(2).")
        assert config_digest("goal", db1) == config_digest("goal", db1)
        assert config_digest("goal", db1) != config_digest("goal", db2)

    def test_action_delta_flattens_iso(self):
        program = parse_program(BANK_TEXT)
        db = parse_database("balance(a, 100). balance(b, 10).")
        execution = Interpreter(program).simulate(
            parse_goal("transfer(a, b, 30)"), db
        )
        iso_actions = [a for a in execution.trace if a.kind == "iso"]
        assert iso_actions
        ins, dels = action_delta(iso_actions[0])
        assert "balance(a, 70)" in ins and "balance(a, 100)" in dels
