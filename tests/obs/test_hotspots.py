"""Per-rule cost attribution: determinism, off-by-default purity,
export agreement, and the CLI hotspots command."""

import json

import pytest

from repro import (
    Database,
    Interpreter,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)
from repro.cli import main
from repro.obs import CostAttributor, Instrumentation, attributing, instrumented
from repro.obs.analyze import deterministic_record
from repro.obs.context import observed_pulls, observing
from repro.obs.hotspots import UNATTRIBUTED, active_attributor, rule_label
from repro.verify.statespace import explore


class FakeClock:
    """Deterministic monotonic clock: each read advances by one tick."""

    def __init__(self, tick=0.001):
        self.now = 0.0
        self.tick = tick

    def __call__(self):
        self.now += self.tick
        return self.now


BANK_TD = """
transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
withdraw(Acct, Amt) <-
    balance(Acct, Bal) * Bal >= Amt *
    del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
deposit(Acct, Amt) <-
    balance(Acct, Bal) *
    del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
"""

PATH_TD = """
path(X, Y) <- e(X, Y).
path(X, Y) <- e(X, Z) * path(Z, Y).
"""

NONREC_TD = """
audit(A) <- check(A) * ins.audited(A).
check(A) <- account(A).
"""


def run_bank():
    engine = select_engine(parse_program(BANK_TD), "transfer(a, b, 30)")
    db = parse_database("balance(a, 100). balance(b, 10).")
    return list(engine.solve(parse_goal("transfer(a, b, 30)"), db))


def run_path():
    engine = select_engine(parse_program(PATH_TD), "path(a, X)")
    db = parse_database("e(a, b). e(b, c). e(c, d).")
    return list(engine.solve(parse_goal("path(a, X)"), db))


def run_nonrec():
    engine = select_engine(parse_program(NONREC_TD), "audit(X)")
    db = parse_database("account(a1). account(a2).")
    return list(engine.solve(parse_goal("audit(X)"), db))


def run_datalog():
    from repro.datalog import evaluate, from_td

    program = from_td(parse_program(PATH_TD))
    edb = parse_database("e(a, b). e(b, c).")
    return evaluate(program, edb)


def run_statespace():
    from repro.verify import explore

    program = parse_program("p <- ins.a * (ins.b | ins.c).")
    return explore(program, "p", Database(), max_states=1000)


WORKLOADS = [run_bank, run_path, run_nonrec, run_datalog, run_statespace]


def counters_of(run, attribute):
    inst = Instrumentation.create()
    if attribute:
        with attributing(CostAttributor()), instrumented(inst):
            run()
    else:
        with instrumented(inst):
            run()
    return deterministic_record(inst.metrics)


class TestOffByDefault:
    def test_no_ambient_attributor_by_default(self):
        assert active_attributor() is None

    @pytest.mark.parametrize("run", WORKLOADS, ids=lambda f: f.__name__)
    def test_counters_identical_with_attribution(self, run):
        # The attribution layer must not perturb the deterministic
        # counters: snapshots with and without an attributor are equal.
        assert counters_of(run, attribute=False) == counters_of(
            run, attribute=True
        )

    @pytest.mark.parametrize("run", WORKLOADS, ids=lambda f: f.__name__)
    def test_results_unchanged_with_attribution(self, run):
        plain = run()
        with attributing(CostAttributor()):
            attributed = run()
        assert str(plain) == str(attributed)


class TestDeterminism:
    def attribute(self, run):
        attr = CostAttributor(clock=FakeClock())
        with attributing(attr):
            run()
        attr.mark()
        return attr

    @pytest.mark.parametrize("run", WORKLOADS, ids=lambda f: f.__name__)
    def test_two_runs_attribute_identically(self, run):
        first = self.attribute(run)
        second = self.attribute(run)
        assert first.by_key == second.by_key
        assert first.by_path == second.by_path

    def test_unify_attribution_matches_counter(self):
        for run in WORKLOADS:
            attr = CostAttributor()
            inst = Instrumentation.create()
            with attributing(attr), instrumented(inst):
                run()
            attributed = attr.totals().get("unify.attempts", 0.0)
            assert int(attributed) == inst.metrics.counter("unify.attempts")


class TestAccounting:
    def test_time_partitions_across_frames(self):
        # Every clock interval lands in exactly one bucket: the total
        # attributed time equals (last read - first read) of the clock.
        clock = FakeClock()
        attr = CostAttributor(clock=clock)
        start = clock.now
        with attr.frame(phase="a"):
            attr.mark()
            with attr.frame(phase="b", rule="r"):
                attr.mark()
        attr.mark()
        total = attr.totals()["time"]
        assert total == pytest.approx(clock.now - start - clock.tick)

    def test_key_and_path_totals_agree(self):
        attr = CostAttributor(clock=FakeClock())
        with attributing(attr):
            run_bank()
        attr.mark()
        key_totals = attr.totals()
        path_totals = attr.path_totals()
        for kind in set(key_totals) | set(path_totals):
            assert key_totals.get(kind, 0.0) == pytest.approx(
                path_totals.get(kind, 0.0)
            )

    def test_non_lifo_pop_is_tolerated(self):
        attr = CostAttributor(clock=FakeClock())
        outer = attr.push(phase="outer")
        inner = attr.push(phase="inner")
        attr.pop(outer)  # out of order: abandoned generator teardown
        attr.charge("steps.expansions", 1)
        attr.pop(inner)
        key = (UNATTRIBUTED, UNATTRIBUTED, "inner")
        assert attr.by_key[key]["steps.expansions"] == 1

    def test_field_inheritance(self):
        attr = CostAttributor(clock=FakeClock())
        with attr.frame(phase="solve"):
            with attr.frame(rule="r(X)"):
                attr.charge("steps.expansions", 1, predicate="p")
        assert attr.by_key[("r(X)", "p", "solve")]["steps.expansions"] == 1

    def test_observed_pulls_passthrough_when_off(self):
        gen = iter([1, 2, 3])
        assert list(observed_pulls(None, gen, "x")) == [1, 2, 3]

    def test_observing_noop_when_off(self):
        with observing(None, "x"):
            assert active_attributor() is None

    def test_rule_label_strips_renaming(self):
        assert rule_label("path(X#30, Y#30)") == "path(X, Y)"
        assert rule_label("p(a, b)") == "p(a, b)"


class TestUpdateCharges:
    """An update is charged ``db.delta`` once, where it executes: an
    ``iso`` step charges nothing for the updates its nested search
    already charged."""

    DB = "item(a). item(b)."
    ISO_TD = "run <- iso(item(a) * del.item(a) * ins.done(a))."
    CALL_TD = """
    run <- mv(a).
    mv(X) <- item(X) * del.item(X) * ins.done(X).
    """

    def charges(self, text):
        out = []
        for drive in ("solve", "simulate", "explore"):
            program, db = parse_program(text), parse_database(self.DB)
            with attributing() as attr:
                if drive == "solve":
                    list(Interpreter(program).solve("run", db))
                elif drive == "simulate":
                    Interpreter(program).simulate("run", db)
                else:
                    explore(program, "run", db)
            out.append(attr.totals())
        return out

    def test_iso_body_updates_are_charged_once(self):
        iso = self.charges(self.ISO_TD)
        call = self.charges(self.CALL_TD)
        assert [t["db.delta"] for t in iso] == [2, 2, 2]
        assert [t["db.delta"] for t in call] == [2, 2, 2]
        assert iso[2]["steps.expansions"] == call[2]["steps.expansions"] == 5


class TestExports:
    def build(self):
        attr = CostAttributor(clock=FakeClock())
        with attributing(attr):
            run_bank()
            run_path()
        attr.mark()
        return attr

    def test_folded_total_matches_table_total(self):
        attr = self.build()
        folded = attr.folded(kind="time")
        total_us = sum(int(line.rsplit(" ", 1)[1]) for line in folded.splitlines())
        # Integer-microsecond rounding only.
        assert total_us == pytest.approx(attr.totals()["time"] * 1e6, abs=len(folded.splitlines()))

    def test_folded_counter_kind_is_exact(self):
        attr = self.build()
        folded = attr.folded(kind="unify.attempts")
        total = sum(int(line.rsplit(" ", 1)[1]) for line in folded.splitlines())
        assert total == int(attr.totals()["unify.attempts"])

    def test_speedscope_totals_and_schema(self):
        attr = self.build()
        doc = attr.speedscope(kind="time")
        profile = doc["profiles"][0]
        assert profile["type"] == "sampled"
        assert profile["endValue"] == pytest.approx(sum(profile["weights"]))
        assert profile["endValue"] == pytest.approx(attr.totals()["time"] * 1e6)
        assert len(profile["samples"]) == len(profile["weights"])
        nframes = len(doc["shared"]["frames"])
        assert all(0 <= i < nframes for stack in profile["samples"] for i in stack)
        json.loads(attr.speedscope_json())  # round-trips

    def test_merge_sums_aggregates(self):
        a = self.build()
        b = self.build()
        merged = CostAttributor()
        merged.merge(a)
        merged.merge(b)
        assert merged.totals()["unify.attempts"] == pytest.approx(
            a.totals()["unify.attempts"] * 2
        )

    def test_table_renders(self):
        attr = self.build()
        text = attr.table(top=5)
        assert "by rule" in text and "by predicate" in text
        assert "coverage:" in text


class TestCliHotspots:
    def test_hotspots_command(self, tmp_path, capsys):
        folded = tmp_path / "hot.folded"
        speedscope = tmp_path / "hot.speedscope.json"
        payload = tmp_path / "hot.json"
        assert (
            main(
                [
                    "profile",
                    "hotspots",
                    "--only",
                    "bank_transfer",
                    "--only",
                    "path_tabled",
                    "--json",
                    str(payload),
                    "--folded",
                    str(folded),
                    "--speedscope",
                    str(speedscope),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "by rule" in out and "coverage:" in out
        doc = json.loads(payload.read_text())
        for row in doc["configs"]:
            assert row["coverage"]["time"] >= 0.95
            assert row["coverage"]["unify.attempts"] >= 0.95
            assert int(row["unify_attributed"]) == row["unify_counter"]
        # Folded and speedscope weigh the same merged stream.
        folded_total = sum(
            int(line.rsplit(" ", 1)[1])
            for line in folded.read_text().splitlines()
        )
        ss = json.loads(speedscope.read_text())
        assert folded_total == pytest.approx(
            ss["profiles"][0]["endValue"], rel=0.01
        )

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            main(["profile", "hotspots", "--only", "nope"])
