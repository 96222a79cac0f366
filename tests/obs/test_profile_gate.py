"""Counter baselines and the regression-gate diff (tdlog profile ...)."""

import json
import os

import pytest

from repro.cli import main
from repro.obs.analyze import (
    capture_snapshot,
    diff_baselines,
    diff_snapshot,
    load_baseline,
    profile_suite,
    render_diff,
    suite_config,
    write_baselines,
)

#: The quick configs used for gate-mechanics tests (the full suite runs
#: once, in TestCommittedBaselines).
FAST = ("bank_transfer", "path_tabled")


def fast_configs():
    return [suite_config(name) for name in FAST]


class TestSuite:
    def test_suite_names_unique_and_nonempty(self):
        names = [c.name for c in profile_suite()]
        assert len(names) == len(set(names)) and len(names) >= 5

    def test_unknown_config_rejected(self):
        with pytest.raises(KeyError):
            suite_config("nope")

    def test_capture_is_deterministic_in_process(self):
        for config in fast_configs():
            assert capture_snapshot(config) == capture_snapshot(config)

    def test_capture_has_the_gate_counters(self):
        snapshot = capture_snapshot(suite_config("genome_simulate"))
        assert "search.configs_expanded" in snapshot["counters"]
        assert "unify.attempts" in snapshot["counters"]
        snapshot = capture_snapshot(suite_config("bank_transfer"))
        assert "table.misses" in snapshot["counters"]


class TestBaselineFiles:
    def test_write_load_round_trip(self, tmp_path):
        paths = write_baselines(str(tmp_path), fast_configs())
        assert [os.path.basename(p) for p in paths] == [
            "bank_transfer.json", "path_tabled.json",
        ]
        record = load_baseline(paths[0])
        assert record["config"] == "bank_transfer"
        assert record["counters"]

    def test_schema_mismatch_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"schema": 99, "counters": {}}))
        with pytest.raises(ValueError, match="schema"):
            load_baseline(str(path))


class TestDiff:
    def test_clean_diff_passes(self, tmp_path):
        write_baselines(str(tmp_path), fast_configs())
        reports, problems = diff_baselines(str(tmp_path), configs=fast_configs())
        assert not problems
        assert all(r.ok for r in reports)

    def test_missing_baseline_is_a_problem(self, tmp_path):
        reports, problems = diff_baselines(
            str(tmp_path), configs=[suite_config("bank_transfer")]
        )
        assert not reports and len(problems) == 1

    def test_regression_detected_in_both_directions(self):
        base = {"config": "x", "counters": {"c": 100}, "gauges": {}, "info": {}}
        up = {"counters": {"c": 110}, "gauges": {}, "info": {}}
        down = {"counters": {"c": 90}, "gauges": {}, "info": {}}
        assert diff_snapshot(base, up).failures[0].status == "regressed"
        assert diff_snapshot(base, down).failures[0].status == "improved"
        assert not diff_snapshot(base, dict(base)).failures

    def test_missing_and_new_counters(self):
        base = {"config": "x", "counters": {"gone": 5}, "gauges": {}, "info": {}}
        cur = {"counters": {"fresh": 5}, "gauges": {}, "info": {}}
        statuses = {d.name: d.status for d in diff_snapshot(base, cur).deltas}
        assert statuses["gone"] == "missing"
        assert statuses["fresh"] == "new"
        report = diff_snapshot(base, cur)
        assert not report.ok  # missing fails; new alone does not
        assert all(d.status != "missing" or not d.ok for d in report.deltas)

    def test_info_change_fails_the_gate(self):
        base = {
            "config": "x", "counters": {}, "gauges": {},
            "info": {"engine.backend": "DatalogReader"},
        }
        cur = {"counters": {}, "gauges": {}, "info": {"engine.backend": "Interpreter"}}
        report = diff_snapshot(base, cur)
        assert [d.status for d in report.deltas] == ["changed"]
        assert not report.ok

    def test_render_shows_drift_and_summary(self):
        base = {"config": "cfg", "counters": {"c": 10}, "gauges": {}, "info": {}}
        cur = {"counters": {"c": 12}, "gauges": {}, "info": {}}
        text = render_diff([diff_snapshot(base, cur)])
        assert "cfg: DRIFT" in text
        assert "regressed" in text and "10 -> 12" in text
        assert "1 drifted" in text


class TestCli:
    def test_baseline_then_diff_green(self, tmp_path, capsys):
        out_dir = str(tmp_path / "baselines")
        rc = main(
            ["profile", "baseline", "--out", out_dir]
            + [arg for name in FAST for arg in ("--only", name)]
        )
        assert rc == 0
        assert "wrote" in capsys.readouterr().out
        rc = main(
            ["profile", "diff", "--baseline-dir", out_dir]
            + [arg for name in FAST for arg in ("--only", name)]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 drifted" in out

    def test_injected_regression_exits_nonzero(self, tmp_path, capsys):
        out_dir = str(tmp_path / "baselines")
        main(["profile", "baseline", "--out", out_dir, "--only", "bank_transfer"])
        capsys.readouterr()
        path = os.path.join(out_dir, "bank_transfer.json")
        with open(path) as handle:
            record = json.load(handle)
        record["counters"]["unify.attempts"] -= 1  # pretend we got faster
        with open(path, "w") as handle:
            json.dump(record, handle)
        rc = main(
            ["profile", "diff", "--baseline-dir", out_dir, "--only", "bank_transfer"]
        )
        out = capsys.readouterr().out
        assert rc == 1
        assert "unify.attempts" in out and "DRIFT" in out

    def test_missing_baseline_dir_exits_nonzero(self, tmp_path, capsys):
        rc = main(
            [
                "profile", "diff",
                "--baseline-dir", str(tmp_path / "nope"),
                "--only", "bank_transfer",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 1 and "MISSING" in out


class TestCommittedBaselines:
    """The committed snapshots must match a fresh capture -- this is the
    same check the CI profile-gate job runs."""

    def test_committed_baselines_in_sync(self):
        baseline_dir = os.path.join(
            os.path.dirname(__file__), "..", "..", "benchmarks", "baselines"
        )
        reports, problems = diff_baselines(os.path.abspath(baseline_dir))
        assert not problems, problems
        bad = [d for r in reports for d in r.failures]
        assert not bad, render_diff(reports, problems)
