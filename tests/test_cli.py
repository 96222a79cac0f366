"""Tests for the tdlog command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def bank_files(tmp_path):
    program = tmp_path / "bank.td"
    program.write_text(
        """
        transfer(F, T, Amt) <- iso(withdraw(F, Amt) * deposit(T, Amt)).
        withdraw(Acct, Amt) <-
            balance(Acct, Bal) * Bal >= Amt *
            del.balance(Acct, Bal) * B2 is Bal - Amt * ins.balance(Acct, B2).
        deposit(Acct, Amt) <-
            balance(Acct, Bal) *
            del.balance(Acct, Bal) * B2 is Bal + Amt * ins.balance(Acct, B2).
        """
    )
    db = tmp_path / "bank.facts"
    db.write_text("balance(a, 100). balance(b, 10).")
    return str(program), str(db)


class TestClassify:
    def test_report_printed(self, bank_files, capsys):
        program, _db = bank_files
        assert main(["classify", program]) == 0
        out = capsys.readouterr().out
        assert "sublanguage:" in out

    def test_goal_flag(self, bank_files, capsys):
        program, _db = bank_files
        assert main(["classify", program, "--goal", "transfer(a, b, 1)"]) == 0


class TestSolve:
    def test_success_prints_solution(self, bank_files, capsys):
        program, db = bank_files
        code = main(["solve", program, "--goal", "transfer(a, b, 30)", "--db", db])
        assert code == 0
        out = capsys.readouterr().out
        assert "balance(a, 70)" in out
        assert "balance(b, 40)" in out

    def test_failure_exit_code(self, bank_files, capsys):
        program, db = bank_files
        code = main(["solve", program, "--goal", "transfer(b, a, 999)", "--db", db])
        assert code == 1
        assert "cannot commit" in capsys.readouterr().out

    def test_bindings_printed(self, tmp_path, capsys):
        program = tmp_path / "q.td"
        program.write_text("pick(X) <- item(X).")
        db = tmp_path / "q.facts"
        db.write_text("item(a). item(b).")
        assert main(["solve", str(program), "--goal", "pick(Y)", "--db", str(db)]) == 0
        out = capsys.readouterr().out
        assert "Y = a" in out and "Y = b" in out

    def test_limit_flag(self, tmp_path, capsys):
        program = tmp_path / "q.td"
        program.write_text("pick(X) <- item(X).")
        db = tmp_path / "q.facts"
        db.write_text("item(a). item(b). item(c).")
        main([
            "solve", str(program), "--goal", "pick(Y)", "--db", str(db),
            "--limit", "1",
        ])
        out = capsys.readouterr().out
        assert out.count("solution") == 1


class TestRun:
    def test_trace_and_final_db(self, bank_files, capsys):
        program, db = bank_files
        code = main(["run", program, "--goal", "transfer(a, b, 30)", "--db", db])
        assert code == 0
        out = capsys.readouterr().out
        assert "trace:" in out
        assert "iso:" in out
        assert "final database:" in out

    def test_no_execution(self, bank_files, capsys):
        program, db = bank_files
        code = main(["run", program, "--goal", "transfer(a, b, 9999)", "--db", db])
        assert code == 1

    def test_seed_flag(self, bank_files):
        program, db = bank_files
        assert main([
            "run", program, "--goal", "transfer(a, b, 1)", "--db", db,
            "--seed", "3",
        ]) == 0

    def test_without_db_file(self, tmp_path):
        program = tmp_path / "p.td"
        program.write_text("go <- ins.done.")
        assert main(["run", str(program), "--goal", "go"]) == 0


class TestGraph:
    def test_stats_printed(self, tmp_path, capsys):
        program = tmp_path / "p.td"
        program.write_text("go <- ins.a.\ngo <- never(x).")
        code = main(["graph", str(program), "--goal", "go"])
        assert code == 0
        out = capsys.readouterr().out
        assert "states:" in out and "stuck:      1" in out

    def test_dot_export(self, tmp_path, capsys):
        program = tmp_path / "p.td"
        program.write_text("go <- ins.a * ins.b.")
        dot = tmp_path / "g.dot"
        assert main(["graph", str(program), "--goal", "go", "--dot", str(dot)]) == 0
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "doublecircle" in text  # the final state

    def test_show_stuck_trace(self, tmp_path, capsys):
        program = tmp_path / "p.td"
        program.write_text("go <- blocked(x) * ins.a.")
        assert main(["graph", str(program), "--goal", "go", "--show-stuck"]) == 0
        out = capsys.readouterr().out
        assert "first stuck state" in out


class TestWhyNot:
    """``explain --why-not`` answers "why can't this commit?"."""

    def test_commit_case_exit_zero(self, tmp_path, capsys):
        program = tmp_path / "p.td"
        program.write_text("go <- ins.a.")
        assert main(["explain", str(program), "--goal", "go", "--why-not"]) == 0
        assert "1 solution(s) exist" in capsys.readouterr().out

    def test_failure_case_explains(self, tmp_path, capsys):
        program = tmp_path / "p.td"
        program.write_text("go <- permit(W) * ins.a.")
        assert main(["explain", str(program), "--goal", "go", "--why-not"]) == 1
        out = capsys.readouterr().out
        assert "blocked    1x on: waiting for fact permit(W)" in out

    def test_diagnose_is_gone(self, tmp_path):
        program = tmp_path / "p.td"
        program.write_text("go <- ins.a.")
        with pytest.raises(SystemExit):
            main(["diagnose", str(program), "--goal", "go"])


@pytest.mark.parametrize(
    "argv", [["repl"], ["analyze", "--demo-lab", "2"], ["profile", "export-otlp"]]
)
def test_retired_command_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


class TestBench:
    def test_table_and_json(self, tmp_path, capsys):
        out = tmp_path / "timings.json"
        code = main([
            "bench", "--only", "bank_transfer", "--repeat", "1",
            "--json", str(out),
        ])
        assert code == 0
        table = capsys.readouterr().out
        assert "bank_transfer" in table
        assert "best (ms)" in table
        rows = json.loads(out.read_text())
        assert rows[0]["config"] == "bank_transfer"
        assert rows[0]["repeat"] == 1
        assert rows[0]["best_ms"] > 0

    def test_bad_repeat_rejected(self, capsys):
        assert main(["bench", "--repeat", "0", "--only", "bank_transfer"]) == 2

    def test_unknown_config_raises(self):
        with pytest.raises(KeyError):
            main(["bench", "--only", "not_a_config", "--repeat", "1"])


class TestExplainCli:
    def test_proof_tree_printed(self, bank_files, capsys):
        program, db = bank_files
        code = main(["explain", program, "--goal", "transfer(a, b, 30)",
                     "--db", db])
        assert code == 0
        out = capsys.readouterr().out
        assert "1 solution(s); proof tree:" in out
        assert "+balance(a, 70)" in out

    def test_why_not_on_failure(self, bank_files, capsys):
        program, db = bank_files
        code = main(["explain", program, "--goal", "transfer(b, a, 999)",
                     "--db", db])
        assert code == 1
        out = capsys.readouterr().out
        assert "dispositions:" in out

    def test_why_not_flag_on_success(self, bank_files, capsys):
        program, db = bank_files
        code = main(["explain", program, "--goal", "transfer(a, b, 30)",
                     "--db", db, "--why-not"])
        assert code == 0
        assert "solution(s) exist" in capsys.readouterr().out

    def test_json_and_dot_outputs(self, bank_files, tmp_path, capsys):
        program, db = bank_files
        prov = tmp_path / "prov.jsonl"
        dot = tmp_path / "prov.dot"
        code = main(["explain", program, "--goal", "transfer(a, b, 30)",
                     "--db", db, "--json", str(prov), "--dot", str(dot)])
        assert code == 0
        from repro.obs import ProvenanceRecorder

        reloaded = ProvenanceRecorder.from_jsonl(prov.read_text())
        assert reloaded.solutions()
        assert dot.read_text().startswith("digraph provenance {")

    def test_mode_flag(self, bank_files, capsys):
        program, db = bank_files
        code = main(["explain", program, "--goal", "transfer(a, b, 30)",
                     "--db", db, "--mode", "dfs"])
        assert code == 0
        assert "proof tree:" in capsys.readouterr().out

    def test_requires_program_and_goal(self, capsys):
        assert main(["explain"]) == 2

    def test_audit_suite(self, capsys):
        code = main(["explain", "--audit-por", "--suite", "bank_transfer"])
        assert code == 0
        out = capsys.readouterr().out
        assert "audit bank_transfer" in out and "OK" in out

    def test_audit_goal(self, bank_files, capsys):
        program, db = bank_files
        code = main(["explain", program, "--goal", "transfer(a, b, 30)",
                     "--db", db, "--audit-por"])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out and "1 reduced vs 1 unreduced" in out
