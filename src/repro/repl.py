"""Interactive Transaction Datalog session (``tdlog repl``).

A small read-eval loop for exploratory TD programming::

    td> rule move(X) <- src(X) * del.src(X) * ins.dst(X).
    td> fact src(a).
    td> fact src(b).
    td> ?- move(X).
    X = a   leaving {dst(a), src(b)}
    X = b   leaving {dst(b), src(a)}
    td> run move(a).
    ... trace ...
    td> commit move(a).
    td> db

Commands:

``rule <rule>``      add a rule to the session program
``fact <atom>.``     insert a fact into the session database
``load <file>``      load rules from a .td file
``loaddb <file>``    load facts from a facts file
``?- <goal>.``       enumerate solutions (database unchanged)
``run <goal>.``      simulate one execution, show its trace
``commit <goal>.``   simulate and *apply* the final state to the session
``why <goal>.``      can the goal commit? plus what failed branches wait for
``classify``         sublanguage analysis of the session program
``program`` / ``db`` show the session rulebase / database
``reset``            clear everything
``quit``             leave

The session database only changes through ``fact``, ``loaddb`` and
``commit`` -- queries and runs are transactional, as the language
intends.
"""

from __future__ import annotations

import sys
from typing import IO, List, Optional

from .core import (
    Database,
    TDError,
    analyze,
    format_database,
    format_program,
    format_trace,
    parse_database,
    parse_goal,
    parse_rules,
    select_engine,
)
from .core.parser import ParseError
from .core.program import Program, Rule

__all__ = ["Repl", "main"]

_PROMPT = "td> "
_MAX_SOLUTIONS = 10


class Repl:
    """The interactive session state and command dispatcher."""

    def __init__(self, out: IO[str] = sys.stdout):
        self.out = out
        self.rules: List[Rule] = []
        self.db = Database()

    # -- helpers ---------------------------------------------------------------

    def _print(self, text: str = "") -> None:
        self.out.write(text + "\n")

    def _program(self) -> Program:
        return Program(self.rules)

    # -- command handlers -----------------------------------------------------------

    def handle(self, line: str) -> bool:
        """Process one input line; returns False when the session ends."""
        line = line.strip()
        if not line or line.startswith("%"):
            return True
        try:
            return self._dispatch(line)
        except (ParseError, TDError, ValueError) as exc:
            self._print("error: %s" % exc)
            return True

    def _dispatch(self, line: str) -> bool:
        if line in ("quit", "exit"):
            self._print("bye.")
            return False
        if line == "reset":
            self.rules = []
            self.db = Database()
            self._print("session cleared.")
            return True
        if line == "program":
            self._print(format_program(self._program()) or "(no rules)")
            return True
        if line == "db":
            self._print(format_database(self.db) or "(empty database)")
            return True
        if line == "classify":
            self._print(analyze(self._program()).report())
            return True
        if line == "help":
            self._print(__doc__.strip())
            return True
        if line.startswith("rule "):
            new_rules = parse_rules(line[len("rule "):])
            self.rules.extend(new_rules)
            self._print("added %d rule(s)." % len(new_rules))
            return True
        if line.startswith("fact "):
            facts = parse_database(line[len("fact "):])
            self.db = self.db.insert_all(facts)
            self._print("inserted %d fact(s)." % len(facts))
            return True
        if line.startswith("load "):
            with open(line[len("load "):].strip()) as handle:
                new_rules = parse_rules(handle.read())
            self.rules.extend(new_rules)
            self._print("loaded %d rule(s)." % len(new_rules))
            return True
        if line.startswith("loaddb "):
            with open(line[len("loaddb "):].strip()) as handle:
                facts = parse_database(handle.read())
            self.db = self.db.insert_all(facts)
            self._print("loaded %d fact(s)." % len(facts))
            return True
        if line.startswith("?-"):
            self._solve(line[2:].strip().rstrip("."))
            return True
        if line.startswith("run "):
            self._run(line[len("run "):].strip().rstrip("."), commit=False)
            return True
        if line.startswith("commit "):
            self._run(line[len("commit "):].strip().rstrip("."), commit=True)
            return True
        if line.startswith("why "):
            self._why(line[len("why "):].strip().rstrip("."))
            return True
        self._print("unknown command (try 'help').")
        return True

    def _solve(self, goal_text: str) -> None:
        goal = parse_goal(goal_text)
        engine = select_engine(self._program(), goal)
        count = 0
        for solution in engine.solve(goal, self.db):
            count += 1
            bindings = ", ".join(
                "%s = %s" % (v, t) for v, t in sorted(solution.bindings.items())
            )
            delta_plus = solution.database.difference(self.db)
            delta_minus = self.db.difference(solution.database)
            delta_bits = []
            if delta_plus:
                delta_bits.append("+{%s}" % ", ".join(str(f) for f in sorted(delta_plus)))
            if delta_minus:
                delta_bits.append("-{%s}" % ", ".join(str(f) for f in sorted(delta_minus)))
            delta = " ".join(delta_bits) if delta_bits else "(no change)"
            self._print("  %s%s" % (bindings + "   " if bindings else "", delta))
            if count >= _MAX_SOLUTIONS:
                self._print("  ... (stopping at %d solutions)" % _MAX_SOLUTIONS)
                break
        if count == 0:
            self._print("  no.")

    def _why(self, goal_text: str) -> None:
        from .obs import explain

        recorder, solutions = explain.explain_goal(
            self._program(), parse_goal(goal_text), self.db, mode="bfs"
        )
        self._print("the goal %s commit" % ("can" if solutions else "cannot"))
        self._print(explain.why_not_report(recorder))

    def _run(self, goal_text: str, commit: bool) -> None:
        goal = parse_goal(goal_text)
        engine = select_engine(self._program(), goal)
        execution = engine.simulate(goal, self.db)
        if execution is None:
            self._print("  cannot commit.")
            return
        self._print(format_trace(execution.trace, indent="  "))
        if commit:
            self.db = execution.database
            self._print("  committed.")

    # -- loop -------------------------------------------------------------------------

    def loop(self, in_stream: IO[str] = sys.stdin, banner: bool = True) -> None:
        if banner:
            self._print("Transaction Datalog repl -- 'help' for commands.")
        while True:
            self.out.write(_PROMPT)
            self.out.flush()
            line = in_stream.readline()
            if not line:
                self._print("")
                return
            if not self.handle(line):
                return


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point for ``python -m repro.repl``.

    Takes the same profiling flags as every other entry point
    (``tdlog repl --profile`` routes through :mod:`repro.cli` and gets
    them there; this covers direct module invocation).
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="repro.repl", description="interactive Transaction Datalog session"
    )
    parser.add_argument(
        "--profile", action="store_true",
        help="print an engine metrics summary when the session ends",
    )
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write the session's span trace as JSON lines to FILE (overwrites)",
    )
    parser.add_argument(
        "--trace-append", action="store_true",
        help="append to --trace-out instead of overwriting it",
    )
    args = parser.parse_args(argv)
    if not (args.profile or args.trace_out):
        Repl(out=sys.stdout).loop(in_stream=sys.stdin)
        return 0

    from .obs import Instrumentation, instrumented, render_report

    inst = Instrumentation.create()
    try:
        with instrumented(inst):
            Repl(out=sys.stdout).loop(in_stream=sys.stdin)
    finally:
        if args.trace_out:
            inst.tracer.write_jsonl(args.trace_out, append=args.trace_append)
        if args.profile:
            print(render_report(inst))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via entry point
    sys.exit(main())
