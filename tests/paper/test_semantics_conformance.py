"""Semantic conformance corpus.

Table-driven cases pinning the executional semantics of every language
construct: each entry gives (program, goal, initial db, expected set of
final databases).  The whole corpus runs against the full interpreter,
and -- where the fragment allows -- against the analytic engines too,
so the corpus doubles as a cross-engine contract.
"""

import pytest

from repro import (
    Interpreter,
    SequentialEngine,
    Sublanguage,
    parse_database,
    parse_goal,
    parse_program,
    select_engine,
)

# Each case: (name, program, goal, db, expected final databases)
CASES = [
    # -- elementary operations ------------------------------------------------
    ("test-succeeds", "t <- p(a).", "t", "p(a).", ["p(a)."]),
    ("test-fails", "t <- p(b).", "t", "p(a).", []),
    ("test-binds", "t <- p(X) * ins.got(X).", "t", "p(a). p(b).",
     ["p(a). p(b). got(a).", "p(a). p(b). got(b)."]),
    ("ins-new", "t <- ins.q(a).", "t", "", ["q(a)."]),
    ("ins-existing-noop", "t <- ins.q(a).", "t", "q(a).", ["q(a)."]),
    ("del-existing", "t <- del.q(a).", "t", "q(a). q(b).", ["q(b)."]),
    ("del-absent-noop", "t <- del.q(zz).", "t", "q(a).", ["q(a)."]),
    ("neg-holds", "t <- not p(a) * ins.ok.", "t", "p(b).", ["p(b). ok."]),
    ("neg-fails", "t <- not p(a).", "t", "p(a).", []),
    ("neg-pattern", "t <- not p(_) * ins.ok.", "t", "q(a).", ["q(a). ok."]),
    ("builtin-compare", "t <- v(N) * N > 2 * ins.big(N).", "t", "v(1). v(3).",
     ["v(1). v(3). big(3)."]),
    ("builtin-arith", "t <- v(N) * M is N + 1 * ins.next(M).", "t", "v(4).",
     ["v(4). next(5)."]),
    ("builtin-eq-constants", "t <- a = a * ins.ok.", "t", "", ["ok."]),
    ("builtin-neq-fails", "t <- a != a.", "t", "", []),

    # -- sequential composition -------------------------------------------------
    ("seq-order-visible", "t <- ins.p(a) * p(a) * ins.ok.", "t", "",
     ["p(a). ok."]),
    ("seq-order-matters", "t <- p(a) * ins.p(a).", "t", "", []),
    ("seq-threading", "t <- ins.a * del.a * not a * ins.ok.", "t", "", ["ok."]),
    ("seq-binding-flows", "t <- p(X) * q(X) * ins.both(X).", "t",
     "p(a). p(b). q(b).", ["p(a). p(b). q(b). both(b)."]),

    # -- rules and choice ----------------------------------------------------------
    ("rule-choice", "t <- ins.a.\nt <- ins.b.", "t", "", ["a.", "b."]),
    ("rule-unification", "pick(a).\nt <- pick(X) * ins.out(X).", "t", "",
     ["out(a)."]),
    ("rule-parameter", "m(X) <- ins.mark(X).", "m(v)", "", ["mark(v)."]),
    ("rule-failure-propagates", "t <- sub.\nsub <- p(zz).", "t", "p(a).", []),
    ("nested-calls", "a <- b.\nb <- c.\nc <- ins.deep.", "a", "", ["deep."]),

    # -- concurrency -------------------------------------------------------------------
    ("conc-both-run", "t <- ins.l | ins.r.", "t", "", ["l. r."]),
    ("conc-communication", "p <- msg(X) * ins.got(X).\nq <- ins.msg(m).",
     "p | q", "", ["msg(m). got(m)."]),
    ("conc-needs-partner", "p <- msg(X) * ins.got(X).", "p", "", []),
    ("conc-mutual", "a <- q(x) * ins.p(x).\nb <- ins.q(x) * p(x).", "a | b", "",
     ["q(x). p(x)."]),
    ("conc-shared-variable", "l(X) <- val(X).\nr(X) <- ins.out(X).",
     "l(X) | r(X)", "val(a).", ["val(a). out(a)."]),
    ("conc-interleaving-states",
     "w <- reg(V) * del.reg(V) * V2 is V + 1 * ins.reg(V2).",
     "w | w", "reg(0).", ["reg(2).", "reg(1)."]),

    # -- isolation ------------------------------------------------------------------------
    ("iso-atomic", "t <- iso(ins.a * ins.b).", "t", "", ["a. b."]),
    ("iso-failure-is-failure", "t <- iso(p(zz)).", "t", "p(a).", []),
    ("iso-serializes",
     "w <- iso(reg(V) * del.reg(V) * V2 is V + 1 * ins.reg(V2)).",
     "w | w", "reg(0).", ["reg(2)."]),
    ("iso-binds-out", "t(X) <- iso(item(X) * del.item(X)).", "t(X)",
     "item(a).", [""]),
    ("iso-nested", "t <- iso(ins.a * iso(ins.b) * ins.c).", "t", "",
     ["a. b. c."]),

    # -- recursion -----------------------------------------------------------------------
    ("tail-recursion-drain",
     "d <- item(X) * del.item(X) * d.\nd <- not item(_).",
     "d", "item(a). item(b).", [""]),
    ("recursion-no-exit", "loop <- ins.t * del.t * loop.", "loop", "", []),
    ("query-only-recursion",
     "path(X, Y) <- e(X, Y).\npath(X, Y) <- e(X, Z) * path(Z, Y).",
     "path(a, c)", "e(a, b). e(b, c).", ["e(a, b). e(b, c)."]),
]


def _expected_dbs(texts):
    return {parse_database(t) for t in texts}


@pytest.mark.parametrize(
    "name,prog_text,goal_text,db_text,expected",
    CASES,
    ids=[c[0] for c in CASES],
)
def test_interpreter_conformance(name, prog_text, goal_text, db_text, expected):
    program = parse_program(prog_text)
    goal = parse_goal(goal_text)
    db = parse_database(db_text)
    finals = Interpreter(program, max_configs=500_000).final_databases(goal, db)
    assert finals == _expected_dbs(expected)


@pytest.mark.parametrize(
    "name,prog_text,goal_text,db_text,expected",
    CASES,
    ids=[c[0] for c in CASES],
)
def test_analytic_engines_agree(name, prog_text, goal_text, db_text, expected):
    """Where the fragment allows, the analytic engines must reproduce
    the interpreter's verdict exactly: the sequential evaluator on every
    ``|``-free case below full TD, and the engine ``select_engine``
    routes to on every decidable case."""
    program = parse_program(prog_text)
    goal = parse_goal(goal_text)
    db = parse_database(db_text)
    want = _expected_dbs(expected)
    engine = select_engine(program, goal)
    if engine.sublanguage is not Sublanguage.FULL and not engine.analysis.uses_conc:
        assert SequentialEngine(program).final_databases(goal, db) == want
    if engine.decidable:
        assert engine.final_databases(goal, db) == want
