"""Concrete syntax for Transaction Datalog.

The grammar follows the paper's notation, transliterated to ASCII::

    program   := (directive | rule)*
    directive := '#base' IDENT '/' INT '.'
    rule      := atom ('<-' body)? '.'
    body      := conc
    conc      := seq ('|' seq)*                     -- concurrent composition
    seq       := unary (('*' | ',') unary)*         -- sequential composition
    unary     := 'ins.' atom | 'del.' atom
               | 'not' atom | 'iso' '(' body ')'
               | 'true' | '(' body ')'
               | atom | builtin
    builtin   := term OP term | term 'is' arith
    atom      := IDENT ('(' term (',' term)* ')')?
    term      := IDENT | VAR | INT | '_'

``*`` transliterates the paper's sequential-composition operator (x) and
``iso(...)`` its isolation modality (.); the Unicode spellings ``⊗`` and
``⊙(...)`` are accepted too.  ``,`` is accepted as a synonym for ``*``
inside bodies, matching the Datalog reading of comma as serial
conjunction.  Comments run from ``%`` to end of line.

Terms starting with an uppercase letter or ``_`` are variables; ``_`` by
itself is an anonymous variable, fresh at each occurrence.

A *goal* is a body, optionally written ``?- body.``.

A *database* text is a list of ground facts: ``p(a). q(b, c).``
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple, Union

from ..obs import context as _context
from .database import Database
from .formulas import (
    ArithExpr,
    BinOp,
    Builtin,
    Call,
    Del,
    Formula,
    Ins,
    Isol,
    Neg,
    TRUTH,
    conc,
    seq,
)
from .program import Program, Rule
from .terms import Atom, Constant, Term, Variable

__all__ = [
    "ParseError",
    "as_goal",
    "parse_program",
    "parse_rules",
    "parse_goal",
    "parse_database",
    "parse_atom",
]


class ParseError(ValueError):
    """A syntax error, carrying line/column information."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__("%s (line %d, column %d)" % (message, line, column))
        self.line = line
        self.column = column


# ---------------------------------------------------------------------------
# Lexer
# ---------------------------------------------------------------------------

_PUNCT = {
    "<-": "ARROW",
    ":-": "ARROW",
    "?-": "QUERY",
    ">=": "OP",
    "<=": "OP",
    "!=": "OP",
    "(": "LPAREN",
    ")": "RPAREN",
    ",": "COMMA",
    ".": "DOT",
    "*": "STAR",
    "⊗": "STAR",
    "|": "BAR",
    "=": "OP",
    "<": "OP",
    ">": "OP",
    "+": "PLUS",
    "-": "MINUS",
    "/": "SLASH",
    "#": "HASH",
}

_KEYWORDS = {"not", "iso", "true", "is"}


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT, VAR, INT, INS, DEL, NOT, ISO, TRUE, IS, OP, ... , EOF
    text: str
    line: int
    column: int


def _tokenize(text: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "%":
            while i < n and text[i] != "\n":
                i += 1
            continue
        start_line, start_col = line, col
        # Two-character punctuation first.
        two = text[i : i + 2]
        if two in _PUNCT:
            yield _Token(_PUNCT[two], two, start_line, start_col)
            i += 2
            col += 2
            continue
        if ch in _PUNCT:
            if ch == "⊙":
                yield _Token("ISO", ch, start_line, start_col)
            else:
                yield _Token(_PUNCT[ch], ch, start_line, start_col)
            i += 1
            col += 1
            continue
        if ch == "⊙":
            yield _Token("ISO", ch, start_line, start_col)
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            yield _Token("INT", text[i:j], start_line, start_col)
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            col += j - i
            i = j
            # ins.p / del.p fuse with the following dot so the lexer can
            # tell an elementary-update prefix from an end-of-rule dot.
            if word in ("ins", "del") and i < n and text[i] == ".":
                nxt = text[i + 1] if i + 1 < n else ""
                if nxt.isalpha() or nxt == "_":
                    yield _Token(word.upper(), word + ".", start_line, start_col)
                    i += 1
                    col += 1
                    continue
            if word in _KEYWORDS:
                yield _Token(word.upper(), word, start_line, start_col)
            elif word[0].isupper() or word[0] == "_":
                yield _Token("VAR", word, start_line, start_col)
            else:
                yield _Token("IDENT", word, start_line, start_col)
            continue
        raise ParseError("unexpected character %r" % ch, line, col)
    yield _Token("EOF", "", line, col)


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self._tokens = list(_tokenize(text))
        self._pos = 0
        self._anon = itertools.count(1)

    # -- token plumbing -------------------------------------------------------

    def _peek(self) -> _Token:
        return self._tokens[self._pos]

    def _next(self) -> _Token:
        tok = self._tokens[self._pos]
        self._pos += 1
        return tok

    def _expect(self, kind: str) -> _Token:
        tok = self._peek()
        if tok.kind != kind:
            raise ParseError(
                "expected %s but found %r" % (kind, tok.text or "end of input"),
                tok.line,
                tok.column,
            )
        return self._next()

    def _accept(self, kind: str) -> Optional[_Token]:
        if self._peek().kind == kind:
            return self._next()
        return None

    def _error(self, message: str) -> ParseError:
        tok = self._peek()
        return ParseError(message, tok.line, tok.column)

    # -- grammar ----------------------------------------------------------------

    def parse_program_items(self) -> Tuple[List[Rule], List[Tuple[str, int]]]:
        rules: List[Rule] = []
        base: List[Tuple[str, int]] = []
        while self._peek().kind != "EOF":
            if self._accept("HASH"):
                word = self._expect("IDENT")
                if word.text != "base":
                    raise ParseError(
                        "unknown directive #%s" % word.text, word.line, word.column
                    )
                name = self._expect("IDENT").text
                self._expect("SLASH")
                arity = int(self._expect("INT").text)
                self._expect("DOT")
                base.append((name, arity))
                continue
            rules.append(self._rule())
        return rules, base

    def _rule(self) -> Rule:
        head = self._atom()
        if self._accept("ARROW"):
            body = self._body()
        else:
            body = TRUTH
        self._expect("DOT")
        return Rule(head, body)

    def parse_goal_text(self) -> Formula:
        self._accept("QUERY")
        body = self._body()
        self._accept("DOT")
        self._expect("EOF")
        return body

    def parse_database_text(self) -> Database:
        facts = []
        while self._peek().kind != "EOF":
            a = self._atom()
            self._expect("DOT")
            if not a.is_ground():
                raise self._error("database facts must be ground: %s" % a)
            facts.append(a)
        return Database(facts)

    def parse_single_atom(self) -> Atom:
        a = self._atom()
        self._expect("EOF")
        return a

    def _body(self) -> Formula:
        parts = [self._seq()]
        while self._accept("BAR"):
            parts.append(self._seq())
        return conc(*parts)

    def _seq(self) -> Formula:
        parts = [self._unary()]
        while self._peek().kind in ("STAR", "COMMA"):
            self._next()
            parts.append(self._unary())
        return seq(*parts)

    def _unary(self) -> Formula:
        tok = self._peek()
        if tok.kind == "INS":
            self._next()
            return Ins(self._atom())
        if tok.kind == "DEL":
            self._next()
            return Del(self._atom())
        if tok.kind == "NOT":
            self._next()
            return Neg(self._atom())
        if tok.kind == "ISO":
            self._next()
            self._expect("LPAREN")
            body = self._body()
            self._expect("RPAREN")
            return Isol(body)
        if tok.kind == "TRUE":
            self._next()
            return TRUTH
        if tok.kind == "LPAREN":
            self._next()
            body = self._body()
            self._expect("RPAREN")
            return body
        if tok.kind in ("VAR", "INT", "MINUS"):
            # Must be a builtin: a variable or number can only start a
            # comparison / 'is' binding.
            return self._builtin(self._arith())
        if tok.kind == "IDENT":
            a = self._atom()
            nxt = self._peek()
            if not a.args and nxt.kind in ("OP", "IS", "PLUS", "MINUS"):
                # It was really a constant term starting a builtin.
                return self._builtin(Constant(a.pred))
            return Call(a)
        raise self._error("expected a formula, found %r" % tok.text)

    def _builtin(self, left: ArithExpr) -> Formula:
        tok = self._peek()
        if tok.kind == "IS":
            self._next()
            right = self._arith()
            return Builtin("is", left, right)
        if tok.kind == "OP":
            op = self._next().text
            right = self._arith()
            return Builtin(op, left, right)
        raise self._error("expected a comparison operator after term")

    def _arith(self) -> ArithExpr:
        # Note: '*' is sequential composition in TD, so the concrete
        # syntax supports only '+' and '-' in arithmetic; multiplication
        # exists in the AST (BinOp '*') for programmatic construction.
        expr = self._arith_primary()
        while self._peek().kind in ("PLUS", "MINUS"):
            op = self._next().text
            right = self._arith_primary()
            expr = BinOp(op, expr, right)
        return expr

    def _arith_primary(self) -> ArithExpr:
        tok = self._peek()
        if tok.kind == "LPAREN":
            self._next()
            expr = self._arith()
            self._expect("RPAREN")
            return expr
        if tok.kind == "MINUS":
            self._next()
            inner = self._arith_primary()
            return BinOp("-", Constant(0), inner)
        return self._term()

    def _atom(self) -> Atom:
        name = self._expect("IDENT").text
        args: List[Term] = []
        if self._accept("LPAREN"):
            args.append(self._term())
            while self._accept("COMMA"):
                args.append(self._term())
            self._expect("RPAREN")
        return Atom(name, tuple(args))

    def _term(self) -> Term:
        tok = self._next()
        if tok.kind == "IDENT":
            return Constant(tok.text)
        if tok.kind == "INT":
            return Constant(int(tok.text))
        if tok.kind == "VAR":
            if tok.text == "_":
                return Variable("_Anon%d" % next(self._anon))
            return Variable(tok.text)
        raise ParseError("expected a term, found %r" % tok.text, tok.line, tok.column)


# ---------------------------------------------------------------------------
# Public entry points
# ---------------------------------------------------------------------------


def parse_program(text: str, strict: bool = False) -> Program:
    """Parse a full TD program (rules + ``#base`` directives)."""
    # Parse time is attributed (under a "parse" phase) when a cost
    # attributor is ambient, so profile-run coverage excludes it from
    # engine phases instead of leaving it unattributed.
    with _context.observing(_context.capture(), "parse"):
        rules, base = _Parser(text).parse_program_items()
        return Program(rules, base=base, strict=strict)


def parse_rules(text: str) -> List[Rule]:
    """Parse rules without building a program (for program composition)."""
    rules, base = _Parser(text).parse_program_items()
    if base:
        raise ValueError("#base directives are not allowed in rule fragments")
    return rules


def parse_goal(text: str) -> Formula:
    """Parse a goal body, e.g. ``"workflow(w1) | simulate"``.

    The result still contains generic calls; pass it through
    :meth:`Program.resolve_goal` (the engines do this automatically).
    """
    return _Parser(text).parse_goal_text()


def as_goal(goal: Union[str, Formula]) -> Formula:
    """Coerce *goal* to a :class:`Formula`: strings are parsed, formulas
    pass through.

    This is the shared goal-coercion helper behind the unified solve
    surface -- every public entry point (``Interpreter.solve``/``run``/
    ``simulate``, the analytic engines, ``Engine``, ``select_engine``)
    accepts either form and funnels through here.
    """
    if isinstance(goal, str):
        return parse_goal(goal)
    if isinstance(goal, Formula):
        return goal
    raise TypeError(
        "goal must be a str or a Formula, not %r" % type(goal).__name__
    )


def parse_database(text: str) -> Database:
    """Parse ``"p(a). q(b, c)."`` into a :class:`Database`."""
    return _Parser(text).parse_database_text()


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``"done(T, W)"``."""
    return _Parser(text).parse_single_atom()
