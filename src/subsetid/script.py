"""Parser for the task description language.

The grammar is line-agnostic (whitespace and ``#`` comments are skipped):

    script   := stmt*
    stmt     := setdecl | taskdecl | rundecl
    setdecl  := "set" NAME "=" family
    family   := "bell_basis" "(" INT ")" | "ges_basis" "(" INT ")"
              | "ghz3_basis" | "ghz4_basis"
              | "states" "[" NAME ("," NAME)* "]"
    taskdecl := "task" NAME "=" "subset" "(" NAME "," "k" "=" INT ")"
    rundecl  := "simulate" NAME "protocol" NAME
              | "certify" NAME "cut" (PARTYLIST ":" PARTYLIST | "auto" | "all")

A PARTYLIST is a bare name whose characters are single-letter party labels,
so ``cut AB:CD`` splits parties A, B from C, D. Parsing performs scope
checking (names must be declared before use, never rebound, and a task must
be built from a set), while domain-level validation, e.g. whether a state
name or protocol exists, happens at execution where the richer context
lives. The parser is the one judge of grammar and scope: ``execute`` runs a
hand-built ``Script`` only if ``parse(serialize(script))`` gives its
statements back. Every diagnostic carries a line and column and, where
useful, the set of tokens that would have been accepted.

Every character is checked before any grammar error is reported: outside a
comment, only blanks (space, tab, carriage return), newlines, ASCII digits
and letters, ``_`` and the symbols ``()[],:=`` may appear, so an unexpected
character wins over a grammar error earlier in the text. A comment runs
from ``#`` to the end of its line and may hold any character. Tokens then
reach the parser on demand, so a script refused early is not tokenized in
full.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ScriptError

KEYWORDS = frozenset(
    {
        "set", "task", "simulate", "certify", "protocol", "cut", "subset", "k",
        "auto", "all", "bell_basis", "ges_basis", "ghz3_basis", "ghz4_basis",
        "states",
    }
)

_SYMBOLS = r"()\[\],:="
# Runs of blanks, newlines and token characters, or a comment (which may
# hold any character); the match stops at the first character outside both.
_CHARACTERS = re.compile(rf"(?:[ \t\r\n0-9A-Za-z_{_SYMBOLS}]+|#[^\n]*)*")
# Blanks match nothing, so finditer steps over them; only ASCII digits and
# letters start tokens.
_TOKEN = re.compile(
    r"(?P<newline>\n)|(?P<comment>#[^\n]*)|(?P<int>[0-9]+)"
    rf"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)|[{_SYMBOLS}]"
)


class Token(NamedTuple):
    kind: str  # "name", "int", one of the symbol characters, or "end"
    value: str
    line: int
    column: int


def _lex(text: str) -> Iterator[Token]:
    """Check every character of ``text``, then return its tokens on demand.

    The first character that is neither a blank (space, tab, carriage
    return), a newline, a token character nor inside a ``#`` comment raises
    ScriptError before any token is made, so it is reported ahead of every
    grammar error. Columns count characters, a tab as one.
    """
    bad = _CHARACTERS.match(text).end()
    if bad < len(text):
        line_start = text.rfind("\n", 0, bad) + 1
        raise ScriptError(
            f"unexpected character {text[bad]!r}",
            text.count("\n", 0, bad) + 1,
            bad - line_start + 1,
        )
    return _tokens(text)


def _tokens(text: str) -> Iterator[Token]:
    line, line_start = 1, 0
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "newline":
            line += 1
            line_start = m.end()
        elif kind != "comment":
            value = m.group()
            yield Token(kind or value, value, line, m.start() - line_start + 1)
    # a trailing comment takes no columns, so the end sits at its "#"
    end = text.find("#", line_start)
    yield Token("end", "", line, (len(text) if end < 0 else end) - line_start + 1)


# --- abstract syntax ---


@dataclass(frozen=True)
class BasisFamily:
    kind: str  # bell_basis | ges_basis | ghz3_basis | ghz4_basis
    dim: int | None = None


@dataclass(frozen=True)
class StatesFamily:
    names: tuple[str, ...]


@dataclass(frozen=True)
class CutSpec:
    left: str
    right: str

    def __str__(self) -> str:
        return f"{self.left}:{self.right}"


@dataclass(frozen=True)
class SetDecl:
    name: str
    family: BasisFamily | StatesFamily
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class TaskDecl:
    name: str
    set_name: str
    k: int
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class SimulateDecl:
    task_name: str
    protocol: str
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


@dataclass(frozen=True)
class CertifyDecl:
    task_name: str
    cut: CutSpec | str  # CutSpec, "auto", or "all"
    line: int = field(compare=False, default=0)
    column: int = field(compare=False, default=0)


Statement = SetDecl | TaskDecl | SimulateDecl | CertifyDecl


@dataclass(frozen=True)
class Script:
    statements: tuple[Statement, ...]


class _Parser:
    """Recursive descent over a token iterator, one token of lookahead.

    Tokens are pulled only as the grammar consumes them, so a script refused
    at its first token makes one token. The grammar never takes the "end"
    token, which the iterator yields last.
    """

    def __init__(self, tokens: Iterator[Token]):
        self.tokens = tokens
        self.ahead = next(tokens)
        self.scope: dict[str, str] = {}  # name -> "set" | "task"

    def take(self) -> Token:
        tok = self.ahead
        self.ahead = next(self.tokens)
        return tok

    def fail(self, message: str, token: Token, expected: tuple[str, ...] = ()):
        raise ScriptError(message, token.line, token.column, expected)

    def expect(self, kind: str, expected: tuple[str, ...]) -> Token:
        tok = self.ahead
        if tok.kind != kind:
            shown = tok.value if tok.kind != "end" else "end of input"
            self.fail(f"unexpected {shown!r}", tok, expected)
        return self.take()

    def expect_word(self, *words: str) -> Token:
        tok = self.ahead
        if tok.kind != "name" or tok.value not in words:
            shown = tok.value if tok.kind != "end" else "end of input"
            self.fail(f"unexpected {shown!r}", tok, words)
        return self.take()

    def fresh_name(self) -> Token:
        tok = self.expect("name", ("a new name",))
        if tok.value in KEYWORDS:
            self.fail(f"{tok.value!r} is a keyword and cannot be used as a name", tok)
        if tok.value in self.scope:
            self.fail(f"name {tok.value!r} is already bound", tok)
        return tok

    def bound_name(self, want_kind: str) -> Token:
        tok = self.expect("name", (f"a {want_kind} name",))
        if tok.value not in self.scope:
            self.fail(f"unknown name {tok.value!r}", tok)
        if self.scope[tok.value] != want_kind:
            self.fail(
                f"{tok.value!r} names a {self.scope[tok.value]}, expected a {want_kind}",
                tok,
            )
        return tok

    def int_value(self) -> int:
        return int(self.expect("int", ("an integer",)).value)

    # --- productions ---

    def script(self) -> Script:
        stmts: list[Statement] = []
        while self.ahead.kind != "end":
            kw = self.expect_word("set", "task", "simulate", "certify")
            stmts.append(getattr(self, kw.value)(kw))
        return Script(tuple(stmts))

    def set(self, kw: Token) -> SetDecl:
        name = self.fresh_name()
        self.expect("=", ("=",))
        family = self.family()
        self.scope[name.value] = "set"
        return SetDecl(name.value, family, kw.line, kw.column)

    def family(self) -> BasisFamily | StatesFamily:
        tok = self.expect_word("bell_basis", "ges_basis", "ghz3_basis", "ghz4_basis", "states")
        if tok.value in ("bell_basis", "ges_basis"):
            self.expect("(", ("(",))
            dim = self.int_value()
            self.expect(")", (")",))
            return BasisFamily(tok.value, dim)
        if tok.value in ("ghz3_basis", "ghz4_basis"):
            return BasisFamily(tok.value)
        self.expect("[", ("[",))
        names = [self.expect("name", ("a state name",)).value]
        while self.ahead.kind == ",":
            self.take()
            names.append(self.expect("name", ("a state name",)).value)
        self.expect("]", ("]", ","))
        return StatesFamily(tuple(names))

    def task(self, kw: Token) -> TaskDecl:
        name = self.fresh_name()
        self.expect("=", ("=",))
        self.expect_word("subset")
        self.expect("(", ("(",))
        set_name = self.bound_name("set")
        self.expect(",", (",",))
        self.expect_word("k")
        self.expect("=", ("=",))
        k = self.int_value()
        self.expect(")", (")",))
        self.scope[name.value] = "task"
        return TaskDecl(name.value, set_name.value, k, kw.line, kw.column)

    def simulate(self, kw: Token) -> SimulateDecl:
        task = self.bound_name("task")
        self.expect_word("protocol")
        proto = self.expect("name", ("a protocol name",))
        return SimulateDecl(task.value, proto.value, kw.line, kw.column)

    def certify(self, kw: Token) -> CertifyDecl:
        task = self.bound_name("task")
        self.expect_word("cut")
        tok = self.expect("name", ("a party list", "auto", "all"))
        if tok.value in ("auto", "all"):
            return CertifyDecl(task.value, tok.value, kw.line, kw.column)
        self.expect(":", (":",))
        right = self.expect("name", ("a party list",))
        return CertifyDecl(task.value, CutSpec(tok.value, right.value), kw.line, kw.column)


def parse(text: str) -> Script:
    """Parse and scope-check a script; raise ScriptError with location otherwise."""
    return _Parser(_lex(text)).script()


def serialize(script: Script) -> str:
    """Canonical text form, one statement per line; parse(serialize(s)) == s
    whenever ``parse`` built ``s``. A statement or family of another type
    raises TypeError; other parts are written as ``str`` gives them."""
    lines = []
    for stmt in script.statements:
        if isinstance(stmt, SetDecl):
            fam = stmt.family
            if isinstance(fam, StatesFamily):
                family = "states[" + ",".join(fam.names) + "]"
            elif not isinstance(fam, BasisFamily):
                raise TypeError(f"unknown family type {type(fam).__name__}")
            elif fam.dim is not None:
                family = f"{fam.kind}({fam.dim})"
            else:
                family = fam.kind
            lines.append(f"set {stmt.name} = {family}")
        elif isinstance(stmt, TaskDecl):
            lines.append(f"task {stmt.name} = subset({stmt.set_name}, k={stmt.k})")
        elif isinstance(stmt, SimulateDecl):
            lines.append(f"simulate {stmt.task_name} protocol {stmt.protocol}")
        elif isinstance(stmt, CertifyDecl):
            lines.append(f"certify {stmt.task_name} cut {stmt.cut}")
        else:
            raise TypeError(f"unknown statement type {type(stmt).__name__}")
    return "\n".join(lines) + ("\n" if lines else "")
