"""Program and query reader for a small definite-clause language.

Grammar: facts ``p(a,b).``, rules ``h :- b1, b2.``, table directives
``:- table p/2.``, ``%`` line comments.  Atoms are lowercase identifiers
or quoted; variables start with an uppercase letter or ``_``; integers
are unsigned digit runs of at most 4,300 digits, or of the interpreter's
limit on ``int()`` if that is lower.  No operators beyond
``:-`` and the body comma, no lists, no strings.
"""

from __future__ import annotations

import re
import string
import sys
from collections.abc import Sequence
from dataclasses import dataclass, field

from .terms import Functor, Struct, Var, functor, term_to_str


class ParseError(Exception):
    def __init__(self, msg: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {msg}")
        self.line = line
        self.col = col


@dataclass(eq=False)
class Clause:
    head: object
    body: tuple


def _fact_clause(f: Functor, row: tuple) -> Clause:
    return Clause(Struct(f, row) if row else f, ())


class Rows(Sequence):
    """The clauses of a predicate that are all ground facts, each argument
    an integer or an atom, kept as their argument tuples (rows).  Indexing
    and iteration build the ``Clause`` objects on demand; the engine reads
    the rows."""

    __slots__ = ("functor", "rows")

    def __init__(self, f: Functor):
        self.functor = f
        self.rows: list[tuple] = []

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int | slice) -> Clause | list[Clause]:
        if type(i) is slice:
            return [_fact_clause(self.functor, row) for row in self.rows[i]]
        return _fact_clause(self.functor, self.rows[i])


@dataclass(eq=False)
class Program:
    """The predicates that have clauses, each with its clauses in source
    order, and the tabled predicates.  Build one with ``parse_program`` or
    ``add``: a predicate whose clauses are all ground facts is then kept as
    ``Rows``, which only ``row_appender`` creates and appends to.  A clause
    list put into ``predicates`` directly stays one.  The engine registers
    the predicates that have no clauses."""

    predicates: dict[Functor, list[Clause] | Rows] = field(default_factory=dict)
    tabled: set[Functor] = field(default_factory=set)

    def clauses(self, f: Functor) -> list[Clause] | Rows:
        return self.predicates.get(f, [])

    def add(self, head, body: tuple = ()) -> None:
        """Append the clause ``head :- body`` to its predicate."""
        if type(head) is Functor:
            f, row = head, ()
        else:
            f, row = head.functor, head.args
        cs = self.predicates.get(f)
        if type(cs) is not list:  # no clauses yet, or Rows
            if not body:
                for a in row:
                    if type(a) is not int and type(a) is not Functor:
                        break
                else:  # a ground fact, each argument an integer or an atom
                    self.row_appender(f)(row)
                    return
            cs = self.predicates[f] = list(cs or ())  # a rule or a non-ground fact: clauses from now on
        cs.append(Clause(head, body))

    def row_appender(self, f: Functor):
        """The function that appends a ground fact of ``f``, given its
        argument tuple."""
        cs = self.predicates.get(f)
        if cs is None:
            cs = self.predicates[f] = Rows(f)
        if type(cs) is Rows:
            return cs.rows.append
        return lambda row: cs.append(_fact_clause(f, row))


# The token rules; every pattern below is built from them.  A quoted
# atom's escapes are read whole, so an escaped quote does not end it.
_WORD_CHARS = "A-Za-z0-9_"
_PUNCT = r"[(),/]|:-"  # every punctuation token but '.'
_INT = r"\d+"
_NAME = rf"[A-Za-z_][{_WORD_CHARS}]*"  # an atom or a variable
_ATOM = rf"[a-z][{_WORD_CHARS}]*"  # an unquoted atom
_QUOTED_OPEN = r"'(?:\\.|[^'\\])*"  # a quoted atom up to its closing quote
_QUOTED = _QUOTED_OPEN + "'"
# layout: white space and '%' comments.  A comment runs to the end of its
# line: the lookahead keeps a pattern from ending it early and reading a
# fact inside it.
_COMMENT = r"%[^\n]*(?![^\n])"
_LAYOUT = rf"\s*(?:{_COMMENT}\s*)*"
_MAX_DIGITS = 4300  # CPython's default limit on int() of a digit string
_SAFE_DIGITS = 640  # always reads: no interpreter limit on int() is lower

# A '.' and the ground facts after it, each name(c1,...,cn) with no layout
# inside, every ci an integer of at most _SAFE_DIGITS digits or an unquoted
# atom.  The token ends before the last fact's own '.', which is the next
# token and carries the facts after it.  The regex engine keeps state for
# every repetition, hence the cap.
_FACTS_PER_TOKEN = 64
_ARG = rf"(?:\d{{1,{_SAFE_DIGITS}}}|{_ATOM})"
_FACT = rf"{_ATOM}\({_ARG}(?:,{_ARG})*\)"
_DOT = rf"\.(?:{_LAYOUT}{_FACT}(?:\.{_LAYOUT}{_FACT}){{0,{_FACTS_PER_TOKEN - 1}}}(?=\.))?"

# Layout and comments, then one token: punctuation, a '.' with the facts it
# carries, a valid token, a quoted atom whose closing quote is missing (so
# the scan never backtracks) or any other character; _valid rejects the
# last two kinds.  The token is empty only at the end of the text.
_TOKEN_RE = re.compile(rf"{_LAYOUT}({_PUNCT}|{_DOT}|{_INT}|{_NAME}|{_QUOTED_OPEN}'?|\S)?")
_VALID_RE = re.compile(rf"{_PUNCT}|{_INT}|{_NAME}|{_QUOTED}")  # every valid token but '.'
_ROW_RE = re.compile(rf"\.{_LAYOUT}({_ATOM})\(([^)]*)\)")  # a fact a '.' carries: name, arguments
# The first characters of a variable and of an atom: ASCII only, since the
# parser also sees the tokens _valid rejects
_VAR_START = frozenset(string.ascii_uppercase + "_")
_ATOM_START = frozenset(string.ascii_lowercase + "'")


def _valid(tok: str) -> bool:
    return not tok or tok[0] == "." or _VALID_RE.fullmatch(tok) is not None


def _unquote(tok: str) -> str:
    return tok[1:-1].replace("\\'", "'").replace("\\\\", "\\")


class _Parser:
    """The tokens of ``lead + text``, read by the general parser.  A ``lead``
    of '.' makes the facts at the start of the text the first token's."""

    def __init__(self, text: str, lead: str = ""):
        self.text = text
        self.lead = lead
        self.toks = _TOKEN_RE.findall(lead + text)  # '' last: the end of the text
        self.i = 0

    def fail(self, msg: str, k: int, past_dot: bool = False):
        """Raise ``msg`` at token ``k``, or at the first token after the '.'
        that starts it if ``past_dot``, unless a bad character stands
        anywhere in the text: that is reported first.  Tokens carry no
        position, so the text is scanned again, only for an error."""
        text = self.lead + self.text
        off = None
        for j, m in enumerate(_TOKEN_RE.finditer(text)):
            tok = m.group(1) or ""
            if j == k:
                off = m.end() - len(tok)
                if past_dot:
                    off = _TOKEN_RE.match(text, off + 1).start(1)
            if not _valid(tok):
                msg, off = f"unexpected character {tok[0]!r}", m.end() - len(tok)
                break
            if not tok:
                break
        text, off = self.text, off - len(self.lead)
        raise ParseError(msg, text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off))

    def next(self) -> str:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, tok: str, what: str) -> None:
        if self.next() != tok:
            self.fail(f"expected {what}", self.i - 1)

    def name(self, what: str) -> str:
        t = self.next()
        if t[:1] == "'":
            return _unquote(t)
        if t[:1] not in _ATOM_START:
            self.fail(f"expected {what}", self.i - 1)
        return t

    def integer(self, k: int) -> int:
        tok = self.toks[k]
        if len(tok) <= _MAX_DIGITS:
            try:
                return int(tok)
            except ValueError:  # the interpreter's own limit is lower
                pass
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)() or _MAX_DIGITS
        self.fail(f"integer of more than {min(limit, _MAX_DIGITS)} digits", k)

    # one namespace of variables per clause / query
    def term(self, varmap: dict) -> object:
        toks = self.toks
        i = self.i
        # compounds still open, (name, args so far), innermost last: an
        # explicit stack, so any nesting depth parses
        stack: list = []
        while True:
            tok = toks[i]
            i += 1
            c = tok[:1]
            if c.isdecimal():
                t = int(tok) if len(tok) <= _SAFE_DIGITS else self.integer(i - 1)
            elif c in _VAR_START:
                t = Var() if tok == "_" else varmap.get(tok)
                if t is None:
                    t = varmap[tok] = Var(tok)
            elif c in _ATOM_START:
                name = tok if c != "'" else _unquote(tok)
                if toks[i] == "(":
                    i += 1
                    stack.append((name, []))
                    continue
                t = functor(name, 0)
            else:
                self.fail("expected a term", i - 1)
            # t is complete: add it to the innermost compound, closing
            # every compound it completes
            while stack:
                args = stack[-1][1]
                args.append(t)
                tok = toks[i]
                i += 1
                if tok == ",":
                    break
                if tok != ")":
                    self.fail("expected ')'", i - 1)
                name, _ = stack.pop()
                t = Struct(functor(name, len(args)), tuple(args))
            else:
                self.i = i
                return t

    def callable_term(self, varmap: dict, role: str) -> object:
        k = self.i
        t = self.term(varmap)
        if not isinstance(t, (Functor, Struct)):
            self.fail(f"{role} must be an atom or compound term", k)
        return t

    def body(self, varmap: dict) -> tuple:
        goals = [self.callable_term(varmap, "body goal")]
        while self.toks[self.i] == ",":
            self.next()
            goals.append(self.callable_term(varmap, "body goal"))
        return tuple(goals)

    def end(self, prog: Program) -> None:
        """Read the '.' that ends a clause, and append to ``prog`` the rows
        of the ground facts it carries, up to the last one's own '.'."""
        tok = self.next()
        if tok[:1] != ".":
            self.fail("expected '.'", self.i - 1)
        name = arity = None
        while len(tok) > 1:
            for f_name, args in _ROW_RE.findall(tok):
                row = tuple([int(a) if a.isdecimal() else functor(a, 0) for a in args.split(",")])
                if f_name != name or len(row) != arity:
                    name, arity = f_name, len(row)
                    append = prog.row_appender(functor(name, arity))
                append(row)
            tok = self.next()


def parse_program(text: str) -> Program:
    """Read a program.  The text is tokenized once; each '.' token carries
    the ground facts that follow it, which are appended as rows, and the
    general parser reads every other clause and raises every
    ``ParseError``."""
    prog = Program()
    p = _Parser(text, ".")
    p.end(prog)
    while p.toks[p.i]:  # '' is the end of the text
        if p.toks[p.i] == ":-":
            p.next()
            kw = p.i
            name = p.name("a directive name")
            if name != "table":
                p.fail(f"unsupported directive '{name}'", kw)
            name = p.name("a predicate name")
            p.expect("/", "'/'")
            if not p.next()[:1].isdecimal():
                p.fail("expected an arity", p.i - 1)
            prog.tabled.add(functor(name, p.integer(p.i - 1)))
        else:
            varmap: dict = {}
            head = p.callable_term(varmap, "clause head")
            goals = ()
            if p.toks[p.i] == ":-":
                p.next()
                goals = p.body(varmap)
            elif p.toks[p.i][:1] != ".":
                p.fail("expected ':-' or '.'", p.i)
            prog.add(head, goals)
        p.end(prog)
    return prog


def parse_query(text: str, varmap: dict | None = None) -> list:
    """Parse a '.'-terminated goal conjunction.  Pass a dict as `varmap` to
    capture the query's variable names (name -> Var), e.g. for printing
    answers under their source names."""
    p = _Parser(text)
    if not p.toks[0]:
        p.fail("empty query", 0)
    goals = list(p.body(varmap if varmap is not None else {}))
    tok = p.next()
    if tok[:1] != ".":
        p.fail("expected '.'", p.i - 1)
    if len(tok) > 1 or p.toks[p.i]:  # facts the '.' carries, or other tokens
        p.fail("trailing text after query", p.i - 1, past_dot=True)
    return goals


def program_to_text(prog: Program) -> str:
    """Deterministic source rendering; re-parsing yields an identical Program."""
    out = []
    for f in sorted(prog.tabled, key=lambda f: (f.name, f.arity)):
        out.append(f":- table {f.name}/{f.arity}.")
    for f, clauses in prog.predicates.items():
        for c in clauses:
            names: dict = {}
            head = term_to_str(c.head, names)
            if c.body:
                goals = ", ".join(term_to_str(g, names) for g in c.body)
                out.append(f"{head} :- {goals}.")
            else:
                out.append(f"{head}.")
    return "\n".join(out) + "\n"
