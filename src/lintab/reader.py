"""Program and query reader for a small definite-clause language.

Grammar: facts ``p(a,b).``, rules ``h :- b1, b2.``, table directives
``:- table p/2.``, ``%`` line comments.  Atoms are lowercase identifiers
or quoted; variables start with an uppercase letter or ``_``; integers
are unsigned digit runs.  No operators beyond ``:-`` and the body comma,
no lists, no strings.
"""

from __future__ import annotations

import re
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
    source_index: int


@dataclass(eq=False)
class Program:
    predicates: dict[Functor, list[Clause]] = field(default_factory=dict)
    tabled: set[Functor] = field(default_factory=set)

    def clauses(self, f: Functor) -> list[Clause]:
        return self.predicates.get(f, [])


_TOKEN_RE = re.compile(
    r"""(?P<ws>\s+)
      | (?P<comment>%[^\n]*)
      | (?P<neck>:-)
      | (?P<punct>[(),./])
      | (?P<int>\d+)
      | (?P<var>[A-Z_][A-Za-z0-9_]*)
      | (?P<atom>[a-z][A-Za-z0-9_]*)
      | (?P<qatom>'(?:\\.|[^'\\])*')
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[tuple]:
    toks = []
    pos = 0
    line = 1
    bol = 0  # offset of current line start
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, pos - bol + 1)
        kind = m.lastgroup
        val = m.group()
        col = pos - bol + 1
        if kind == "ws" or kind == "comment":
            nl = val.count("\n")
            if nl:
                line += nl
                bol = pos + val.rindex("\n") + 1
        elif kind == "punct":
            toks.append((val, val, line, col))
        elif kind == "int":
            toks.append(("int", int(val), line, col))
        elif kind == "qatom":
            body = val[1:-1].replace("\\'", "'").replace("\\\\", "\\")
            toks.append(("atom", body, line, col))
        else:
            toks.append((kind, val, line, col))
        pos = m.end()
    toks.append(("eof", None, line, n - bol + 1))
    return toks


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self) -> tuple:
        return self.toks[self.i]

    def next(self) -> tuple:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, kind: str, what: str) -> tuple:
        t = self.next()
        if t[0] != kind:
            raise ParseError(f"expected {what}", t[2], t[3])
        return t

    def fail(self, msg: str):
        t = self.peek()
        raise ParseError(msg, t[2], t[3])

    # one namespace of variables per clause / query
    def term(self, varmap: dict) -> object:
        # compounds still open, (name, args so far), innermost last: an
        # explicit stack, so any nesting depth parses
        stack: list = []
        while True:
            kind, val, line, col = self.next()
            if kind == "int":
                t = val
            elif kind == "var":
                if val == "_":
                    t = Var()
                else:
                    t = varmap.get(val)
                    if t is None:
                        t = varmap[val] = Var(val)
            elif kind == "atom":
                if self.peek()[0] == "(":
                    self.next()
                    stack.append((val, []))
                    continue
                t = functor(val, 0)
            else:
                raise ParseError("expected a term", line, col)
            # t is complete: add it to the innermost compound, closing
            # every compound it completes
            while stack:
                args = stack[-1][1]
                args.append(t)
                if self.peek()[0] == ",":
                    self.next()
                    break
                self.expect(")", "')'")
                name, _ = stack.pop()
                t = Struct(functor(name, len(args)), tuple(args))
            else:
                return t

    def callable_term(self, varmap: dict, role: str) -> object:
        t0 = self.peek()
        t = self.term(varmap)
        if not isinstance(t, (Functor, Struct)):
            raise ParseError(f"{role} must be an atom or compound term", t0[2], t0[3])
        return t

    def body(self, varmap: dict) -> tuple:
        goals = [self.callable_term(varmap, "body goal")]
        while self.peek()[0] == ",":
            self.next()
            goals.append(self.callable_term(varmap, "body goal"))
        return tuple(goals)


def _goal_functor(t) -> Functor:
    return t if type(t) is Functor else t.functor


def parse_program(text: str) -> Program:
    p = _Parser(text)
    prog = Program()
    body_preds: list[Functor] = []
    while p.peek()[0] != "eof":
        if p.peek()[0] == "neck":
            p.next()
            kw = p.expect("atom", "a directive name")
            if kw[1] != "table":
                raise ParseError(f"unsupported directive '{kw[1]}'", kw[2], kw[3])
            name = p.expect("atom", "a predicate name")
            p.expect("/", "'/'")
            arity = p.expect("int", "an arity")
            p.expect(".", "'.'")
            prog.tabled.add(functor(name[1], arity[1]))
            continue
        varmap: dict = {}
        head = p.callable_term(varmap, "clause head")
        kind = p.peek()[0]
        if kind == "neck":
            p.next()
            goals = p.body(varmap)
            p.expect(".", "'.'")
        elif kind == ".":
            p.next()
            goals = ()
        else:
            p.fail("expected ':-' or '.'")
        f = _goal_functor(head)
        lst = prog.predicates.setdefault(f, [])
        lst.append(Clause(head, goals, len(lst)))
        for g in goals:
            body_preds.append(_goal_functor(g))
    for f in body_preds:
        prog.predicates.setdefault(f, [])
    for f in prog.tabled:
        prog.predicates.setdefault(f, [])
    return prog


def parse_query(text: str, varmap: dict | None = None) -> list:
    """Parse a '.'-terminated goal conjunction.  Pass a dict as `varmap` to
    capture the query's variable names (name -> Var), e.g. for printing
    answers under their source names."""
    p = _Parser(text)
    if p.peek()[0] == "eof":
        t = p.peek()
        raise ParseError("empty query", t[2], t[3])
    goals = list(p.body(varmap if varmap is not None else {}))
    p.expect(".", "'.'")
    if p.peek()[0] != "eof":
        p.fail("trailing text after query")
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
