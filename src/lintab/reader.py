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
from itertools import islice

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


@dataclass(eq=False)
class Program:
    predicates: dict[Functor, list[Clause]] = field(default_factory=dict)
    tabled: set[Functor] = field(default_factory=set)

    def clauses(self, f: Functor) -> list[Clause]:
        return self.predicates.get(f, [])


_QUOTED = r"'(?:\\.|[^'\\])*'"

# Layout and comments, then one token: punctuation, an integer, a name, the
# neck, a quoted atom whose closing quote is optional (so the scan never
# backtracks) or any other character; _valid rejects the last kind and an
# unterminated quote.  The token is empty only at the end of the text.
_TOKEN_RE = re.compile(
    r"""\s*(?:%[^\n]*\s*)*
      ( [(),./] | \d+ | [A-Za-z_][A-Za-z0-9_]* | :- | """ + _QUOTED + r"""? | \S )?""",
    re.VERBOSE,
)


def _valid(tok: str) -> bool:
    if tok[:1] == "'":
        return re.fullmatch(_QUOTED, tok) is not None
    # every token of two or more characters matched a rule; so did '' (the end)
    return len(tok) != 1 or tok.isdecimal() or tok.isascii() and (tok.isalpha() or tok in "(),./_")


def _unquote(tok: str) -> str:
    return tok[1:-1].replace("\\'", "'").replace("\\\\", "\\")


def _position(text: str, k: int) -> tuple[int, int]:
    """Line and column of token ``k``: tokens carry no position, so the
    text is scanned again up to the token, only when an error needs it."""
    m = next(islice(_TOKEN_RE.finditer(text), k, None))
    off = m.end() - len(m.group(1) or "")
    return text.count("\n", 0, off) + 1, off - text.rfind("\n", 0, off)


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.toks = toks = _TOKEN_RE.findall(text)
        self.i = 0
        # a bad character anywhere is reported before any syntax error
        bad = [t for t in set(toks) if not _valid(t)]
        if bad:
            k = min(map(toks.index, bad))
            self.fail(f"unexpected character {toks[k][0]!r}", k)

    def fail(self, msg: str, k: int):
        raise ParseError(msg, *_position(self.text, k))

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
        if not t[:1].islower():
            self.fail(f"expected {what}", self.i - 1)
        return t

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
                t = int(tok)
            elif c.isupper() or c == "_":
                t = Var() if tok == "_" else varmap.get(tok)
                if t is None:
                    t = varmap[tok] = Var(tok)
            elif c.islower() or c == "'":
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


def _goal_functor(t) -> Functor:
    return t if type(t) is Functor else t.functor


def _ground_fact(toks: list, i: int):
    """``name(c1, ..., cn).`` at token ``i``, each ``ci`` an integer or a plain atom, as
    ``(name, args, index past the '.')``; else None, and the general parser reads from ``i``."""
    if not toks[i][:1].islower() or toks[i + 1] != "(":
        return None
    args = []
    j = i + 2
    while True:
        t = toks[j]
        if t.isdecimal():
            args.append(int(t))
        elif t[:1].islower():
            args.append(functor(t, 0))
        else:
            return None  # also at the end of the text, so t has a next token
        j += 2
        if toks[j - 1] != ",":
            ok = toks[j - 1] == ")" and toks[j] == "."
            return (toks[i], tuple(args), j + 1) if ok else None


def parse_program(text: str) -> Program:
    p = _Parser(text)
    prog = Program()
    body_preds: list[Functor] = []
    fact_f = None  # functor of the last fast-path fact; it and `facts` are reused while it repeats
    while p.toks[p.i]:  # '' is the end of the text
        fact = _ground_fact(p.toks, p.i)
        if fact is not None:
            name, args, p.i = fact
            if fact_f is None or fact_f.name != name or fact_f.arity != len(args):
                fact_f = functor(name, len(args))
                facts = prog.predicates.setdefault(fact_f, [])
            facts.append(Clause(Struct(fact_f, args), ()))
            continue
        if p.toks[p.i] == ":-":
            p.next()
            kw = p.i
            name = p.name("a directive name")
            if name != "table":
                p.fail(f"unsupported directive '{name}'", kw)
            name = p.name("a predicate name")
            p.expect("/", "'/'")
            arity = p.next()
            if not arity[:1].isdecimal():
                p.fail("expected an arity", p.i - 1)
            p.expect(".", "'.'")
            prog.tabled.add(functor(name, int(arity)))
            continue
        varmap: dict = {}
        head = p.callable_term(varmap, "clause head")
        tok = p.next()
        if tok == ":-":
            goals = p.body(varmap)
            p.expect(".", "'.'")
        elif tok == ".":
            goals = ()
        else:
            p.fail("expected ':-' or '.'", p.i - 1)
        f = _goal_functor(head)
        prog.predicates.setdefault(f, []).append(Clause(head, goals))
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
    if not p.toks[0]:
        p.fail("empty query", 0)
    goals = list(p.body(varmap if varmap is not None else {}))
    p.expect(".", "'.'")
    if p.toks[p.i]:
        p.fail("trailing text after query", p.i)
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
