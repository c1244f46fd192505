import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from lintab import reader
from lintab.engine import _P_FACTS2, _P_GENERAL, _P_TABLED, Engine
from lintab.reader import Clause, ParseError, Program, Rows, parse_program, parse_query, program_to_text
from lintab.terms import Functor, Struct, Var, functor, term_to_str
from test_terms import term_tokens

PATH_PROG = (
    ":- table path/2.\n"
    "path(X,Z) :- edge(X,Y), path(Y,Z).\n"
    "path(X,Z) :- edge(X,Z)."
)


def clause_sig(c):
    wrapper = functor("clause sig", 1 + len(c.body))
    return term_tokens(Struct(wrapper, (c.head,) + c.body))


def program_sig(prog):
    preds = {
        repr(f): [clause_sig(c) for c in cs] for f, cs in prog.predicates.items()
    }
    tabled = sorted(repr(f) for f in prog.tabled)
    return preds, tabled


def test_parse_path_program():
    prog = parse_program(PATH_PROG)
    assert functor("path", 2) in prog.tabled
    assert len(prog.tabled) == 1
    assert len(prog.clauses(functor("path", 2))) == 2
    assert prog.clauses(functor("edge", 2)) == []
    assert functor("edge", 2) not in prog.predicates
    c0, c1 = prog.clauses(functor("path", 2))  # in source order
    assert [g.functor.name for g in c0.body] == ["edge", "path"]
    assert [g.functor.name for g in c1.body] == ["edge"]


def test_parse_single_fact():
    prog = parse_program("p(a).")
    assert prog.tabled == set()
    (c,) = prog.clauses(functor("p", 1))
    assert c.body == ()
    assert term_tokens(c.head) == term_tokens(Struct(functor("p", 1), (functor("a", 0),)))


def test_atom_fact_and_zero_arity():
    prog = parse_program("go.\ngo :- p(1).")
    cs = prog.clauses(functor("go", 0))
    assert len(cs) == 2
    assert cs[0].head is functor("go", 0)


def test_dangling_neck_is_error():
    with pytest.raises(ParseError):
        parse_program("p(a) :-")


def test_error_carries_position():
    try:
        parse_program("p(a).\nq(b) :- ,")
        assert False, "should not parse"
    except ParseError as e:
        assert e.line == 2
        assert e.col == 9


def test_unexpected_character_position():
    try:
        parse_program("p(a).\n\nq(#).")
        assert False
    except ParseError as e:
        assert (e.line, e.col) == (3, 3)


LONG = "9" * 4301
LONG_MSG = "integer of more than 4300 digits"

# (reader, text, message, line, col) for malformed inputs
ERROR_TABLE = [
    ("program", "p(a).\n\nq(#).", "unexpected character '#'", 3, 3),
    ("program", "p(²).", "unexpected character '²'", 1, 3),
    ("program", "p(é).", "unexpected character 'é'", 1, 3),
    ("program", "p(a) : q(b).", "unexpected character ':'", 1, 6),
    ("program", "p(a).\np('abc).", "unexpected character \"'\"", 2, 3),
    ("program", "p('abc).\nq(#).", "unexpected character \"'\"", 1, 3),
    ("program", "p('a\\\nb').", "unexpected character \"'\"", 1, 3),
    ("program", "p(a) q.\nr(#).", "unexpected character '#'", 2, 3),
    ("program", ":- dynamic p/1.", "unsupported directive 'dynamic'", 1, 4),
    ("program", ":- 'dy na' p/1.", "unsupported directive 'dy na'", 1, 4),
    ("program", ":- table 7/2.", "expected a predicate name", 1, 10),
    ("program", ":- table p 2.", "expected '/'", 1, 12),
    ("program", ":- table p/x.", "expected an arity", 1, 12),
    ("program", ":- table p/2", "expected '.'", 1, 13),
    ("program", "p(a) :-", "expected a term", 1, 8),
    ("program", "p(a", "expected ')'", 1, 4),
    ("program", "7.", "clause head must be an atom or compound term", 1, 1),
    ("program", "X :- p(a).", "clause head must be an atom or compound term", 1, 1),
    ("program", "p(a) :- 7.", "body goal must be an atom or compound term", 1, 9),
    ("program", "p(a) q(b).", "expected ':-' or '.'", 1, 6),
    ("program", "p(a,).", "expected a term", 1, 5),
    ("program", "p(a b).", "expected ')'", 1, 5),
    ("program", "p(a).\r\nq(b) :- ,\r\n", "expected a term", 2, 9),
    ("program", "p(a).\nq(b) :- r % no newline", "expected '.'", 2, 23),
    ("program", "p(1) :- q(2, (3)).", "expected a term", 1, 14),
    ("program", "% only a comment\n  p(X) :- q(X) ; r(X).", "unexpected character ';'", 2, 16),
    ("query", "", "empty query", 1, 1),
    ("query", "   % nothing\n", "empty query", 2, 1),
    ("query", "path(X,Y)", "expected '.'", 1, 10),
    ("query", "p(X). q(Y).", "trailing text after query", 1, 7),
    ("query", "p(X) :- q(X).", "expected '.'", 1, 6),
    ("query", "p(#X).", "unexpected character '#'", 1, 3),
    # malformed facts that the ground-fact fast path starts and hands back
    ("program", "e(1,2)", "expected ':-' or '.'", 1, 7),
    ("program", "e(1,2) e(3,4).", "expected ':-' or '.'", 1, 8),
    ("program", "e(1,,2).", "expected a term", 1, 5),
    ("program", "e(1 2).", "expected ')'", 1, 5),
    ("program", "e(1,2", "expected ')'", 1, 6),
    ("program", "e(1,2).\ne(3,#).", "unexpected character '#'", 2, 5),
    # a digit run longer than int() reads by default, in a fact, a rule, a
    # directive and a query; a bad character still comes first
    ("program", f"p({LONG}).", LONG_MSG, 1, 3),
    ("program", f"p(1,{LONG}).", LONG_MSG, 1, 5),
    ("program", f"p(X) :- q({LONG}, X).", LONG_MSG, 1, 11),
    ("program", f":- table p/{LONG}.", LONG_MSG, 1, 12),
    ("program", f"p({LONG}).\nq(#).", "unexpected character '#'", 2, 3),
    ("query", f"p(X, {LONG}).", LONG_MSG, 1, 6),
    # ground facts after a query's '.', which that '.' token carries
    ("query", "p(X). e(1,2).", "trailing text after query", 1, 7),
    ("query", "p(X). % c\n e(1,2).\ne(2,3).", "trailing text after query", 2, 2),
]


def _short_id(value):
    return f"<{len(value)} characters>" if isinstance(value, str) and len(value) > 80 else None


@pytest.mark.parametrize("reader,text,msg,line,col", ERROR_TABLE, ids=_short_id)
def test_error_table(reader, text, msg, line, col):
    parse = parse_program if reader == "program" else parse_query
    with pytest.raises(ParseError) as info:
        parse(text)
    assert (str(info.value), info.value.line, info.value.col) == (f"line {line}, col {col}: {msg}", line, col)


def test_line_counts_newlines_inside_quoted_atoms():
    with pytest.raises(ParseError) as info:
        parse_program("p('a\nb').\nq(#).")
    assert (info.value.line, info.value.col) == (3, 3)


def test_unicode_decimal_digit_is_an_integer():
    # \d takes any decimal digit; '²' is no decimal digit (see ERROR_TABLE)
    (c,) = parse_program("p(٣).").clauses(functor("p", 1))
    assert c.head.args == (3,)


def test_integer_of_4300_digits_reads():
    n = int("7" * 4300)
    prog = parse_program(f"p({'7' * 4300}).\nq(X) :- p({'7' * 4300}), r(X).")
    assert prog.clauses(functor("p", 1))[0].head.args == (n,)
    assert prog.clauses(functor("q", 1))[0].body[0].args == (n,)


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int() of a digit string")
def test_integer_over_a_lowered_limit_is_a_parse_error():
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert parse_program(f"p({'7' * 640}).").clauses(functor("p", 1))[0].head.args == (int("7" * 640),)
        long = "7" * 641
        for text, col in [(f"p({long}).", 3), (f"p(1).\np(a, {long}).", 6), (f"q(X) :- p({long}).", 11),
                          (f":- table p/{long}.", 12)]:
            with pytest.raises(ParseError) as e:
                parse_program(text)
            assert (str(e.value).split(": ", 1)[1], e.value.col) == ("integer of more than 640 digits", col)
        with pytest.raises(ParseError, match="integer of more than 640 digits"):
            parse_query(f"p({long}).")
    finally:
        sys.set_int_max_str_digits(limit)


def test_duplicate_table_directive_idempotent():
    prog = parse_program(":- table p/1.\n:- table p/1.\np(1).")
    assert prog.tabled == {functor("p", 1)}


# 24 tabled predicates without clauses, one of them named in a body
TABLED_ONLY_TEXT = "".join(f":- table t{i}/1.\n" for i in range(24)) + (
    ":- table p/1.\n"
    "p(X) :- q(X), t3(X), s(X,Y).\n"
    "r(1).\n"
    "e(1,2).\n"
    "p(2).\n"
    "s(X,Y) :- t7(Y), e(X,Y), w.\n"
    "e(2,3).\n"
)
# heads and facts as the reader meets them; the engine registers the
# predicates named only in bodies and the tabled ones without clauses
TABLED_ONLY_ORDER = ["p/1", "r/1", "e/2", "s/2"]


def test_predicates_in_the_order_the_reader_meets_them():
    prog = parse_program(TABLED_ONLY_TEXT)
    assert [repr(f) for f in prog.predicates] == TABLED_ONLY_ORDER
    assert len(prog.tabled) == 25
    engine = Engine(prog)
    assert all(engine.preds[f].kind == _P_TABLED for f in prog.tabled)
    assert engine.run_query(parse_query("t0(X)."))[0] == []


def test_predicate_order_is_the_same_in_every_process():
    code = "import sys\nfrom lintab.reader import parse_program\nprint(list(parse_program(sys.stdin.read()).predicates))"
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    outs = []
    for seed in ("1", "2"):
        proc = subprocess.run([sys.executable, "-c", code], input=TABLED_ONLY_TEXT, capture_output=True,
                              text=True, timeout=60, env={**env, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout)
    assert outs[0] == outs[1] == f"[{', '.join(TABLED_ONLY_ORDER)}]\n"


def test_unsupported_directive():
    with pytest.raises(ParseError):
        parse_program(":- dynamic p/1.")


def test_variables_scoped_per_clause():
    prog = parse_program("p(X) :- q(X), r(X).\np(X).")
    c0, c1 = prog.clauses(functor("p", 1))
    x_head = c0.head.args[0]
    assert c0.body[0].args[0] is x_head
    assert c0.body[1].args[0] is x_head
    assert c1.head.args[0] is not x_head


def test_anonymous_vars_distinct():
    prog = parse_program("p(_, _).")
    (c,) = prog.clauses(functor("p", 2))
    a, b = c.head.args
    assert isinstance(a, Var) and isinstance(b, Var) and a is not b


def test_comments_and_whitespace():
    prog = parse_program("% intro\np(a). % trailing\n% last line")
    assert len(prog.clauses(functor("p", 1))) == 1


def test_quoted_atom():
    prog = parse_program("p('hello world').")
    (c,) = prog.clauses(functor("p", 1))
    assert c.head.args[0] is functor("hello world", 0)


def test_integers_parse():
    prog = parse_program("edge(1,2).\nedge(2,3).")
    cs = prog.clauses(functor("edge", 2))
    assert cs[0].head.args == (1, 2)
    assert cs[1].head.args == (2, 3)


def test_head_must_be_callable():
    with pytest.raises(ParseError):
        parse_program("7.")
    with pytest.raises(ParseError):
        parse_program("X :- p(a).")


def test_parse_query_single():
    goals = parse_query("path(X,Y).")
    assert len(goals) == 1
    assert goals[0].functor is functor("path", 2)


def test_parse_query_conjunction_shares_vars():
    g1, g2 = parse_query("edge(1,X), path(X,Y).")
    assert g1.args[1] is g2.args[0]


def test_parse_query_empty_is_error():
    with pytest.raises(ParseError):
        parse_query("")
    with pytest.raises(ParseError):
        parse_query("   % nothing\n")


def test_parse_query_requires_period():
    with pytest.raises(ParseError):
        parse_query("path(X,Y)")


def test_parse_query_rejects_trailing_text():
    with pytest.raises(ParseError):
        parse_query("p(X). q(Y).")


def test_roundtrip_path_program():
    prog1 = parse_program(PATH_PROG)
    prog2 = parse_program(program_to_text(prog1))
    assert program_sig(prog1) == program_sig(prog2)


# --- property: print/parse round-trip ---------------------------------

_atoms = st.sampled_from(["a", "b", "c", "nil", "hello world", "q'd"])
_vnames = st.sampled_from(["X", "Y", "Z", "_", "_Acc"])

def _atom_text(n):
    if n.isidentifier() and n[0].islower():
        return n
    return "'" + n.replace("\\", "\\\\").replace("'", "\\'") + "'"


_term_text = st.recursive(
    st.integers(0, 99).map(str) | _atoms.map(_atom_text) | _vnames,
    lambda ch: st.tuples(
        st.sampled_from(["f", "g", "p"]), st.lists(ch, min_size=1, max_size=3)
    ).map(lambda t: f"{t[0]}({','.join(t[1])})"),
    max_leaves=6,
)

_callable_text = st.tuples(
    st.sampled_from(["p", "q", "r"]), st.lists(_term_text, min_size=1, max_size=3)
).map(lambda t: f"{t[0]}({','.join(t[1])})")

_clause_text = st.one_of(
    _callable_text.map(lambda h: h + "."),
    st.tuples(_callable_text, st.lists(_callable_text, min_size=1, max_size=3)).map(
        lambda t: f"{t[0]} :- {', '.join(t[1])}."
    ),
)

_program_text = st.tuples(
    st.booleans(), st.lists(_clause_text, min_size=1, max_size=6)
).map(lambda t: (":- table p/2.\n" if t[0] else "") + "\n".join(t[1]))


@given(_program_text)
def test_prop_roundtrip(text):
    prog1 = parse_program(text)
    prog2 = parse_program(program_to_text(prog1))
    assert program_sig(prog1) == program_sig(prog2)


# --- property: mutated programs end in a Program or a ParseError -------

_MUTANT_CHARS = st.sampled_from(list("#²٣é':%\n\r\\ (),.-_aX1"))


_MUTATION = st.sampled_from(["insert", "delete", "replace"])


def _mutate(text, op, at, ch):
    k = at % (len(text) + 1)
    if op == "insert":
        return text[:k] + ch + text[k:]
    if op == "delete":
        return text[:k] + text[k + 1:]
    return text[:k] + ch + text[k + 1:]


@given(_program_text, _MUTATION, st.integers(0, 10**6), _MUTANT_CHARS)
def test_prop_mutated_program_parses_or_raises(text, op, at, ch):
    text = _mutate(text, op, at, ch)
    for parse in (parse_program, parse_query):
        try:
            parse(text)
        except ParseError as e:
            line = text.split("\n")[e.line - 1]
            assert 1 <= e.col <= len(line) + 1
            msg = str(e).split(": ", 1)[1]
            if msg.startswith("unexpected character"):
                assert msg == f"unexpected character {line[e.col - 1]!r}"


# --- the ground-fact fast path against the general parser ---------------

# (name, arguments, path): "token" when the '.' before the fact carries it,
# "general" when the general parser reads it
@pytest.mark.parametrize("text,fact", [
    ("e(1,a).", ("e", (1, functor("a", 0)), "token")),
    ("edge ( 12 ,\n% c\n 7 ) .", ("edge", (12, 7), "general")),
    ("p(٣).", ("p", (3,), "token")),
    ("e.", None),
    ("e().", None),
    ("e(1,X).", None),
    ("e(1,_).", None),
    ("e('a').", None),
    ("'e'(1).", None),
    ("e(f(1)).", None),
    ("e(1) :- q.", None),
    ("e(1,2)", None),
    ("e(1,2", None),
    ("e(1,,2).", None),
    ("e(1 2).", None),
    ("Ee(1).", None),
    (":- table e/1.", None),
    ("", None),
    ("edge(a,b,1).", ("edge", (functor("a", 0), functor("b", 0), 1), "token")),
    ("% e(1,2).\n", None),
    ("%e(1,2).\ne(3,x).", ("e", (3, functor("x", 0)), "token")),
    ("e(1 % one, two\n,x2 % e(9).\n).", ("e", (1, functor("x2", 0)), "general")),
    ("e(1)% c", None),
    (f"e({'9' * 4300}).", ("e", (int("9" * 4300),), "general")),
    (f"e({'9' * 4301}).", None),
], ids=_short_id)
def test_ground_fact_shape(text, fact):
    # the '.' that parse_program puts before the text
    dot = reader._TOKEN_RE.match("." + text).group(1)
    if fact is None:
        assert dot == "."
    else:
        name, args, path = fact
        # a carried fact ends before its own '.', the next token
        assert dot == ("." + text[:-1] if path == "token" else ".")
        f = functor(name, len(args))
        prog = parse_program(text)
        assert list(prog.predicates) == [f]
        assert type(prog.predicates[f]) is Rows and prog.predicates[f].rows == [args]


def _outcome(text):
    try:
        prog = parse_program(text)
    except ParseError as e:
        return str(e), e.line, e.col
    return program_sig(prog), [repr(f) for f in prog.predicates]


# the tokenizer without facts: every '.' is a token of its own, and the
# general parser reads every clause
_GENERAL_TOKEN_RE = re.compile(
    rf"{reader._LAYOUT}({reader._PUNCT}|\.|{reader._INT}|{reader._NAME}|{reader._QUOTED_OPEN}'?|\S)?"
)


def _general_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reader, "_TOKEN_RE", _GENERAL_TOKEN_RE)
        return _outcome(text)


_LAYOUT = st.sampled_from(
    ["", "", " ", "\n", "\t", " % note\n", "\n% a line\n", "% e(1,2).\n", " %)\n", "%p(a, 1).\n"]
)
_fact_arg = st.integers(0, 10**4).map(str) | st.sampled_from(
    ["a", "b", "nil", "x1", "aB_2", "'a'", "'hello world'", "'q\\'d'", "٣", "007", "9" * 4301]
)


@st.composite
def _fact_program_text(draw):
    out = [draw(_LAYOUT)]
    kinds = st.sampled_from(["fact"] * 5 + ["rule", "table"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=12)):
        if kind == "fact":
            args = draw(st.lists(_fact_arg, max_size=4))
            toks = [draw(st.sampled_from(["e", "edge", "p"]))]
            if args:
                seps = [","] * (len(args) - 1) + [")"]
                toks += ["(", *(t for pair in zip(args, seps) for t in pair)]
            toks.append(".")
        elif kind == "rule":
            toks = [draw(_clause_text)]
        else:
            toks = [":- table ", draw(st.sampled_from(["e/2", "edge/2", "edge/3", "p/1"])), "."]
        out += [t + draw(_LAYOUT) for t in toks]
    return "".join(out)


def _fact_run(n, comment_every=0, end=""):
    """``n`` consecutive ground facts, a comment line before every
    ``comment_every``-th, then ``end``: runs that cross the cap on the facts
    one '.' token carries."""
    lines = []
    for k in range(n):
        if comment_every and k % comment_every == 0:
            lines.append(f"% e({k},n).")
        lines.append(f"e({k},n{k % 7}).")
    return "\n".join(lines) + "\n" + end


@settings(max_examples=500)
@given(_fact_program_text())
@example(_fact_run(63))
@example(_fact_run(64, comment_every=10))
@example(_fact_run(65, end="p(X) :- e(X,n1)."))
@example(":- table e/2.\n" + _fact_run(1000, comment_every=7))
@example(_fact_run(70) + "e(X,n1) :- e(n1,X).\n" + _fact_run(70, comment_every=3))
def test_prop_fast_path_matches_general_parser(text):
    assert _outcome(text) == _general_outcome(text)


@settings(max_examples=500)
@given(_fact_program_text(), _MUTATION, st.integers(0, 10**6), _MUTANT_CHARS)
def test_prop_fast_path_matches_general_parser_on_mutants(text, op, at, ch):
    text = _mutate(text, op, at, ch)
    assert _outcome(text) == _general_outcome(text)
    for tok in reader._TOKEN_RE.findall("." + text):
        if tok[:1] == "." and len(tok) > 1:  # the facts a '.' carries are read whole
            facts = [m[0] for m in reader._ROW_RE.finditer(tok)]
            assert "".join(facts) == tok and len(facts) <= reader._FACTS_PER_TOKEN


# --- rows: ground facts kept as argument tuples --------------------------

ROWS_TEXT = (
    ":- table t/2.\n"
    "edge(1,2).\nedge(1,a).\nedge(b,3).\nedge('c d',1).\n"  # the quoted atom takes the general path
    "t(1,2).\nt(2,3).\n"
    "w(a,b,1).\nw(a,c,2).\n"
    "go.\n"
    "q :- go.\n"
)


def _clause_program(text):
    """The program of ``text``'s clauses, each added by ``Program.add``."""
    parsed = parse_program(text)
    prog = Program(tabled=set(parsed.tabled))
    for cs in parsed.predicates.values():
        for c in cs:
            prog.add(c.head, c.body)
    return prog


def _pred_view(engine):
    return {
        f: (p.kind, p.facts, p.index, None if p.clauses is None else [clause_sig(Clause(h, b)) for h, b in p.clauses])
        for f, p in engine.preds.items()
    }


# fact predicates whose engine entries resolve clauses: ternary rows, and
# binary rows that are tabled; and a 0-ary fact, whose entry resolves none
FACT0_TEXT = "go.\nq :- go.\n"
ARITY3_TEXT = ":- table path/2.\npath(X,Y) :- edge(X,Y,_).\n" + "".join(
    f"edge({i},{i + 1},1).\nedge({i},{2 * i},b).\n" for i in range(40)
)
TABLED_FACTS_TEXT = ":- table t/2.\nt(1,2).\nt(2,a).\nt(b,3).\np(X,Y) :- t(X,Z), t(Z,Y).\n"


def _printed_heads(engine):
    return {f: [term_to_str(h) for h, _ in p.clauses or ()] for f, p in engine.preds.items()}


def test_rows_and_clauses_build_the_same_engine():
    for text in (ARITY3_TEXT, TABLED_FACTS_TEXT, FACT0_TEXT):
        prog = parse_program(text)
        assert any(type(cs) is Rows for cs in prog.predicates.values())
        fact_clause, calls = reader._fact_clause, []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(reader, "_fact_clause", lambda f, row: calls.append(row) or fact_clause(f, row))
            engine = Engine(prog)
        assert calls == []  # the engine reads rows as rows
        # the same program written as clause lists
        listed = Engine(Program({f: list(cs) for f, cs in prog.predicates.items()}, set(prog.tabled)))
        assert _pred_view(engine) == _pred_view(listed) == _pred_view(Engine(_clause_program(text)))
        assert _printed_heads(engine) == _printed_heads(listed)
    rows = parse_program(ROWS_TEXT)
    edge = functor("edge", 2)
    assert type(rows.predicates[edge]) is Rows
    assert rows.predicates[edge].rows[:2] == [(1, 2), (1, functor("a", 0))]
    hand = Program(tabled={functor("t", 2)})
    for f, args in [(edge, (1, 2)), (edge, (1, functor("a", 0))), (edge, (functor("b", 0), 3)),
                    (edge, (functor("c d", 0), 1)), (functor("t", 2), (1, 2)), (functor("t", 2), (2, 3)),
                    (functor("w", 3), (functor("a", 0), functor("b", 0), 1)),
                    (functor("w", 3), (functor("a", 0), functor("c", 0), 2))]:
        hand.add(Struct(f, args))
    hand.add(functor("go", 0))
    hand.add(functor("q", 0), (functor("go", 0),))
    view = _pred_view(Engine(rows))
    assert view == _pred_view(Engine(hand)) == _pred_view(Engine(_clause_program(ROWS_TEXT)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reader, "_TOKEN_RE", _GENERAL_TOKEN_RE)
        assert _pred_view(Engine(parse_program(ROWS_TEXT))) == view
    assert view[edge][:3] == (
        _P_FACTS2, [(1, 2), (1, functor("a", 0)), (functor("b", 0), 3), (functor("c d", 0), 1)],
        {1: [2, functor("a", 0)], functor("b", 0): [3], functor("c d", 0): [1]},
    )
    assert view[functor("t", 2)][0] == _P_TABLED
    assert view[functor("w", 3)][0] == _P_GENERAL
    assert len(view[functor("t", 2)][3]) == 2


def test_rows_are_a_clause_sequence_that_round_trips():
    prog = parse_program(ROWS_TEXT)
    counts = {repr(f): len(cs) for f, cs in prog.predicates.items()}
    assert counts == {"t/2": 2, "edge/2": 4, "w/3": 2, "go/0": 1, "q/0": 1}
    w = prog.predicates[functor("w", 3)]
    assert type(w) is Rows
    assert [term_to_str(c.head) for c in w] == ["w(a,b,1)", "w(a,c,2)"]
    assert term_to_str(w[-1].head) == "w(a,c,2)" and w[1].body == ()
    assert prog.clauses(functor("go", 0))[0].head is functor("go", 0)
    again = parse_program(program_to_text(prog))
    assert program_sig(again) == program_sig(prog)
    assert {f: type(cs) for f, cs in again.predicates.items()} == {f: type(cs) for f, cs in prog.predicates.items()}


def test_a_rule_turns_rows_into_clauses():
    text = "e(1,2).\ne(2,3).\ne(X,Y) :- f(Y,X).\ne(3,4).\nf(2,3).\n"
    prog = parse_program(text)
    cs = prog.predicates[functor("e", 2)]
    assert type(cs) is list and len(cs) == 4
    assert [term_to_str(c.head) for c in cs] == ["e(1,2)", "e(2,3)", "e(X,Y)", "e(3,4)"]
    assert _outcome(text) == _general_outcome(text)
    engine = Engine(prog)
    assert engine.preds[functor("e", 2)].kind == _P_GENERAL
    raw, _ = engine.run_query(parse_query("e(3,Y)."))
    assert [term_to_str(a) for a in engine.answers(raw)] == ["e(3,2)", "e(3,4)"]
    assert type(prog.predicates[functor("f", 2)]) is Rows
    nonground = parse_program("p(1).\np(X).\np(2).\n").predicates[functor("p", 1)]
    assert type(nonground) is list and len(nonground) == 3


class _TokenizerSpy:
    """Stands for ``_TOKEN_RE`` and records each ``findall`` call: the text
    and the tokens.  It has no other method, so any other scan fails."""

    def __init__(self):
        self.real = reader._TOKEN_RE
        self.calls = []

    def findall(self, text):
        toks = self.real.findall(text)
        self.calls.append((text, toks))
        return toks


def test_reader_scans_each_character_once(monkeypatch):
    # 2,000 clauses, facts and rules in turn: one findall reads the text
    text = "".join(f"e({i},{i + 1}).\np({i}) :- e({i},X), q(X).\n" for i in range(1000))
    spy = _TokenizerSpy()
    with monkeypatch.context() as mp:
        mp.setattr(reader, "_TOKEN_RE", spy)
        prog = parse_program(text)
    assert len(prog.predicates[functor("p", 1)]) == 1000
    assert len(prog.predicates[functor("e", 2)]) == 1000
    assert [t for t, _ in spy.calls] == ["." + text]


def test_a_run_of_clauses_is_tokenized_once(monkeypatch):
    # a fact, then three clauses that are not ground facts, 100 times: one
    # findall, in which the '.' before each fact carries it
    block = "e({i},{j}).\np({i}) :- e({i},X), q(X).\nq('{i}').\n:- table q/1.\n"
    text = "".join(block.format(i=i, j=i + 1) for i in range(100))
    spy = _TokenizerSpy()
    with monkeypatch.context() as mp:
        mp.setattr(reader, "_TOKEN_RE", spy)
        prog = parse_program(text)
    assert [sum(t[:1] == "." and len(t) > 1 for t in toks) for _, toks in spy.calls] == [100]
    assert type(prog.predicates[functor("q", 1)]) is Rows and len(prog.predicates[functor("q", 1)]) == 100
    assert type(prog.predicates[functor("e", 2)]) is Rows and len(prog.predicates[functor("e", 2)]) == 100


def test_parse_memory_per_clause():
    # the general parser's tokens and the rows it builds; a parse that held
    # the regex engine's state for a whole run of clauses took 1,471 bytes
    text = "".join(f"q('a b',{k}).\n" for k in range(6000))
    parse_program(text)
    tracemalloc.start()
    try:
        prog = parse_program(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(prog.predicates[functor("q", 2)]) == 6000
    assert peak / 6000 < 500


def test_rows_slice_like_a_clause_list():
    text = "e(1,2).\ne(2,3).\ne(3,a).\ne(b,4).\n"
    rows = parse_program(text).clauses(functor("e", 2))
    assert type(rows) is Rows
    clauses = [Clause(g, ()) for g in parse_query(text.replace(".\n", ", ")[:-2] + ".")]
    sigs = lambda cs: [clause_sig(c) for c in cs]
    for s in [slice(None), slice(0, 2), slice(1, None), slice(-2, None), slice(None, None, -1),
              slice(3, 0, -2), slice(5, 9), slice(-9, -3)]:
        assert type(rows[s]) is list and sigs(rows[s]) == sigs(clauses[s])
    for k in range(-4, 4):
        assert clause_sig(rows[k]) == clause_sig(clauses[k])
    assert sigs(reversed(rows)) == sigs(reversed(clauses))
    assert [term_to_str(c.head) for c in rows[0:2]] == ["e(1,2)", "e(2,3)"]
    with pytest.raises(IndexError):
        rows[4]


# --- property: deeply nested terms through reader, engine and printer --

@settings(max_examples=20, deadline=None)
@given(st.integers(1, 10**4), st.booleans())
@example(10**4, False)
@example(10**4, True)
def test_prop_deeply_nested_fact_round_trips(depth, tabled):
    deep = "f(" * depth + "a" + ")" * depth
    prog = parse_program((":- table p/1.\n" if tabled else "") + f"p({deep}).\n")
    for query in ("p(X).", f"p({deep})."):
        engine = Engine(prog)
        raw, _ = engine.run_query(parse_query(query))
        assert [term_to_str(a) for a in engine.answers(raw)] == [f"p({deep})"]
