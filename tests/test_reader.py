import pytest
from hypothesis import example, given, settings, strategies as st

from lintab import reader
from lintab.engine import Engine
from lintab.reader import ParseError, parse_program, parse_query, program_to_text
from lintab.terms import Functor, Struct, Var, functor, term_to_str, term_tokens

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
    assert functor("edge", 2) in prog.predicates
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
]


@pytest.mark.parametrize("reader,text,msg,line,col", ERROR_TABLE)
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


def test_duplicate_table_directive_idempotent():
    prog = parse_program(":- table p/1.\n:- table p/1.\np(1).")
    assert prog.tabled == {functor("p", 1)}


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

@pytest.mark.parametrize("text,fact", [
    ("e(1,a).", ("e", (1, functor("a", 0)))),
    ("edge ( 12 ,\n% c\n 7 ) .", ("edge", (12, 7))),
    ("p(٣).", ("p", (3,))),
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
])
def test_ground_fact_shape(text, fact):
    toks = reader._TOKEN_RE.findall(text)
    got = reader._ground_fact(toks, 0)
    if fact is None:
        assert got is None
    else:
        assert got == (*fact, len(toks) - 1)


def _outcome(text):
    try:
        prog = parse_program(text)
    except ParseError as e:
        return str(e), e.line, e.col
    return program_sig(prog), [repr(f) for f in prog.predicates]


def _general_outcome(text):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(reader, "_ground_fact", lambda toks, i: None)
        return _outcome(text)


_LAYOUT = st.sampled_from(["", "", " ", "\n", "\t", " % note\n", "\n% a line\n"])
_fact_arg = st.integers(0, 10**4).map(str) | st.sampled_from(
    ["a", "b", "nil", "x1", "aB_2", "'a'", "'hello world'", "'q\\'d'"]
)


@st.composite
def _fact_program_text(draw):
    out = [draw(_LAYOUT)]
    kinds = st.sampled_from(["fact"] * 5 + ["rule", "table"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=12)):
        if kind == "fact":
            args = draw(st.lists(_fact_arg, max_size=3))
            toks = [draw(st.sampled_from(["e", "edge", "p"]))]
            if args:
                seps = [","] * (len(args) - 1) + [")"]
                toks += ["(", *(t for pair in zip(args, seps) for t in pair)]
            toks.append(".")
        elif kind == "rule":
            toks = [draw(_clause_text)]
        else:
            toks = [":- table ", draw(st.sampled_from(["e/2", "edge/2", "p/1"])), "."]
        out += [t + draw(_LAYOUT) for t in toks]
    return "".join(out)


@given(_fact_program_text())
def test_prop_fast_path_matches_general_parser(text):
    assert _outcome(text) == _general_outcome(text)


@given(_fact_program_text(), _MUTATION, st.integers(0, 10**6), _MUTANT_CHARS)
def test_prop_fast_path_matches_general_parser_on_mutants(text, op, at, ch):
    text = _mutate(text, op, at, ch)
    assert _outcome(text) == _general_outcome(text)
    toks = reader._TOKEN_RE.findall(text)
    for i in range(len(toks)):  # the fast path raises at no token
        reader._ground_fact(toks, i)


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
