import pytest
from hypothesis import given, strategies as st

from lintab.terms import (
    Functor,
    Struct,
    Trail,
    Var,
    deref,
    fresh_copy,
    functor,
    term_to_str,
    unify,
)


def s(name, *args):
    return Struct(functor(name, len(args)), tuple(args))


def term_tokens(t) -> tuple:
    """Preorder token stream of a term, the key of both table-space tries.

    Tokens are ints (integer leaves), interned Functor objects (atom, or
    compound head whose arity gives the subtree width), and ``('v', k)``
    pairs numbering unbound variables by first appearance.  Two terms are
    variants exactly when their token streams are equal.
    """
    varmap = {}
    out = []
    stack = [t]
    while stack:
        x = deref(stack.pop())
        tx = type(x)
        if tx is Var:
            k = varmap.get(x)
            if k is None:
                k = len(varmap)
                varmap[x] = k
            out.append(("v", k))
        elif tx is Struct:
            out.append(x.functor)
            stack.extend(reversed(x.args))
        else:
            out.append(x)
    return tuple(out)


def tokens_to_term(tokens):
    """Reference decoder: rebuild a term from a preorder token stream, with
    fresh variables, reading it front to back."""
    varmap = {}
    frames = []  # [functor, collected args]
    result = None
    for tok in tokens:
        tt = type(tok)
        if tt is tuple:
            k = tok[1]
            term = varmap.get(k)
            if term is None:
                term = Var()
                varmap[k] = term
        elif tt is Functor:
            if tok.arity == 0:
                term = tok
            else:
                frames.append([tok, []])
                continue
        else:
            term = tok
        while frames:
            head, args = frames[-1]
            args.append(term)
            if len(args) < head.arity:
                term = None
                break
            frames.pop()
            term = Struct(head, tuple(args))
        if term is not None:
            result = term
    if frames or result is None:
        raise ValueError("malformed token stream")
    return result


def test_functor_interning():
    assert functor("f", 2) is functor("f", 2)
    assert functor("f", 2) is not functor("f", 3)


def test_unify_atoms_and_ints():
    tr = Trail()
    assert unify(functor("a", 0), functor("a", 0), tr)
    assert not unify(functor("a", 0), functor("b", 0), tr)
    assert unify(7, 7, tr)
    assert not unify(7, 8, tr)
    assert not unify(7, functor("a", 0), tr)


def test_unify_binds_and_undoes():
    x, y = Var("X"), Var("Y")
    tr = Trail()
    m = len(tr)
    assert unify(s("f", x, 3), s("f", functor("a", 0), y), tr)
    assert deref(x) is functor("a", 0)
    assert deref(y) == 3
    tr.undo_to(m)
    assert x.ref is None and y.ref is None


def test_unify_var_chain():
    x, y, z = Var(), Var(), Var()
    tr = Trail()
    assert unify(x, y, tr)
    assert unify(y, z, tr)
    assert unify(z, 42, tr)
    assert deref(x) == 42


def test_unify_functor_mismatch():
    tr = Trail()
    assert not unify(s("f", 1), s("g", 1), tr)
    assert not unify(s("f", 1), s("f", 1, 2), tr)
    assert not unify(s("f", 1), functor("f", 0), tr)


def test_unify_shared_var_conflict():
    x = Var()
    tr = Trail()
    assert not unify(s("f", x, x), s("f", 1, 2), tr)


def test_unify_occurs_check():
    # the results are kept as booleans: a failed assert would render a
    # cyclic term forever
    x, y = Var(), Var()
    tr = Trail()
    bound = unify(x, s("f", x), tr)
    tr.undo_to(0)
    assert not bound
    bound = unify(s("f", x, y), s("f", y, s("g", x)), tr)
    tr.undo_to(0)
    assert not bound
    assert x.ref is None and y.ref is None
    assert unify(s("f", x), s("f", s("g", y)), tr)
    assert term_to_str(x) == term_to_str(s("g", y))


def test_tokens_shape():
    x, y = Var(), Var()
    t = s("p", x, s("g", y, x), 5)
    toks = term_tokens(t)
    assert toks == (
        functor("p", 3),
        ("v", 0),
        functor("g", 2),
        ("v", 1),
        ("v", 0),
        5,
    )


def test_tokens_follow_bindings():
    x = Var()
    tr = Trail()
    unify(x, functor("a", 0), tr)
    assert term_tokens(s("f", x)) == (functor("f", 1), functor("a", 0))


def variant(a, b):
    return term_tokens(a) == term_tokens(b)


def test_variant():
    # variant identity is equality of canonical token streams
    assert variant(s("p", Var(), Var()), s("p", Var(), Var()))
    x = Var()
    y = Var()
    assert variant(s("p", x, x), s("p", y, y))
    assert not variant(s("p", x, x), s("p", Var(), Var()))


def test_tokens_roundtrip_simple():
    x = Var()
    t = s("p", x, s("g", x), functor("end", 0))
    back = tokens_to_term(term_tokens(t))
    assert variant(t, back)


def test_tokens_to_term_rejects_truncated():
    with pytest.raises(ValueError):
        tokens_to_term((functor("f", 2), 1))
    with pytest.raises(ValueError):
        tokens_to_term(())


def test_fresh_copy_is_variant_and_independent():
    x = Var("X")
    t = s("p", x, x, 3)
    c = fresh_copy(t)
    assert variant(t, c)
    tr = Trail()
    unify(x, 1, tr)
    # the copy's variables stay untouched
    assert term_tokens(c) == (functor("p", 3), ("v", 0), ("v", 0), 3)


def test_fresh_copy_deeply_nested():
    x = Var("X")
    t = x
    for _ in range(5000):
        t = s("f", t)
    c = fresh_copy(t)
    assert term_tokens(c) == term_tokens(t)
    tr = Trail()
    unify(x, 1, tr)
    assert term_tokens(c)[-1] == ("v", 0)


def test_term_to_str():
    x = Var("X")
    assert term_to_str(s("path", x, 3)) == "path(X,3)"
    assert term_to_str(functor("hello world", 0)) == "'hello world'"
    assert term_to_str(s("f", Var(), Var())) == "f(_G0,_G1)"
    names = {}
    a, b = Var(), Var()
    term_to_str(s("f", a), names)
    out = term_to_str(s("f", b), names)
    assert out == "f(_G1)"


# --- property tests ---------------------------------------------------

# Skeletons are plain data hypothesis can shrink; build() turns one into a
# term, giving var leaves with the same index the same Var object.
_skel = st.recursive(
    st.integers(-9, 9)
    | st.sampled_from(["a", "b", "c"]).map(lambda n: ("atom", n))
    | st.integers(0, 3).map(lambda k: ("var", k)),
    lambda ch: st.tuples(
        st.sampled_from(["f", "g", "h"]),
        st.lists(ch, min_size=1, max_size=3),
    ).map(lambda p: ("struct", p[0], p[1])),
    max_leaves=12,
)


def build(skel, pool):
    if isinstance(skel, int):
        return skel
    tag = skel[0]
    if tag == "atom":
        return functor(skel[1], 0)
    if tag == "var":
        k = skel[1]
        if k not in pool:
            pool[k] = Var()
        return pool[k]
    _, name, args = skel
    return Struct(functor(name, len(args)), tuple(build(a, pool) for a in args))


@given(_skel)
def test_prop_tokens_roundtrip(skel):
    t = build(skel, {})
    assert variant(t, tokens_to_term(term_tokens(t)))


@given(_skel)
def test_prop_canonicalize_stable_under_decode(skel):
    t = build(skel, {})
    c = term_tokens(t)
    assert term_tokens(tokens_to_term(c)) == c


@given(_skel)
def test_prop_self_unify_after_rename(skel):
    t = build(skel, {})
    tr = Trail()
    assert unify(t, fresh_copy(t), tr)


@given(_skel, _skel)
def test_prop_unify_symmetric(sa, sb):
    a1, b1 = build(sa, {}), build(sb, {})
    a2, b2 = build(sa, {}), build(sb, {})
    tr1, tr2 = Trail(), Trail()
    r1 = unify(a1, b1, tr1)
    r2 = unify(b2, a2, tr2)
    assert r1 == r2
    if r1:
        # both orders produce the same instantiation
        assert term_tokens(Struct(functor("pair", 2), (a1, b1))) == term_tokens(
            Struct(functor("pair", 2), (a2, b2))
        )


@given(_skel, _skel)
def test_prop_undo_restores_everything(sa, sb):
    pool = {}
    a, b = build(sa, pool), build(sb, pool)
    tr = Trail()
    m = len(tr)
    before = term_tokens(Struct(functor("pair", 2), (a, b)))
    unify(a, b, tr)
    tr.undo_to(m)
    assert term_tokens(Struct(functor("pair", 2), (a, b))) == before
    assert all(v.ref is None for v in pool.values())
