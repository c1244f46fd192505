import gc
import tracemalloc

import pytest
from hypothesis import example, given, strategies as st

from lintab.bench import GraphConfig, edge_facts, gen_edges, make_path_program
from lintab.tablespace import (
    COMPLETE,
    EVALUATING,
    LOOP_EVALUATING,
    LOOP_READY,
    READY,
    SubgoalFrame,
    TableSpace,
    TablingInvariantError,
    TrieNode,
    drs_selection,
    solution_term,
)
from lintab.engine import ALL_CONFIGS, DEFAULT_STEP_BUDGET, Engine, StepBudgetExceeded, StrategyConfig
from lintab.reader import parse_program, parse_query
from lintab.terms import Functor, Struct, Var, functor, term_to_str
from test_engine import RAISES, RAISES_CONFIGS, RAISES_QUERY
from test_terms import term_tokens


def s(name, *args):
    return Struct(functor(name, len(args)), tuple(args))


def terminal_tokens(node):
    """Reference: the token stream a trie node stands for, read root-first."""
    toks = []
    while node.parent is not None:
        toks.append(node.token)
        node = node.parent
    return tuple(reversed(toks))


def make_frame(ts=None, call=None):
    ts = ts or TableSpace()
    call = call if call is not None else s("p", Var())
    return ts, ts.subgoal_check_insert(call)


def test_subgoal_variants_share_frame():
    ts = TableSpace()
    f1 = ts.subgoal_check_insert(s("path", 1, Var("X")))
    f2 = ts.subgoal_check_insert(s("path", 1, Var("Y")))
    assert f2 is f1 and ts.frames == [f1]  # a variant call finds the frame
    f3 = ts.subgoal_check_insert(s("path", 2, Var("X")))
    assert f3 is not f1
    assert ts.frames == [f1, f3]
    assert (f1.fid, f3.fid) == (0, 1)  # the subgoal terminal's ordinal


def test_new_frame_starts_ready_and_empty():
    _, f = make_frame()
    assert f.state == READY
    assert f.solution_order == []
    assert f.round_start == 0  # no answer is new before a round grows the table
    assert f.looping_alternatives == {}


def test_solution_check_insert_dedup_and_order():
    ts, f = make_frame()
    assert ts.solution_check_insert(s("p", 1), f) is True
    assert ts.solution_check_insert(s("p", 1), f) is False
    assert ts.solution_check_insert(s("p", 2), f) is True
    got = [solution_term(n) for n in f.solution_order]
    assert [term_tokens(t) for t in got] == [term_tokens(s("p", 1)), term_tokens(s("p", 2))]
    assert [n.ordinal for n in f.solution_order] == [0, 1]


def test_solution_variant_identity():
    ts, f = make_frame(call=s("p", Var(), Var()))
    a, b = Var("A"), Var("B")
    assert ts.solution_check_insert(s("p", a, a), f) is True
    assert ts.solution_check_insert(s("p", b, b), f) is False
    assert ts.solution_check_insert(s("p", a, b), f) is True


def test_insert_into_complete_rejected():
    ts, f = make_frame()
    f.set_state(EVALUATING)
    f.set_state(COMPLETE)
    with pytest.raises(TablingInvariantError):
        ts.solution_check_insert(s("p", 1), f)
    with pytest.raises(TablingInvariantError):
        ts.insert_pairs(f, 1, [])
    assert f.solution_order == []


def _pairs_table_space(batch):
    """Source tables e(1,_) and e(2,_) with the answers 3, b, 5 and 5, 4, and
    a parent table p(7,_) holding p(7,4); then p(7,z) for each source answer
    z in turn, by one ``insert_pairs`` of the source leaves' tokens or one
    ``solution_check_insert`` per pair.  Returns the table space, the parent
    and what the inserts gave."""
    ts = TableSpace()
    srcs = [ts.subgoal_check_insert(s("e", a, Var())) for a in (1, 2)]
    for a, src, zs in ((1, srcs[0], [3, functor("b", 0), 5]), (2, srcs[1], [5, 4])):
        for z in zs:
            ts.solution_check_insert(s("e", a, z), src)
    parent = ts.subgoal_check_insert(s("p", 7, Var()))
    ts.solution_check_insert(s("p", 7, 4), parent)
    sols = srcs[0].solution_order + srcs[1].solution_order
    if batch:
        return ts, parent, ts.insert_pairs(parent, 7, [n.token for n in sols])
    return ts, parent, [ts.solution_check_insert(s("p", 7, n.token), parent) for n in sols]


def test_insert_pairs_stores_a_batch_as_one_insert_per_pair():
    ts, parent, children = _pairs_table_space(batch=True)
    # ordinals follow first appearance; 5, met twice in the batch, is stored
    # once; 4, already in the table, is not added again and keeps ordinal 0
    got = [(term_to_str(solution_term(n)), n.ordinal) for n in parent.solution_order]
    assert got == [("p(7,4)", 0), ("p(7,3)", 1), ("p(7,b)", 2), ("p(7,5)", 3)]
    assert children == {n.token: n for n in parent.solution_order}
    assert parent.flat_pairs
    one_by_one, _, new = _pairs_table_space(batch=False)
    assert new == [True, True, True, False, False]
    assert dump(ts) == dump(one_by_one)


def insert_ints(ts, f, vals):
    return [ts.solution_check_insert(s("p", v), f) for v in vals]


def test_load_all_insertion_order():
    ts, f = make_frame()
    insert_ints(ts, f, [3, 1, 2])
    got = [solution_term(n).args[0] for n in f.solution_order]
    assert got == [3, 1, 2]


def test_load_current_round_only():
    ts, f = make_frame()
    insert_ints(ts, f, [1, 2])
    start = 2  # the table size when the generator was installed
    insert_ints(ts, f, [3])
    got = [solution_term(n).args[0] for n in drs_selection(f, start)]
    assert got == [3]


def test_load_looping_only():
    ts, f = make_frame()
    insert_ints(ts, f, [1, 2])
    f.mark_looping_solution(f.solution_order[0])
    # no answer is new since the generator was installed
    got = [solution_term(n).args[0] for n in drs_selection(f, 2)]
    assert got == [1]


def test_load_looping_plus_round_deduplicated():
    ts, f = make_frame()
    insert_ints(ts, f, [1, 2, 3])
    f.mark_looping_solution(f.solution_order[2])
    got = [solution_term(n).args[0] for n in drs_selection(f, 2)]
    assert got == [3]


def test_mark_looping_alternative_idempotent_ordered():
    # clauses 0 and 2 loop and are marked again in every DRA loop round;
    # each stays once, in the order first marked
    text = ":- table p/1.\np(X) :- p(X).\np(1).\np(X) :- q(X).\nq(X) :- p(X).\nq(2).\n"
    eng = Engine(parse_program(text), StrategyConfig(dra=True))
    _, stats = eng.run_query(parse_query("p(X)."))
    assert stats.rounds_started == 1  # a first pass and one loop round
    (f,) = eng.ts.frames
    assert list(f.looping_alternatives) == [0, 2]


def test_mark_looping_solution_idempotent():
    ts, f = make_frame()
    insert_ints(ts, f, [1])
    n = f.solution_order[0]
    f.mark_looping_solution(n)
    f.mark_looping_solution(n)
    assert f.looping_solutions == {0}  # the answer's ordinal, held once
    with pytest.raises(TablingInvariantError, match="^looping mark on a non-solution node$"):
        f.mark_looping_solution(f.sol_func_node)


def test_begin_round_resets_marker():
    eng = Engine(parse_program(":- table p/1.\np(1).\np(2).\n"), StrategyConfig())
    ts, f = make_frame(eng.ts)
    insert_ints(ts, f, [1])
    f.round_start = 0
    f.next_alternative = 2
    eng.clock = 7
    eng._begin_round(f)
    # the answer stored before the round is not new in it
    assert (f.round_start, f.push_stamp) == (1, 7)
    assert drs_selection(f, f.round_start) == []
    assert (f.next_alternative, tuple(f.alt_seq)) == (0, (0, 1))


def test_completed_table_keeps_its_answers():
    ts, f = make_frame()
    insert_ints(ts, f, [1, 2])
    f.set_state(EVALUATING)
    f.set_state(COMPLETE)
    assert [solution_term(n).args[0] for n in f.solution_order] == [1, 2]
    with pytest.raises(TablingInvariantError):
        ts.solution_check_insert(s("p", 3), f)
    assert [solution_term(n).args[0] for n in f.solution_order] == [1, 2]


def test_state_transition_relation():
    _, f = make_frame()
    f.set_state(EVALUATING)
    f.set_state(LOOP_READY)
    f.set_state(LOOP_EVALUATING)
    f.set_state(LOOP_READY)
    f.set_state(LOOP_EVALUATING)
    f.set_state(COMPLETE)
    for bad in (READY, EVALUATING, LOOP_READY, LOOP_EVALUATING, COMPLETE):
        with pytest.raises(TablingInvariantError):
            f.set_state(bad)


def test_illegal_shortcut_transitions():
    _, f = make_frame()
    with pytest.raises(TablingInvariantError):
        f.set_state(LOOP_EVALUATING)
    with pytest.raises(TablingInvariantError):
        f.set_state(COMPLETE)


def dump(ts):
    """Deterministic text rendering of a table space, one frame per block."""
    out = []
    for fr in ts.frames:
        out.append(f"== {fr.subgoal_str()} state={fr.state}")
        if fr.looping_alternatives:
            idxs = ",".join(str(i) for i in fr.looping_alternatives)
            out.append(f"   looping_alts: [{idxs}]")
        for i, node in enumerate(fr.solution_order):
            mark = " *loop" if i in fr.looping_solutions else ""
            out.append(f"   sol {i}: {term_to_str(solution_term(node))}{mark}")
    return "\n".join(out) + ("\n" if out else "")


def test_dump_golden():
    ts = TableSpace()
    assert dump(ts) == ""
    fa = ts.subgoal_check_insert(s("a", Var()))
    fb = ts.subgoal_check_insert(s("b", Var()))
    ts.solution_check_insert(s("a", 1), fa)
    ts.solution_check_insert(s("a", 2), fa)
    fa.mark_looping_solution(fa.solution_order[1])
    fb.looping_alternatives.setdefault(0)
    fa.set_state(EVALUATING)
    fa.set_state(COMPLETE)
    assert dump(ts) == (
        "== a(_G0) state=complete\n"
        "   sol 0: a(1)\n"
        "   sol 1: a(2) *loop\n"
        "== b(_G0) state=ready\n"
        "   looping_alts: [0]\n"
    )


# --- properties --------------------------------------------------------

_skel = st.recursive(
    st.integers(-9, 9)
    | st.sampled_from(["a", "b"]).map(lambda n: ("atom", n))
    | st.integers(0, 2).map(lambda k: ("var", k)),
    lambda ch: st.lists(ch, min_size=1, max_size=3).map(lambda a: ("struct", a)),
    max_leaves=8,
)


def build(skel, pool):
    """Term from a skeleton; ``pool`` shares variables across the term."""
    if isinstance(skel, int):
        return skel
    if skel[0] == "atom":
        return functor(skel[1], 0)
    if skel[0] == "var":
        if skel[1] not in pool:
            pool[skel[1]] = Var()
        return pool[skel[1]]
    args = [build(a, pool) for a in skel[1]]
    return Struct(functor("f", len(args)), tuple(args))


def count_terminals(node):
    n = 1 if node.ordinal is not None else 0
    if node.children:
        for ch in node.children.values():
            n += count_terminals(ch)
    return n


def vars_of(t):
    found, stack = set(), [t]
    while stack:
        x = stack.pop()
        if type(x) is Var:
            found.add(x)
        elif type(x) is Struct:
            stack.extend(x.args)
    return found


X, Y = ("var", 0), ("var", 1)


@given(st.lists(st.lists(_skel, max_size=3), min_size=1, max_size=20))
@example([[X, X], [X, Y], [("struct", [X]), X], [("struct", [X]), Y], [], [Y, Y], []])
@example([[1, ("atom", "a")], [2, X], [1, ("atom", "a")]])
@example([[("struct", [0])]])
@example([[1, ("atom", "a")], [1, X], [1, ("atom", "a")], [("struct", [1]), 2]])
def test_prop_trie_bijection(arg_lists):
    # term_tokens defines variant identity; both tries must agree with it
    ts = TableSpace()
    call = s("p", Var(), Var())
    sols = ts.subgoal_check_insert(call)  # this frame takes every term as a solution
    frames, seen, flat = {term_tokens(call): sols}, set(), True
    for skels in arg_lists:
        pool = {}  # one variable may occur in several arguments
        args = [build(sk, pool) for sk in skels]
        t = s("p", *args) if args else functor("p", 0)
        key = term_tokens(t)
        known = len(ts.frames)
        frame = ts.subgoal_check_insert(t)
        assert (len(ts.frames) == known) == (key in frames)  # a variant adds no frame
        assert frames.setdefault(key, frame) is frame
        assert ts.solution_check_insert(t, sols) == (key not in seen)
        seen.add(key)
        # the flag holds while every stored solution is a flat pair: arity 2,
        # both arguments atomic
        flat = flat and len(args) == 2 and all(type(a) in (int, Functor) for a in args)
        assert sols.flat_pairs == flat
    assert len(ts.frames) == len(frames) == count_terminals(ts.subgoal_root)
    for key, frame in frames.items():
        assert terminal_tokens(frame.call_node) == key
        assert term_tokens(solution_term(frame.call_node)) == key
    assert count_terminals(sols.solution_trie_root) == len(sols.solution_order) == len(seen)
    assert {terminal_tokens(n) for n in sols.solution_order} == seen
    for n in sols.solution_order:
        t = solution_term(n)
        toks = terminal_tokens(n)
        assert term_tokens(t) == toks
        # one Var object per variable token, however often it repeats
        assert len(vars_of(t)) == len({tok for tok in toks if type(tok) is tuple})


@given(
    st.lists(st.integers(0, 30), min_size=0, max_size=25),
    st.data(),
)
def test_prop_looping_plus_round_is_subsequence_of_all(vals, data):
    ts = TableSpace()
    frame = ts.subgoal_check_insert(s("p", Var()))
    for v in vals:
        ts.solution_check_insert(s("p", v), frame)
    n = len(frame.solution_order)
    for node in frame.solution_order:
        if data.draw(st.booleans()):
            frame.mark_looping_solution(node)
    start = data.draw(st.integers(0, n))  # n: no answer new since the install
    all_sols = [n_.ordinal for n_ in frame.solution_order]
    some = [n_.ordinal for n_ in drs_selection(frame, start)]
    it = iter(all_sols)
    assert all(x in it for x in some)  # subsequence check
    assert len(set(some)) == len(some)
    assert set(range(start, n)) <= set(some)
    assert all(x >= start or x in frame.looping_solutions for x in some)


# -- freeing the tables -----------------------------------------------------------


@pytest.fixture
def collector_off():
    """Only reference counting frees objects while the test runs."""
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    yield
    if was:
        gc.enable()


GRID3 = make_path_program() + edge_facts(gen_edges(GraphConfig("grid", 3)))


def test_tables_die_by_reference_counting(collector_off):
    program, query = parse_program(GRID3), parse_query("path(X,Z).")
    kinds = (TrieNode, SubgoalFrame)
    alive = [o for o in gc.get_objects() if type(o) in kinds]  # made by earlier tests
    known = {id(o) for o in alive}
    for config in ALL_CONFIGS:
        engine = Engine(program, config)
        raw, _ = engine.run_query(query)
        assert len(engine.answers(raw)) == 81
        assert any(type(o) in kinds for o in gc.get_objects())
        del engine, raw
        assert [o for o in gc.get_objects() if type(o) in kinds and id(o) not in known] == []


def test_a_run_that_raises_frees_its_tables(collector_off):
    # a run stopped part-way leaves suspended choice points behind, and
    # they refer to the engine: they must not keep its tables alive
    kinds = (TrieNode, SubgoalFrame)
    known = {id(o) for o in gc.get_objects() if type(o) in kinds}
    runs = [(GRID3, "path(X,Z).", StrategyConfig(), 500, StepBudgetExceeded)]
    runs += [(RAISES, RAISES_QUERY, config, DEFAULT_STEP_BUDGET, TablingInvariantError)
             for config in RAISES_CONFIGS]
    for text, query, config, budget, error in runs:
        engine = Engine(parse_program(text), config, step_budget=budget)
        with pytest.raises(error):
            engine.run_query(parse_query(query))
        assert any(type(o) in kinds and id(o) not in known for o in gc.get_objects())
        del engine
        assert [o for o in gc.get_objects() if type(o) in kinds and id(o) not in known] == []


def test_a_raw_answer_outlives_its_engine(collector_off):
    engine = Engine(parse_program(GRID3))
    raw, _ = engine.run_query(parse_query("path(X,Z)."))
    assert raw and all(type(a) is TrieNode for a in raw)
    want = [term_to_str(solution_term(a)) for a in raw]
    del engine
    assert raw[0].parent.children is None  # the tries are unlinked
    assert [term_to_str(solution_term(a)) for a in raw] == want


# -- nested answers share their prefixes -------------------------------------------

NAT = ":- table nat/1.\nnat(0).\nnat(s(X)) :- nat(X).\n"


def _peak_bytes_per_answer(budget):
    """tracemalloc's peak over a run of ``nat(X).`` cut at ``budget`` steps,
    per answer stored by then."""
    program, query = parse_program(NAT), parse_query("nat(X).")
    tracemalloc.start()
    try:
        engine = Engine(program, step_budget=budget)
        with pytest.raises(StepBudgetExceeded):
            engine.run_query(query)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / engine.stats.answers_emitted


def test_nested_answers_keep_linear_memory():
    # the n-th answer s^n(0) shares its first n-1 tokens with the answer
    # before it, so a solution trie grows by one node per answer; tables
    # keyed by whole argument terms would store each answer again, and the
    # bytes per answer would grow with n
    small, large = _peak_bytes_per_answer(1000), _peak_bytes_per_answer(2000)
    assert large <= 1.3 * small, (small, large)
