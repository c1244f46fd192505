"""Engine behaviour tests.

The mutual-recursion program (a/1 and b/1 calling each other over one fact
each) is small enough to hand-trace, so its counters are pinned exactly for
all four base strategies.  Larger cases are checked against a breadth-first
reachability oracle that never touches the engine.
"""

import gc
import random
import re

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from counter_matrix import random_program
from lintab import engine as engine_module
from lintab.bench import gen_edges, GraphConfig, make_path_program, edge_facts, oracle_reachability
from lintab.engine import ALL_CONFIGS, Engine, StepBudgetExceeded, StrategyConfig, solve
from lintab.reader import parse_program, parse_query
from lintab.tablespace import TableSpace, TablingInvariantError
from lintab.terms import Struct, deref, term_to_str
from test_delivery_plans import observe
from test_reader import ROWS_TEXT, _clause_program

MUTUAL = """
:- table a/1.
:- table b/1.
a(X) :- b(X).
a(X) :- edge(X).
b(X) :- a(X).
b(1).
edge(2).
"""

PATH = """
:- table path/2.
path(X,Z) :- edge(X,Y), path(Y,Z).
path(X,Z) :- edge(X,Z).
"""


def run(text, query, config=StrategyConfig(), **kw):
    eng = Engine(parse_program(text), config, **kw)
    raw, stats = eng.run_query(parse_query(query))
    return eng, eng.answers(raw), stats


def path_program(edges, variant="recursive_first"):
    return make_path_program(variant) + edge_facts(list(edges))


def engine_pairs(text, query, config):
    eng, answers, _ = run(text, query, config)
    return {(t.args[0], t.args[1]) for t in answers}


# -- hand-traced counters ---------------------------------------------------

EXACT = [
    (StrategyConfig(), dict(alts=12, sols=5, rounds=2, followers=0, emitted=4, edge=3, ans=[1, 2])),
    (StrategyConfig(dra=True), dict(alts=8, sols=5, rounds=2, followers=0, emitted=4, edge=1, ans=[1, 2])),
    (StrategyConfig(drs=True), dict(alts=12, sols=2, rounds=2, followers=0, emitted=4, edge=3, ans=[1, 2])),
    (StrategyConfig(dre=True), dict(alts=8, sols=4, rounds=1, followers=2, emitted=4, edge=2, ans=[2, 1])),
]


@pytest.mark.parametrize("config,want", EXACT, ids=lambda v: v.label if isinstance(v, StrategyConfig) else "")
def test_mutual_recursion_exact_counters(config, want):
    _, answers, stats = run(MUTUAL, "a(X).", config)
    assert [t.args[0] for t in answers] == want["ans"]
    assert stats.alts_explored == want["alts"]
    assert stats.nonleader_sols_consumed == want["sols"]
    assert stats.rounds_started == want["rounds"]
    assert stats.followers_created == want["followers"]
    assert stats.answers_emitted == want["emitted"]
    assert stats.sld_calls == {"edge/1": want["edge"]}


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_mutual_recursion_all_configs(config):
    eng, answers, _ = run(MUTUAL, "a(X).", config)
    assert {t.args[0] for t in answers} == {1, 2}
    # final table space: both predicates complete with solutions {1, 2}
    by_name = {f.functor.name: f for f in eng.ts.frames}
    assert set(by_name) == {"a", "b"}
    for f in by_name.values():
        assert f.state == "complete"
        sols = {node.token for node in f.solution_order}
        assert sols == {1, 2}


def test_dra_marks_looping_alternatives():
    eng, _, _ = run(MUTUAL, "a(X).", StrategyConfig(dra=True))
    marks = {f.functor.name: set(f.looping_alternatives) for f in eng.ts.frames}
    # only the mutual-call clause of each predicate is looping
    assert marks == {"a": {0}, "b": {0}}


def test_plain_run_checks_the_dra_loop_round(monkeypatch):
    # a fault that lets a DRA loop round run every clause is caught by a
    # plain run: the invariant checks are not optional
    begin_round = Engine._begin_round

    def every_clause(self, frame):
        begin_round(self, frame)
        frame.alt_seq = range(len(self.preds[frame.functor].clauses))

    monkeypatch.setattr(Engine, "_begin_round", every_clause)
    eng = Engine(parse_program(MUTUAL), StrategyConfig(dra=True))
    with pytest.raises(TablingInvariantError, match="^loop round ran non-looping clause 1$"):
        eng.run_query(parse_query("a(X)."))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_general_delivery_checks_the_answer_unifies_with_its_call(config, monkeypatch):
    # a fault that stores p(2,2) for p(1,2) is caught when the general loop
    # delivers it into the inner call p(1,Y): its continuation is the
    # query's, but it is not the query's own call, so no collect batch runs
    insert = TableSpace.solution_check_insert

    def shifted(self, sol, frame):
        a, b = (deref(x) for x in sol.args)
        return insert(self, Struct(sol.functor, (a + 1, b)), frame)

    monkeypatch.setattr(TableSpace, "solution_check_insert", shifted)
    eng = Engine(parse_program(":- table p/2.\np(1,2).\ne(1,5).\nq(X,Y) :- e(X,W), p(X,Y).\n"), config)
    goals = parse_query("q(X,Y).")
    with pytest.raises(TablingInvariantError, match="^answer 0 of g0 does not unify with its call$"):
        eng.run_query(goals)
    assert term_to_str(goals[0]) == "q(X,Y)"


def test_re_evaluation_rounds_standard_vs_dre():
    _, _, std = run(MUTUAL, "a(X).", StrategyConfig())
    _, _, dre = run(MUTUAL, "a(X).", StrategyConfig(dre=True))
    assert std.rounds_started == 2
    assert dre.rounds_started == 1


# -- oracle equivalence on small graphs --------------------------------------

GRAPHS = {
    "chain": [(1, 2), (2, 3)],
    "self_loop": [(1, 1)],
    "two_cycles": [(1, 2), (2, 1), (3, 4), (4, 3)],
    "diamond": [(1, 2), (1, 3), (2, 4), (3, 4)],
    "cycle6": gen_edges(GraphConfig("cycle", 6)),
    "grid3": gen_edges(GraphConfig("grid", 3)),
    "pyramid4": gen_edges(GraphConfig("pyramid", 4)),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_closure_matches_oracle(name, config):
    edges = GRAPHS[name]
    want = oracle_reachability(edges)
    for variant in ("recursive_first", "recursive_last"):
        assert engine_pairs(path_program(edges, variant), "path(X,Z).", config) == want


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_bound_query(config):
    edges = gen_edges(GraphConfig("cycle", 5))
    want = {p for p in oracle_reachability(edges) if p[0] == 1}
    assert engine_pairs(path_program(edges), "path(1,Z).", config) == want


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_empty_relation_completes_empty(config):
    eng, answers, _ = run(PATH, "path(X,Z).", config)
    assert answers == []
    (frame,) = eng.ts.frames
    assert frame.state == "complete"
    assert frame.solution_order == []


CLAUSELESS = ":- table p/2.\np(X,Y) :- e(X,Y).\np(X,Y) :- f, e(Y,X).\np(X,Y) :- g(X), q.\np(1,2).\nq.\n"


def test_clauseless_predicates_count_one_call_and_fail():
    # e/2, f/0 and g/1 occur only in bodies: each call is one step and one
    # sld call, and fails without touching a fact index
    eng, answers, stats = run(CLAUSELESS, "p(X,Y).")
    assert [term_to_str(a) for a in answers] == ["p(1,2)"]
    assert stats.sld_calls == {"e/2": 1, "f/0": 1, "g/1": 1}
    assert eng.steps == 10


@pytest.mark.parametrize("text,queries", [
    (CLAUSELESS, ["p(X,Y).", "p(1,Y).", "e(X,Y).", "g(1), p(X,Y)."]),
    (ROWS_TEXT, ["t(X,Y).", "edge(X,Y).", "edge(b,Y).", "w(a,X,Y).", "q.", "go, t(1,Y)."]),
    (PATH, ["path(1,Y).", "path(X,Y)."]),
], ids=["clauseless", "rows", "path"])
def test_added_and_parsed_programs_run_the_same(text, queries, caplog):
    # the engine registers every predicate without clauses, however the
    # program was built: Program.add knows only the clauses
    parsed, added = parse_program(text), _clause_program(text)
    for query in queries:
        for config in ALL_CONFIGS:
            assert observe(added, query, config) == observe(parsed, query, config), (query, config.label)
    assert caplog.records == []


def test_unknown_query_goal_warns_once_counts_one_call_and_fails(caplog):
    eng = Engine(parse_program(MUTUAL))
    for _ in range(2):
        raw, stats = eng.run_query(parse_query("nope(X)."))
        assert (raw, stats.sld_calls, eng.steps) == ([], {"nope/1": 1}, 1)
    assert [(r.levelname, r.getMessage()) for r in caplog.records] == [
        ("WARNING", "unknown predicate nope/1 fails")
    ]


def test_ground_query_true_or_false():
    text = path_program([(1, 2), (2, 3)])
    _, yes, _ = run(text, "path(1,3).")
    _, no, _ = run(text, "path(3,1).")
    assert len(yes) == 1 and no == []


def test_zero_arity_tabled():
    _, looping, _ = run(":- table t/0.\nt :- t.", "t.")
    _, fact, _ = run(":- table t/0.\nt.", "t.")
    assert looping == []
    assert len(fact) == 1


def test_conjunction_query():
    _, answers, _ = run(MUTUAL, "a(X), b(X).")
    assert sorted(a.args[0].args[0] for a in answers) == [1, 2]


EDGES = "edge(1,2).\nedge(2,3).\nedge(1,3).\nedge(3,1).\nedge(2,2).\n"


@pytest.mark.parametrize("query, want, steps", [
    ("edge(X,Y).", ["edge(1,2)", "edge(2,3)", "edge(1,3)", "edge(3,1)", "edge(2,2)"], 7),
    ("edge(1,Y).", ["edge(1,2)", "edge(1,3)"], 4),
    ("edge(X,2).", ["edge(1,2)", "edge(2,2)"], 4),
    ("edge(1,2).", ["edge(1,2)"], 3),
    ("edge(1,3).", ["edge(1,3)"], 3),
    ("edge(X,X).", ["edge(2,2)"], 3),
    ("edge(3,3).", [], 2),
    ("edge(9,Y).", [], 1),  # a first argument the index does not hold
])
def test_fact_calls_every_binding_pattern(query, want, steps):
    # a non-tabled fact predicate called directly, under each binding of
    # its two arguments: answers in clause order, one call, and one step
    # for the call plus one per retry of its choice point
    eng, answers, stats = run(EDGES, query)
    assert [term_to_str(a) for a in answers] == want
    assert eng.steps == steps
    assert stats.sld_calls == {"edge/2": 1}


RULES = "r(X,first) :- t.\nr(2,second) :- t.\nr(X,third) :- t.\nt.\n"


@pytest.mark.parametrize("query, want, steps", [
    ("r(1,Y).", ["r(1,first)", "r(1,third)"], 6),
    ("r(2,Y).", ["r(2,first)", "r(2,second)", "r(2,third)"], 7),
    ("r(X,second).", ["r(2,second)"], 5),
    ("r(1,second).", [], 4),
])
def test_interior_calls_try_every_clause_in_order(query, want, steps):
    # a non-tabled rule predicate called directly: answers in clause order,
    # one r/2 call, and one step per call (r/2's and each body's t/0) plus
    # one per clause tried, whether or not its head unifies
    eng, answers, stats = run(RULES, query)
    assert [term_to_str(a) for a in answers] == want
    assert eng.steps == steps
    assert stats.sld_calls["r/2"] == 1


def test_step_budget_exceeded():
    text = path_program(gen_edges(GraphConfig("cycle", 30)))
    eng = Engine(parse_program(text), StrategyConfig(), step_budget=200)
    with pytest.raises(StepBudgetExceeded):
        eng.run_query(parse_query("path(X,Z)."))


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_step_budget_covers_every_step(config):
    # the table of p/1 feeds itself through q/1 without calling a new
    # predicate: deliveries and inserts are what grow the step count
    text = ":- table p/1.\np(X) :- q(X).\nq(f(Y)) :- p(Y).\nq(a).\n"
    eng = Engine(parse_program(text), config, step_budget=50)
    with pytest.raises(StepBudgetExceeded, match="step budget of 50 exceeded"):
        eng.run_query(parse_query("p(X)."))
    assert 50 <= eng.steps < 100


def test_step_budget_of_zero_and_of_the_exact_size():
    text = path_program(gen_edges(GraphConfig("grid", 3)))
    for budget in (0, 1, 2070):
        eng = Engine(parse_program(text), StrategyConfig(), step_budget=budget)
        with pytest.raises(StepBudgetExceeded, match=f"step budget of {budget} exceeded"):
            eng.run_query(parse_query("path(X,Z)."))
    eng = Engine(parse_program(text), StrategyConfig(), step_budget=2071)
    eng.run_query(parse_query("path(X,Z)."))
    assert eng.steps == 2070


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), config=st.sampled_from(ALL_CONFIGS))
@example(seed=1794, config=StrategyConfig())  # the exact budget stops with bindings left
def test_prop_step_budgets_on_random_programs(seed, config):
    # budgets 0, 1 and the exact step count stop the run with a clean
    # error; one step more gives the unbounded run's answers and counters
    text, query = random_program(random.Random(seed))
    program, goals = parse_program(text), parse_query(query)
    collector = gc.isenabled()
    eng = Engine(program, config)
    try:
        raw, stats = eng.run_query(goals)
    except (StepBudgetExceeded, TablingInvariantError):
        raw = None
    assume(raw is not None)
    want = ([term_to_str(a) for a in eng.answers(raw)], stats.as_dict(), eng.steps)
    steps = eng.steps
    for budget in (0, 1, steps):
        eng = Engine(program, config, step_budget=budget)
        with pytest.raises(StepBudgetExceeded, match=f"^step budget of {budget} exceeded$"):
            eng.run_query(goals)
        assert gc.isenabled() is collector
    eng = Engine(program, config, step_budget=steps + 1)
    raw, stats = eng.run_query(goals)
    assert ([term_to_str(a) for a in eng.answers(raw)], stats.as_dict(), eng.steps) == want


def test_a_run_that_raises_leaves_the_query_unbound():
    # a caller may run the same query terms again, as run_matrix does for
    # the cells after one that ran out of steps
    text = path_program(gen_edges(GraphConfig("grid", 3)))
    goals = parse_query("path(X,Z).")
    for budget in (5, 100):
        eng = Engine(parse_program(text), StrategyConfig(), step_budget=budget)
        with pytest.raises(StepBudgetExceeded):
            eng.run_query(goals)
        assert term_to_str(goals[0]) == "path(X,Z)"


def test_watched_runs_keep_the_step_budget_verdict():
    # tracing observes the unwatched evaluation, step for step
    text = path_program(gen_edges(GraphConfig("grid", 3)))
    for kw in ({}, {"trace": True}):
        eng = Engine(parse_program(text), StrategyConfig(), step_budget=2400, **kw)
        eng.run_query(parse_query("path(X,Z)."))
        assert eng.steps == 2070


def test_empty_query_rejected():
    eng = Engine(parse_program(MUTUAL), StrategyConfig())
    with pytest.raises(ValueError):
        eng.run_query([])


def test_determinism():
    text = path_program(gen_edges(GraphConfig("grid", 3)))
    for config in ALL_CONFIGS:
        runs = []
        for _ in range(2):
            _, answers, stats = run(text, "path(X,Z).", config)
            runs.append(([(t.args[0], t.args[1]) for t in answers], stats))
        assert runs[0] == runs[1]


def test_solve_convenience():
    answers, stats = solve(parse_program(MUTUAL), parse_query("a(X)."))
    assert [t.args[0] for t in answers] == [1, 2]
    assert stats.rounds_started == 2


# -- event log ----------------------------------------------------------------

EVENT_RE = re.compile(
    r"^(call g\d+ (generator|consumer|follower|completed)"
    r"|alt g\d+ \d+"
    r"|new_solution g\d+ (\d+|dup)"
    r"|fixpoint g\d+ (propagate|restart|complete)"
    r"|round_start g\d+ \d+"
    r"|consume g\d+ \d+ via=(generator|consumer|follower|completed)"
    r"|complete g\d+)$"
)


def traced(text, query, config=StrategyConfig()):
    eng = Engine(parse_program(text), config, trace=True)
    eng.run_query(parse_query(query))
    return eng.events


def test_event_log_is_line_oriented_and_deterministic():
    ev1 = traced(MUTUAL, "a(X).")
    ev2 = traced(MUTUAL, "a(X).")
    assert ev1 == ev2
    for line in ev1:
        assert EVENT_RE.match(line), line


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_a_reused_traced_engine_logs_each_run_afresh(config):
    program, query = parse_program(":- table p/1.\np(1).\np(2).\n"), parse_query("p(X).")
    fresh = Engine(program, config, trace=True)
    fresh.run_query(query)
    assert len(fresh.events) == 9
    engine = Engine(program, config, trace=True)
    for _ in range(2):
        engine.run_query(query)
        assert (engine.events, engine.steps) == (fresh.events, fresh.steps)


def test_local_scheduling_first_delivery_after_clause_exhaustion():
    """A non-leader generator delivers to its caller only once its clause
    cursor is spent: per round, all of its alt records precede all of its
    via=generator consume records."""
    for config in (StrategyConfig(), StrategyConfig(drs=True)):
        events = traced(path_program(GRAPHS["grid3"]), "path(X,Z).", config)
        rounds: dict = {}
        segment = 0
        for line in events:
            parts = line.split()
            if parts[0] == "round_start":
                segment += 1
                continue
            fid = parts[1]
            if parts[0] == "alt":
                assert not rounds.get((segment, fid)), f"alt after delivery: {line}"
            elif parts[0] == "consume" and parts[3] == "via=generator":
                rounds[(segment, fid)] = True


def test_scc_members_complete_with_leader():
    events = traced(":- table a/1.\n:- table b/1.\n:- table c/1.\n"
                    "a(X) :- b(X).\nb(X) :- c(X).\nc(X) :- a(X).\nc(1).",
                    "a(X).")
    assert "call g0 generator" in events and "call g1 generator" in events
    assert "call g2 generator" in events
    assert "call g0 consumer" in events  # the cycle closes as a consumer of the leader
    order = [e for e in events if e.startswith("complete ")]
    assert set(order) == {"complete g0", "complete g1", "complete g2"}
    assert order[-1] == "complete g0"  # members settle before their leader


def test_consumers_reread_from_start_each_round():
    events = traced(MUTUAL, "a(X).")
    segments, cur = [], []
    for e in events:
        if e.startswith("round_start"):
            segments.append(cur)
            cur = []
        else:
            cur.append(e)
    segments.append(cur)
    reread = [s for s in segments if "consume g0 0 via=consumer" in s]
    assert len(reread) >= 2  # ordinal 0 re-delivered on re-installation


def test_final_round_adds_no_new_solutions():
    events = traced(MUTUAL, "a(X).")
    last_restart = max(i for i, e in enumerate(events) if e.startswith("round_start"))
    for e in events[last_restart:]:
        assert not re.match(r"new_solution g\d+ \d+$", e), e


def test_top_level_tabled_answers_stream_from_completed_table():
    events = traced(MUTUAL, "a(X).")
    done = events.index("complete g0")
    deliveries = [i for i, e in enumerate(events) if e.startswith("consume g0") and e.endswith("via=completed")]
    assert deliveries and all(i > done for i in deliveries)


# -- property tests -----------------------------------------------------------

edge_lists = st.lists(
    st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=0, max_size=14, unique=True
)


NEW_SOLUTION_RE = re.compile(r"new_solution g\d+ \d+$")


def watched_run(text, query, config):
    """Run one cell plain and traced.  Both must report the same counters,
    steps and ordered answers, and the traced log must account for every
    consumed and every emitted solution."""
    runs = []
    for trace in (False, True):
        eng = Engine(parse_program(text), config, trace=trace)
        raw, stats = eng.run_query(parse_query(query))
        runs.append((eng, eng.answers(raw), stats))
    (plain, answers, stats), (traced_eng, got, got_stats) = runs
    assert got_stats.as_dict() == stats.as_dict()
    assert traced_eng.steps == plain.steps
    assert [term_to_str(t) for t in got] == [term_to_str(t) for t in answers]
    events = traced_eng.events
    consumed = [e for e in events if e.startswith("consume ") and e.endswith(" via=generator")]
    assert len(consumed) == stats.nonleader_sols_consumed
    assert sum(1 for e in events if NEW_SOLUTION_RE.match(e)) == stats.answers_emitted
    return answers, stats


PATH_VARIANTS = st.sampled_from(["recursive_first", "recursive_last", "left_recursive"])


@settings(max_examples=40, deadline=None)
@given(edges=edge_lists, variant=PATH_VARIANTS)
def test_random_graphs_all_configs_match_oracle(edges, variant):
    want = oracle_reachability(edges)
    text = path_program(edges, variant)
    per_config = {}
    for config in ALL_CONFIGS:
        answers, stats = watched_run(text, "path(X,Z).", config)
        assert {(t.args[0], t.args[1]) for t in answers} == want
        per_config[config.label] = stats
    # pruning only ever removes work
    assert per_config["dra"].alts_explored <= per_config["standard"].alts_explored
    assert per_config["drs"].nonleader_sols_consumed <= per_config["standard"].nonleader_sols_consumed


@settings(max_examples=25, deadline=None)
@given(edges=edge_lists, variant=PATH_VARIANTS)
def test_random_graphs_bound_query(edges, variant):
    want = {p for p in oracle_reachability(edges) if p[0] == 1}
    text = path_program(edges, variant)
    for config in ALL_CONFIGS:
        answers, _ = watched_run(text, "path(1,Z).", config)
        assert {(t.args[0], t.args[1]) for t in answers} == want


NONFLAT_ANSWERS = {
    "path(1,2)", "path(1,1)", "path(2,1)", "path(2,2)",
    "path(1,g(_G0,_G0))", "path(2,g(_G0,_G0))",
}


@pytest.mark.parametrize("query", ["path(X,Z).", "path(1,Z)."])
def test_batch_plan_falls_back_to_the_general_path(query):
    # g(Q,Q) is not an atomic second argument: once a table holds a
    # g(...) answer it is not flat, and every later delivery of it (such
    # as path(2,Z)'s into path(1,Z)) runs on the general plan, one answer
    # per retry.  A table batch is planned only for a flat source table.
    text = path_program([(1, 2), (2, 1), (2, "g(Q,Q)")])
    want = None
    for config in ALL_CONFIGS:
        answers, _ = watched_run(text, query, config)
        got = {term_to_str(t) for t in answers}
        want = want or got
        assert got == want
    assert want == {a for a in NONFLAT_ANSWERS if query == "path(X,Z)." or a.startswith("path(1,")}


# -- double recursion through a second table ------------------------------------

DRS_TWO_TABLES = """
:- table p/2.
:- table q/2.
p(X,Y) :- q(X,Z), p(Z,Y).
p(X,Y) :- e(X,Y).
q(X,Y) :- p(X,Y).
q(X,Y) :- p(Y,X).
e(1,2).
"""


@pytest.mark.parametrize("config", ALL_CONFIGS, ids=lambda c: c.label)
def test_double_recursion_through_a_second_table(config):
    _, answers, _ = run(DRS_TWO_TABLES, "p(X,1).", config)
    assert answers == []


# A run that raises TablingInvariantError: frame p(2,2) is left incomplete at
# exit under these configurations (the least-model cell seed 6 #2818).  Once
# ROADMAP item 1 mends it, the tests that use it need another raising input.
RAISES = """
:- table p/2.
p(W,X) :- p(Y,X), p(W,W).
p(X,X) :- p(Y,Z).
p(Z,W) :- e(Y,Y), e(W,X).
p(Z,Z) :- e(Z,Z), e(Z,X).
e(2,2). e(3,1). e(2,2). e(2,3). e(4,1). e(3,1).
"""
RAISES_QUERY = "p(Y,4)."
RAISES_CONFIGS = [StrategyConfig(drs=True), StrategyConfig(dra=True, drs=True)]


# -- the cyclic collector ------------------------------------------------------


@pytest.fixture(params=[True, False], ids=["collector_on", "collector_off"])
def collector(request):
    """Set the collector on or off for the test, and put it back after."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


def test_run_query_and_answers_pause_and_restore_the_collector(collector, monkeypatch):
    seen = []
    real_run, real_decode = Engine._run, engine_module.solution_term

    def run_spy(self, cont):
        seen.append(("run", gc.isenabled()))
        return real_run(self, cont)

    def decode_spy(node):
        seen.append(("decode", gc.isenabled()))
        return real_decode(node)

    monkeypatch.setattr(Engine, "_run", run_spy)
    monkeypatch.setattr(engine_module, "solution_term", decode_spy)
    eng = Engine(parse_program(path_program(gen_edges(GraphConfig("grid", 3)))))
    raw, _ = eng.run_query(parse_query("path(X,Z)."))
    assert gc.isenabled() is collector
    assert len(eng.answers(raw)) == 81
    assert gc.isenabled() is collector
    assert seen == [("run", False)] + [("decode", False)] * 81


def test_a_run_that_raises_restores_the_collector(collector):
    text = path_program(gen_edges(GraphConfig("grid", 3)))
    eng = Engine(parse_program(text), StrategyConfig(), step_budget=100)
    with pytest.raises(StepBudgetExceeded):
        eng.run_query(parse_query("path(X,Z)."))
    assert gc.isenabled() is collector
    eng = Engine(parse_program(RAISES), RAISES_CONFIGS[0])
    with pytest.raises(TablingInvariantError, match="not complete at exit"):
        eng.run_query(parse_query(RAISES_QUERY))
    assert gc.isenabled() is collector
