"""The batch deliveries are optimisations nobody can observe.

The general loop (one answer per resumption: ``unify`` the call with
``solution_term(node)``, then run the continuation) is the specification.
Every test here runs each cell three times: once as the engine plans it;
once with ``Engine._batch`` and ``Engine._sink`` swapped for stubs that
always return None, which sends every table through the general loop and
every fact call through its generator and the general insert; and once
with ``TableSpace.solution_check_insert`` and ``TableSpace.insert_pairs``
wrapped so that they clear ``frame.flat_pairs`` after every insert, so
that no table or join batch delivers an answer (``flat_pairs`` gates only
those two).  Both references must give the planned run's decoded answers
in order, ``EvalStats``, ``engine.steps``, event log and error line.  The
stubs and the wrappers are test fakes, not engine options.
"""

import random

from counter_matrix import LEFT_PROGRAM, SMALL_PROGRAMS, cells, random_program, run
from lintab.bench import GraphConfig, edge_facts, gen_edges
from lintab.engine import ALL_CONFIGS, Engine, StepBudgetExceeded
from lintab.reader import parse_program, parse_query
from lintab.tablespace import TableSpace
from lintab.terms import Var, deref, term_to_str

WRAPPED_SEED = 7
WRAPPED_PROGRAMS = 60
GRAPH_MAX_DEPTH = 4


def observe(program, query, config):
    eng, raw, error = run(program, query, config, trace=True)
    answers = None if raw is None else [term_to_str(a) for a in eng.answers(raw)]
    return answers, eng.stats.as_dict(), eng.steps, eng.events, error


def differences(cases, monkeypatch):
    """Run every (label, program text, queries) case under all 8 configs:
    planned, general and unpaired (no table or join batch).  Returns the
    cell count, the cells whose observations differ from the planned run
    and the set of batches and deliveries the planned runs chose: general,
    table, collect, join or fact."""
    runs = []
    for label, text, queries in cases:
        program = parse_program(text)
        for query in queries:
            for config in ALL_CONFIGS:
                runs.append((f"{label} {query} {config.label}", program, query, config))
    chosen, batched = set(), []
    batch, insert = Engine._batch, TableSpace.solution_check_insert
    insert_pairs = TableSpace.insert_pairs
    stores = {"batched": 0, "all": 0}  # planned table and join batches' insert_pairs calls, and all

    def kind_of(self, call, n):
        """How ``_batch`` delivered, from what it returned and the call: a
        table batch's call has a ground first argument, a join batch's an
        unbound one."""
        if n is None:
            return "general"
        if call is self._template:
            return "collect"
        return "join" if type(deref(call.args[0])) is Var else "table"

    def spy(self, frame, call, cont, sols, via):
        before = stores["all"]
        n = batch(self, frame, call, cont, sols, via)
        kind = kind_of(self, call, n)
        chosen.add(kind)
        if kind in ("table", "join"):
            stores["batched"] += stores["all"] - before
        return n

    def spy_store(self, frame, a, zs):
        # every insert_pairs call outside a table or join batch is a fact batch's
        stores["all"] += 1
        return insert_pairs(self, frame, a, zs)

    def spy_unpaired(self, frame, call, cont, sols, via):
        n = batch(self, frame, call, cont, sols, via)
        if kind_of(self, call, n) in ("table", "join"):
            batched.append(n)
        return n

    def unflat(self, sol, frame):
        is_new = insert(self, sol, frame)
        frame.flat_pairs = False
        return is_new

    def unflat_pairs(self, frame, a, zs):
        ch = insert_pairs(self, frame, a, zs)
        frame.flat_pairs = False
        return ch

    with monkeypatch.context() as m:
        m.setattr(Engine, "_batch", spy)
        m.setattr(TableSpace, "insert_pairs", spy_store)
        planned = [observe(p, q, c) for _, p, q, c in runs]
    if stores["all"] > stores["batched"]:
        chosen.add("fact")
    with monkeypatch.context() as m:
        m.setattr(Engine, "_batch", lambda self, frame, call, cont, sols, via: None)
        m.setattr(Engine, "_sink", lambda self, cont, cv: None)
        general = [observe(p, q, c) for _, p, q, c in runs]
    with monkeypatch.context() as m:
        m.setattr(TableSpace, "solution_check_insert", unflat)
        m.setattr(TableSpace, "insert_pairs", unflat_pairs)
        m.setattr(Engine, "_batch", spy_unpaired)
        unpaired = [observe(p, q, c) for _, p, q, c in runs]
    assert not any(batched), "a table or join batch delivered answers without the pair path"
    fields = ("answers", "stats", "steps", "events", "error")
    diffs = []
    for ref, observed in (("general", general), ("unpaired", unpaired)):
        for (name, *_), want, got in zip(runs, observed, planned):
            changed = [f for f, w, g in zip(fields, want, got) if w != g]
            if changed:
                diffs.append(f"{name} vs {ref}: {', '.join(changed)}")
    return len(runs), diffs, chosen


def wrapped_random_programs():
    """Random programs from the counter matrix's generator, each with a
    non-tabled w/2 whose clauses end in a call of the query's predicate,
    queried directly, through w/2 and in a conjunction."""
    rng = random.Random(WRAPPED_SEED)
    for i in range(WRAPPED_PROGRAMS):
        text, query = random_program(rng)
        p = query.split("(")[0]
        text += f"w(X,Y) :- e(X,Z), {p}(Z,Y).\nw(X,Y) :- {p}(X,Y).\n"
        yield f"random{i}", text, (query, "w(A,B).", "w(1,B).", "e(A,B), w(B,C).")


def test_small_programs_deliver_as_the_general_plan(monkeypatch):
    n, diffs, chosen = differences(SMALL_PROGRAMS, monkeypatch)
    assert n == 8 * sum(len(queries) for _, _, queries in SMALL_PROGRAMS)
    assert diffs == [], f"{len(diffs)} of {n} cells differ, first: {diffs[:5]}"


def test_graph_cells_deliver_as_the_general_plan(monkeypatch):
    graphs = [
        (" ".join(f"{k}={v}" for k, v in key.items()), text, queries)
        for key, text, queries in cells()
        if "shape" in key and key["depth"] <= GRAPH_MAX_DEPTH
    ]
    assert {key.split()[0] for key, _, _ in graphs} == {"shape=pyramid", "shape=cycle", "shape=grid"}
    assert any("slds=True" in key for key, _, _ in graphs)
    n, diffs, chosen = differences(graphs, monkeypatch)
    assert diffs == [], f"{len(diffs)} of {n} cells differ, first: {diffs[:5]}"
    assert chosen == {"general", "table", "collect", "fact", "join"}


def test_wrapped_random_programs_deliver_as_the_general_plan(monkeypatch):
    n, diffs, chosen = differences(wrapped_random_programs(), monkeypatch)
    assert n == WRAPPED_PROGRAMS * 4 * 8
    assert diffs == [], f"{len(diffs)} of {n} cells differ, first: {diffs[:5]}"
    assert chosen == {"general", "table", "collect", "fact"}



# table deliveries that Engine._batch must decline: a continuation through a
# 0-ary predicate that is a rule, not a single fact, and inserts into tables
# of arity 3 and 1
DECLINED_BATCHES = [
    ("rule0", ":- table p/2.\np(X,Z) :- e(X,Y), p(Y,Z), ok.\np(X,Z) :- e(X,Z).\nok :- e(1,2).\n"
     "e(1,2).\ne(2,1).\ne(2,3).\n", ("p(X,Z).",)),
    ("parent3", ":- table p/2.\n:- table w/3.\np(X,Z) :- e(X,Z).\nw(a,Z,c) :- p(1,Z).\ne(1,2).\ne(1,3).\n",
     ("w(A,B,C).",)),
    ("parent1", ":- table p/2.\n:- table w/1.\np(X,Z) :- e(X,Z).\nw(a) :- p(1,Z).\ne(1,2).\ne(1,3).\n",
     ("w(A).",)),
]


def test_declined_table_batches_deliver_as_the_general_plan(monkeypatch):
    n, diffs, chosen = differences(DECLINED_BATCHES, monkeypatch)
    assert n == 8 * len(DECLINED_BATCHES)
    assert diffs == [], f"{len(diffs)} of {n} cells differ, first: {diffs[:5]}"


# fact calls that end in an insert: a duplicated fact (its second insert is
# a dup, in the batch as on the general path), 0-ary facts between the call
# and the insert, and heads the fact batch must decline: p(Y,Y) binds the
# inserted answer's first argument to the fact's second, and w/3 is not a
# binary table
FACT_EDGES = "e(1,2).\ne(1,2).\ne(2,3).\ne(3,1).\ne(2,1).\n"
FACT_BATCHES = [
    ("dup", ":- table p/2.\np(X,Z) :- e(X,Z).\np(X,Z) :- p(X,Y), e(Y,Z).\n" + FACT_EDGES,
     ("p(1,Z).", "p(X,Z).", "p(1,2).")),
    ("zero-ary", ":- table p/2.\np(X,Z) :- e(X,Z), ok.\np(X,Z) :- p(X,Y), e(Y,Z), ok.\nok.\n" + FACT_EDGES,
     ("p(1,Z).", "p(X,Z).", "p(1,2).")),
    ("diagonal", ":- table p/2.\np(Y,Y) :- e(1,Y).\np(X,Z) :- p(X,Y), e(Y,Z).\n" + FACT_EDGES,
     ("p(1,Z).", "p(X,Z).")),
    ("parent3", ":- table w/3.\nw(a,Z,c) :- e(1,Z).\n" + FACT_EDGES, ("w(A,B,C).", "w(a,B,c).")),
]


def test_fact_batches_deliver_as_the_general_plan(monkeypatch):
    n, diffs, chosen = differences(FACT_BATCHES, monkeypatch)
    assert n == 8 * sum(len(queries) for _, _, queries in FACT_BATCHES)
    assert diffs == [], f"{len(diffs)} of {n} cells differ, first: {diffs[:5]}"
    assert "fact" in chosen


# tabled calls f(X,Y) whose continuation calls e(Y,Z) and then inserts, over
# edges with a duplicated fact: into another table (q/2) or the source's
# own, through 0-ary facts, under a constant key, and from a non-leader
# generator (p/2 under q/2) that consumes its own table and hands it on
# through the join.  Then shapes the join batch must decline: a 0-ary rule
# before the insert, e(Y,Y), a p(X,X) call, a q(Y,Z) head (its key is not
# the call's X) and a source table that a compound answer makes non-flat
# after the batch has run once.
JOIN_EDGES = "e(1,2).\ne(1,2).\ne(2,3).\ne(3,1).\ne(2,1).\ne(3,3).\n"
JOIN_BATCHES = [
    ("other-sink", ":- table p/2.\n:- table q/2.\np(X,Z) :- e(X,Z).\np(X,Z) :- p(X,Y), e(Y,Z).\n"
     "q(X,Z) :- p(X,Y), e(Y,Z).\n" + JOIN_EDGES, ("q(X,Z).", "q(1,Z).", "q(X,3).")),
    ("self-sink", ":- table p/2.\np(X,Z) :- e(X,Z).\np(X,Z) :- p(X,Y), e(Y,Z).\n" + JOIN_EDGES,
     ("p(X,Z).", "p(X,1).", "p(A,B), p(B,A).")),
    ("zero-ary", ":- table p/2.\np(X,Z) :- p(X,Y), e(Y,Z), ok, ok.\np(X,Z) :- e(X,Z).\nok.\n" + JOIN_EDGES,
     ("p(X,Z).",)),
    ("constant-key", ":- table p/2.\n:- table q/2.\np(X,Z) :- e(X,Z).\nq(c,Z) :- p(X,Y), e(Y,Z).\n"
     + JOIN_EDGES, ("q(A,Z).",)),
    ("non-leader", ":- table p/2.\n:- table q/2.\nq(X,Z) :- p(X,Y), e(Y,Z).\nq(X,Z) :- e(X,Z).\n"
     "p(X,Z) :- q(X,Z).\np(X,Z) :- p(X,Y), e(Y,Z).\n" + JOIN_EDGES, ("q(X,Z).", "p(X,Z).")),
    ("rule0", ":- table p/2.\np(X,Z) :- p(X,Y), e(Y,Z), ok.\np(X,Z) :- e(X,Z).\nok :- e(1,2).\n" + JOIN_EDGES,
     ("p(X,Z).",)),
    ("loop-edge", ":- table p/2.\np(X,Z) :- e(X,Z).\np(X,Y) :- p(X,Y), e(Y,Y).\n" + JOIN_EDGES, ("p(X,Z).",)),
    ("diagonal-call", ":- table p/2.\n:- table q/2.\np(X,Z) :- e(X,Z).\nq(X,Z) :- p(X,X), e(X,Z).\n"
     + JOIN_EDGES, ("q(X,Z).",)),
    ("key-y", ":- table p/2.\n:- table q/2.\np(X,Z) :- e(X,Z).\nq(Y,Z) :- p(X,Y), e(Y,Z).\n" + JOIN_EDGES,
     ("q(X,Z).",)),
    ("non-flat", ":- table p/2.\np(X,Z) :- e(X,Z).\np(X,Z) :- p(X,Y), e(Y,Z).\np(X,f(Y)) :- e(X,Y).\n"
     + JOIN_EDGES, ("p(X,Z).",)),
]


def test_join_batches_deliver_as_the_general_plan(monkeypatch):
    n, diffs, chosen = differences(JOIN_BATCHES, monkeypatch)
    assert n == 8 * sum(len(queries) for _, _, queries in JOIN_BATCHES)
    assert diffs == [], f"{len(diffs)} of {n} cells differ, first: {diffs[:5]}"
    assert "join" in chosen


def test_join_batch_meets_the_step_budget_as_the_general_loop(monkeypatch):
    """Left-recursive path/2 on cycle-5 under every budget from 0 to one
    past the steps it takes: the planned run and one without batches both
    raise the same error, or give the same answers and counters."""
    program = parse_program(LEFT_PROGRAM + edge_facts(gen_edges(GraphConfig("cycle", 5))))
    query = parse_query("path(X,Z).")

    def outcome(config, budget):
        eng = Engine(program, config, step_budget=budget)
        try:
            raw, stats = eng.run_query(query)
        except StepBudgetExceeded as exc:
            return str(exc)
        return [term_to_str(a) for a in eng.answers(raw)], stats.as_dict(), eng.steps

    for config in ALL_CONFIGS:
        _, _, steps = outcome(config, 10**9)
        planned = [outcome(config, b) for b in range(steps + 2)]
        with monkeypatch.context() as m:
            m.setattr(Engine, "_batch", lambda self, frame, call, cont, sols, via: None)
            general = [outcome(config, b) for b in range(steps + 2)]
        assert planned == general, config.label
        assert type(planned[steps]) is str and type(planned[steps + 1]) is tuple
