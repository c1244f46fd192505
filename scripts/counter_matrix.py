#!/usr/bin/env python3
"""Print the engine's counter matrix, one JSON line per cell.

Cells: pyramid and cycle depth 2-20 and grid depth 2-10, both clause
orders, with and without the sld1..sld4 markers, the open query
path(X,Z) and the bound query path(1,Z), all 8 strategy configurations;
then the left-recursive path/2 on grid depth 2-8 under both queries and
all 8 configurations; then a handful of small programs that reach
paths the graph cells do not (mutual recursion, a 0-ary tabled
predicate, a non-atomic answer whose tables deliver on the general
plan, compound edges, double recursion, a non-tabled clause that ends
in a tabled call), each under its own queries and all 8
configurations; then a fixed-seed block of random function-free
programs (1-2 tabled binary predicates, 2-5 rules with 1-2 body goals
over them and e/2, 1-6 e/2 facts on nodes 1-4), each under one query
with a random binding pattern and all 8 configurations.  5,608 cells in
all.

Each line holds the six counters, ``engine.steps``, a digest of the
ordered answer strings and, on cells of depth 6 or less (every small
and random program), a digest of the traced event log.  A run that
raises ``TablingInvariantError`` or ``StepBudgetExceeded`` records
``"error": "<type>: <message>"`` and the counters at the raise instead
of the answers.  The script takes no
options: run it on two checkouts and compare the outputs with
``scripts/matrix_diff.py`` to check that a change keeps evaluation
bit-identical, or to see which cells it changes.

    PYTHONPATH=src python3 scripts/counter_matrix.py > after.jsonl
    PYTHONPATH=src python3 scripts/matrix_diff.py before.jsonl after.jsonl
"""

import hashlib
import json
import random
import sys

from lintab.bench import GraphConfig, edge_facts, gen_edges, make_path_program
from lintab.engine import ALL_CONFIGS, Engine, StepBudgetExceeded
from lintab.reader import parse_program, parse_query
from lintab.tablespace import TablingInvariantError
from lintab.terms import term_to_str

LEFT_PROGRAM = ":- table path/2.\npath(X,Z) :- path(X,Y), edge(Y,Z).\npath(X,Z) :- edge(X,Z).\n"
QUERIES = ("path(X,Z).", "path(1,Z).")
TRACE_MAX_DEPTH = 6

PATH_FIRST = make_path_program("recursive_first")
SMALL_PROGRAMS = (
    ("mutual",
     ":- table a/1.\n:- table b/1.\na(X) :- b(X).\na(X) :- edge(X).\nb(X) :- a(X).\nb(1).\nedge(2).\n",
     ("a(X).", "b(X).", "a(X), b(X).")),
    ("zero_arity", ":- table p/0.\np :- p.\np.\n", ("p.",)),
    ("nonflat_answer", PATH_FIRST + "edge(1,2).\nedge(2,1).\nedge(2,g(Q,Q)).\n", QUERIES),
    ("compound_edge", PATH_FIRST + "edge(1,f(2)).\nedge(f(2),1).\nedge(1,X).\n", ("path(1,Z).",)),
    ("double_recursion",
     ":- table p/2.\np(X,Y) :- p(X,Z), p(Z,Y).\np(X,Y) :- e(X,Y).\ne(1,2).\ne(2,3).\ne(3,1).\n",
     ("p(X,Y).", "p(1,Y).")),
    ("wrapper",
     PATH_FIRST + "edge(1,2).\nedge(2,3).\nedge(3,1).\nedge(3,4).\nw(X,Z) :- edge(X,Y), path(Y,Z).\n",
     ("w(1,Z).", "w(X,Z).")),
)
RANDOM_SEED = 2
RANDOM_PROGRAMS = 300
VARS = ("X", "Y", "Z", "W")
QUERY_ARGS = ("X", "Y", "1", "2", "3", "4")


def random_program(rng):
    """One function-free program over tabled p/2 (and q/2) and e/2, and
    a query on one of its tabled predicates."""
    tabled = ("p", "q")[: rng.randint(1, 2)]
    goals = tabled + ("e",)

    def atom(name, args):
        return f"{name}({args[0]},{args[1]})"

    lines = [f":- table {t}/2." for t in tabled]
    for _ in range(rng.randint(2, 5)):
        head = atom(rng.choice(tabled), rng.choices(VARS, k=2))
        body = [atom(rng.choice(goals), rng.choices(VARS, k=2)) for _ in range(rng.randint(1, 2))]
        lines.append(f"{head} :- {', '.join(body)}.")
    for _ in range(rng.randint(1, 6)):
        lines.append(f"e({rng.randint(1, 4)},{rng.randint(1, 4)}).")
    query = atom(rng.choice(tabled), rng.choices(QUERY_ARGS, k=2)) + "."
    return "\n".join(lines) + "\n", query


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def cells():
    for shape, depths in (("pyramid", range(2, 21)), ("cycle", range(2, 21)), ("grid", range(2, 11))):
        for depth in depths:
            edges = gen_edges(GraphConfig(shape, depth))
            for variant in ("recursive_first", "recursive_last"):
                for slds in (False, True):
                    text = make_path_program(variant, slds) + edge_facts(edges)
                    yield dict(shape=shape, depth=depth, variant=variant, slds=slds), text, QUERIES
    for depth in range(2, 9):
        edges = gen_edges(GraphConfig("grid", depth))
        key = dict(shape="grid", depth=depth, variant="left_recursive", slds=False)
        yield key, LEFT_PROGRAM + edge_facts(edges), QUERIES
    for name, text, queries in SMALL_PROGRAMS:
        yield dict(program=name, depth=0), text, queries
    rng = random.Random(RANDOM_SEED)
    for i in range(RANDOM_PROGRAMS):
        text, query = random_program(rng)
        yield dict(program=f"random{i}", depth=0), text, (query,)


def run(program, query, config, trace=False):
    """Evaluate one cell; returns the engine, its raw answers (None when
    the run raised) and the error line, if any."""
    eng = Engine(program, config, trace=trace)
    try:
        raw, _ = eng.run_query(parse_query(query))
    except (TablingInvariantError, StepBudgetExceeded) as exc:
        return eng, None, f"{type(exc).__name__}: {exc}"
    return eng, raw, None


def main() -> int:
    for key, text, queries in cells():
        program = parse_program(text)
        for query in queries:
            for config in ALL_CONFIGS:
                eng, raw, error = run(program, query, config)
                rec = dict(key, query=query, config=config.label)
                rec.update(eng.stats.as_dict())
                rec["steps"] = eng.steps
                if error is None:
                    rec["answers"] = digest(term_to_str(a) for a in eng.answers(raw))
                else:
                    rec["answers"] = None
                    rec["error"] = error
                rec["events"] = None
                if key["depth"] <= TRACE_MAX_DEPTH:
                    traced, _, _ = run(program, query, config, trace=True)
                    rec["events"] = digest(traced.events)
                print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
