#!/usr/bin/env python3
"""Print the engine's counter matrix, one JSON line per cell.

Cells: pyramid and cycle depth 2-20 and grid depth 2-10, both clause
orders, with and without the sld1..sld4 markers, the open query
path(X,Z) and the bound query path(1,Z), all 8 strategy configurations;
then the left-recursive path/2 on grid depth 2-8 under both queries and
all 8 configurations; then a handful of small programs that reach
paths the graph cells do not (mutual recursion, a 0-ary tabled
predicate, non-atomic answers that force the batch delivery back onto
the general path, compound edges, double recursion), each under its own
queries and all 8 configurations.

Each line holds the six counters, ``engine.steps``, a digest of the
ordered answer strings and, on cells of depth 6 or less (every small
program), a digest of the traced event log.  The script takes no
options: run it on two checkouts and diff the outputs to check that a
change keeps evaluation bit-identical.

    PYTHONPATH=src python3 scripts/counter_matrix.py > after.jsonl
"""

import hashlib
import json
import sys

from lintab.bench import GraphConfig, edge_facts, gen_edges, make_path_program
from lintab.engine import ALL_CONFIGS, Engine
from lintab.reader import parse_program, parse_query
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
)


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


def main() -> int:
    for key, text, queries in cells():
        program = parse_program(text)
        for query in queries:
            for config in ALL_CONFIGS:
                eng = Engine(program, config)
                raw, stats = eng.run_query(parse_query(query))
                rec = dict(key, query=query, config=config.label)
                rec.update(stats.as_dict())
                rec["steps"] = eng.steps
                rec["answers"] = digest(term_to_str(a) for a in eng.answers(raw))
                rec["events"] = None
                if key["depth"] <= TRACE_MAX_DEPTH:
                    traced = Engine(program, config, trace=True)
                    traced.run_query(parse_query(query))
                    rec["events"] = digest(traced.events)
                print(json.dumps(rec, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
