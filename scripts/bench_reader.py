#!/usr/bin/env python3
"""Time the reader and engine set-up, and one `lintab run`, as JSON.

For the pyramid-80, pyramid-200 and grid-40 programs of ``lintab.bench``
(the tabled path/2 program plus its edge/2 facts) it prints the minimum
over REPS runs of ``parse_program`` and of ``Engine(program)``, and the
``tracemalloc`` peak of one parse (``parse_peak_kb``).  Four more
cells vary pyramid-80: ``pyramid-80-atoms`` names its nodes by atoms
(``n<id>``) instead of integers, ``pyramid-80-arity3`` writes each edge as
``edge(a,b,1)``, ``pyramid-80-comments`` puts a ``%`` comment line before
each fact, and ``pyramid-80-slds`` puts its facts under the
sld-instrumented path program, whose rules and 0-ary facts the general
parser reads.  ``loose-6320`` writes pyramid-80's 6,320 facts with a space
after the comma, ``edge(a, b).``, a shape the tokenizer does not carry as a
row, so the general parser reads them too.  Two cells hold no fact the
tokenizer carries, so the general parser reads every clause: ``rules-6000``
holds 6,000 rules ``p(X) :- e(X,k), q(X).``, ``quoted-6000`` 6,000 facts
``q('a b',k).`` with a quoted atom.  ``mixed-6000`` alternates 3,000 facts
``e(i,j).`` with 3,000 rules ``p(i) :- e(i,X), q(X).``, so every '.' token
carries a single fact.  Last comes the minimum over
REPS runs of one in-process ``lintab run`` on pyramid-80 with the bound
query ``path(2450,Z).`` (row 70, column 35, the row the cli-run
workload of perfbench asks from).  The collector runs untimed before each
timed run.  The script takes no options; run it on two checkouts to
compare them:

    PYTHONPATH=src python3 scripts/bench_reader.py
"""

import contextlib
import gc
import io
import json
import os
import platform
import sys
import tempfile
import time
import tracemalloc

from lintab import cli
from lintab.bench import GraphConfig, edge_facts, gen_edges, make_path_program
from lintab.engine import Engine
from lintab.reader import parse_program

REPS = 7
GRAPHS = (("pyramid", 80), ("pyramid", 200), ("grid", 40))
CLI_QUERY = "path(2450,Z)."


def program_text(shape: str, depth: int) -> str:
    return make_path_program() + edge_facts(gen_edges(GraphConfig(shape, depth)))


def programs():
    """(cell name, program text) for every cell."""
    for shape, depth in GRAPHS:
        yield f"{shape}-{depth}", program_text(shape, depth)
    edges = gen_edges(GraphConfig("pyramid", 80))
    yield "pyramid-80-atoms", make_path_program() + "".join(f"edge(n{a},n{b}).\n" for a, b in edges)
    yield "pyramid-80-arity3", make_path_program() + "".join(f"edge({a},{b},1).\n" for a, b in edges)
    yield "pyramid-80-comments", make_path_program() + "".join(
        f"% edge {k}\nedge({a},{b}).\n" for k, (a, b) in enumerate(edges)
    )
    yield "pyramid-80-slds", make_path_program(with_slds=True) + edge_facts(edges)
    yield "loose-6320", make_path_program() + "".join(f"edge({a}, {b}).\n" for a, b in edges)
    yield "rules-6000", "".join(f"p(X) :- e(X,{k}), q(X).\n" for k in range(6000))
    yield "quoted-6000", "".join(f"q('a b',{k}).\n" for k in range(6000))
    yield "mixed-6000", "".join(f"e({i},{i + 1}).\np({i}) :- e({i},X), q(X).\n" for i in range(3000))


def min_time(fn) -> float:
    best = float("inf")
    for _ in range(REPS):
        gc.collect()
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return round(best, 6)


def peak_kb(fn) -> float:
    gc.collect()
    tracemalloc.start()
    try:
        fn()
        return round(tracemalloc.get_traced_memory()[1] / 1024, 1)
    finally:
        tracemalloc.stop()


def cli_run_s(text: str) -> float:
    fd, path = tempfile.mkstemp(suffix=".pl")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        argv = ["run", "--program", path, "--query", CLI_QUERY]

        def run():
            with contextlib.redirect_stdout(io.StringIO()):
                if cli.main(argv) != 0:
                    raise SystemExit(f"lintab run {CLI_QUERY} failed")

        return min_time(run)
    finally:
        os.unlink(path)


def main() -> int:
    cells = {}
    for name, text in programs():
        program = parse_program(text)
        cells[name] = {
            "clauses": sum(len(cs) for cs in program.predicates.values()),
            "parse_s": min_time(lambda: parse_program(text)),
            "engine_init_s": min_time(lambda: Engine(program)),
            "parse_peak_kb": peak_kb(lambda: parse_program(text)),
        }
    out = {
        "python": platform.python_version(),
        "reps": REPS,
        "cells": cells,
        "cli_run_pyramid-80_s": cli_run_s(program_text("pyramid", 80)),
    }
    json.dump(out, sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
