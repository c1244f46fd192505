#!/usr/bin/env python3
"""Check the engine against a least-model oracle on random programs.

Runs the counter matrix's generator of random function-free programs
(``counter_matrix.random_program``) for each seed given on the command
line, 2 and 3 by default, 3,000 programs a seed, under all 8 strategy
configurations: 24,000 cells a seed.  A cell fails when the run raises or
when its answers, each grounded over the constants of the program and the
query, differ from the instances of the query in the program's least
model (``least_model.py``, which shares no code with the engine).  Prints
one JSON line per failing cell, then one line with the failing-cell count
per configuration, and exits 1 when any cell fails, else 0.

    PYTHONPATH=src python3 scripts/least_model_check.py [SEED ...]
"""

import json
import random
import sys

from counter_matrix import random_program
from least_model import constants, instances, query_answers
from lintab.engine import ALL_CONFIGS, Engine, StepBudgetExceeded
from lintab.reader import parse_program, parse_query
from lintab.tablespace import TablingInvariantError
from lintab.terms import term_to_str

DEFAULT_SEEDS = (2, 3)
PROGRAMS = 3000


def grounded_answers(program, query, config) -> set:
    """The run's answers, each grounded over the constants of the program
    and the query."""
    eng = Engine(program, config)
    raw, _ = eng.run_query(query)
    universe = constants(program, query)
    return set().union(*(instances(a, universe) for a in eng.answers(raw)))


def check(program, query, config):
    """None when the run agrees with the least model, else what went wrong."""
    try:
        got = grounded_answers(program, query, config)
    except (TablingInvariantError, StepBudgetExceeded) as exc:
        return {"error": f"{type(exc).__name__}: {exc}"}
    want = query_answers(program, query)
    if got == want:
        return None

    def show(atoms):
        return sorted(f"{n}({','.join(term_to_str(v) for v in vals)})" for n, vals in atoms)

    return {"missing": show(want - got), "extra": show(got - want)}


def failing_cells(seed, programs):
    """Yield one record per failing cell of ``programs`` random programs."""
    rng = random.Random(seed)
    for i in range(programs):
        text, query_text = random_program(rng)
        program, query = parse_program(text), parse_query(query_text)
        for config in ALL_CONFIGS:
            fault = check(program, query, config)
            if fault is not None:
                yield dict(seed=seed, program=i, config=config.label, query=query_text, **fault)


def main(argv: list[str]) -> int:
    seeds = [int(a) for a in argv] or DEFAULT_SEEDS
    counts = {c.label: 0 for c in ALL_CONFIGS}
    for seed in seeds:
        for cell in failing_cells(seed, PROGRAMS):
            counts[cell["config"]] += 1
            print(json.dumps(cell, sort_keys=True), flush=True)
    print(json.dumps({"failing_cells": counts, "cells": len(seeds) * PROGRAMS * len(ALL_CONFIGS)}))
    return 1 if any(counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
