"""Least-model gate: the engine's answers against a naive bottom-up least
model that shares no code with the engine (``scripts/least_model.py``).

The counter matrix's random block (seed 2, 300 programs, all 8
configurations) must fail in exactly the cells recorded here, so a new
failure fails the test and so does a fixed one, which then comes off the
list.  The known DRA and DRS faults are strict xfails against the least
model, and the configurations they pass under are asserted equal to it.
``scripts/least_model_check.py`` runs the same check over 48,000 cells.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "scripts"))

from counter_matrix import RANDOM_PROGRAMS, RANDOM_SEED  # noqa: E402
from least_model import constants, instances, least_model, query_answers  # noqa: E402
from least_model_check import failing_cells, grounded_answers  # noqa: E402
from lintab.engine import ALL_CONFIGS  # noqa: E402
from lintab.reader import parse_program, parse_query  # noqa: E402
from lintab.tablespace import TablingInvariantError  # noqa: E402
from lintab.terms import atom  # noqa: E402


def test_least_model_grounds_unbound_head_variables():
    program = parse_program(":- table p/2.\np(X,Y) :- e(X,Z).\np(a,b).\ne(1,2).\n")
    query = parse_query("p(X,X).")
    universe = constants(program, query)
    a, b = atom("a"), atom("b")
    assert universe == {1, 2, a, b}
    assert {("p", (1, y)) for y in universe} <= least_model(program, universe)
    assert query_answers(program, query) == {("p", (1, 1))}
    assert instances(query[0], {1, 2}) == {("p", (1, 1)), ("p", (2, 2))}


RECORDED_FAILURES = {
    (91, "dre+dra"): "TablingInvariantError: frame q(1,1) not complete at exit",
    (91, "dre+dra+drs"): "TablingInvariantError: frame q(1,1) not complete at exit",
    (207, "dra"): "TablingInvariantError: frame p(3,3) not complete at exit",
    (207, "dra+drs"): "TablingInvariantError: frame p(3,3) not complete at exit",
    (207, "dre+dra"): "TablingInvariantError: frame p(3,3) not complete at exit",
    (207, "dre+dra+drs"): "TablingInvariantError: frame p(3,3) not complete at exit",
}


def test_random_programs_fail_only_in_the_recorded_cells():
    got = {
        (c["program"], c["config"]): c.get("error") or f"missing {c['missing']}, extra {c['extra']}"
        for c in failing_cells(RANDOM_SEED, RANDOM_PROGRAMS)
    }
    assert got == RECORDED_FAILURES


# ROADMAP item 1's repros: the program, the query, and each failing
# configuration with the exception its cell raises (AssertionError: the
# answers differ from the least model)
REPROS = {
    "repro_a": (
        ":- table p/2.\n:- table q/2.\np(X,Z) :- q(Y,Z), p(X,X).\np(Y,Z) :- q(Z,Y).\n"
        "q(Z,X) :- p(Z,X), e(W,Z).\nq(Z,X) :- e(Z,X).\ne(3,2).\ne(3,4).\ne(4,1).\ne(4,4).\n",
        "q(2,Y).",
        {"dra": AssertionError, "dra+drs": AssertionError},  # they lose q(2,4)
    ),
    "repro_b": (
        ":- table p/2.\np(X,Y) :- p(X,X), p(Y,W).\np(Y,X) :- p(X,X), p(Y,X).\n"
        "p(Z,Y) :- e(W,Y), e(W,Z).\ne(2,1).\ne(2,3).\ne(3,2).\ne(4,2).\n",
        "p(1,Y).",
        # drs and dra+drs lose p(1,2)
        {"dra": TablingInvariantError, "drs": AssertionError, "dra+drs": AssertionError},
    ),
    "repro_c": (
        ":- table p/2.\np(Z,W) :- p(W,Z), e(X,Y).\np(W,Y) :- e(Y,W).\np(Y,X) :- p(Z,X).\n"
        "p(X,Z) :- p(X,Z).\np(Y,W) :- e(X,X), p(Y,Y).\ne(1,4).\ne(4,1).\ne(4,4).\n",
        "p(4,Y).",
        {c.label: TablingInvariantError for c in ALL_CONFIGS if c.dra},
    ),
    "three_cycle_double_recursion": (
        ":- table p/2.\np(X,Y) :- p(X,Z), p(Z,Y).\np(X,Y) :- e(X,Y).\ne(1,2).\ne(2,3).\ne(3,1).\n",
        "p(1,Y).",
        {"drs": AssertionError, "dra+drs": AssertionError},  # they give only p(1,2)
    ),
}


def repro_cells():
    for name, (_, _, failing) in REPROS.items():
        for config in ALL_CONFIGS:
            raises = failing.get(config.label)
            marks = () if raises is None else pytest.mark.xfail(
                strict=True, raises=raises, reason="unsound DRA/DRS (ROADMAP item 1)")
            yield pytest.param(name, config, marks=marks, id=f"{name}-{config.label}")


@pytest.mark.parametrize("name,config", repro_cells())
def test_repro_matches_least_model(name, config):
    text, query, _ = REPROS[name]
    program, goals = parse_program(text), parse_query(query)
    assert grounded_answers(program, goals, config) == query_answers(program, goals)
