"""Least-model gate: the engine's answers against a naive bottom-up least
model that shares no code with the engine (``scripts/least_model.py``).

The counter matrix's random block (seed 2, 300 programs, all 8
configurations) must fail in exactly the cells recorded here, none since
dependency events carry the lowlink, so a new failure fails the test.
The repros of unsound DRA and DRS that an earlier roadmap listed are
checked against the least model under all 8 configurations.  The 9 cells
still failing on seeds 4-7 are strict xfails until ROADMAP item 1 mends
them.  ``scripts/least_model_check.py`` runs the same check over 24,000
cells a seed.
"""

import pytest

from counter_matrix import RANDOM_PROGRAMS, RANDOM_SEED
from least_model import constants, instances, least_model, query_answers
from least_model_check import failing_cells, grounded_answers
from lintab.engine import ALL_CONFIGS
from lintab.reader import parse_program, parse_query
from lintab.tablespace import TablingInvariantError
from lintab.terms import functor


def test_least_model_grounds_unbound_head_variables():
    program = parse_program(":- table p/2.\np(X,Y) :- e(X,Z).\np(a,b).\ne(1,2).\n")
    query = parse_query("p(X,X).")
    universe = constants(program, query)
    a, b = functor("a", 0), functor("b", 0)
    assert universe == {1, 2, a, b}
    assert {("p", (1, y)) for y in universe} <= least_model(program, universe)
    assert query_answers(program, query) == {("p", (1, 1))}
    assert instances(query[0], {1, 2}) == {("p", (1, 1)), ("p", (2, 2))}


RECORDED_FAILURES = {}


def test_random_programs_fail_only_in_the_recorded_cells():
    got = {
        (c["program"], c["config"]): c.get("error") or f"missing {c['missing']}, extra {c['extra']}"
        for c in failing_cells(RANDOM_SEED, RANDOM_PROGRAMS)
    }
    assert got == RECORDED_FAILURES


# The program, the query, and each failing configuration with the exception
# its cell raises (AssertionError: the answers differ from the least model).
# The repros of unsound DRA and DRS that an earlier roadmap listed fail
# nowhere since dependency events carry the lowlink; the cells named by
# seed and index, as counter_matrix.random_program generates them, still
# fail under DRS.
REPROS = {
    "repro_a": (
        ":- table p/2.\n:- table q/2.\np(X,Z) :- q(Y,Z), p(X,X).\np(Y,Z) :- q(Z,Y).\n"
        "q(Z,X) :- p(Z,X), e(W,Z).\nq(Z,X) :- e(Z,X).\ne(3,2).\ne(3,4).\ne(4,1).\ne(4,4).\n",
        "q(2,Y).",
        {},
    ),
    "repro_b": (
        ":- table p/2.\np(X,Y) :- p(X,X), p(Y,W).\np(Y,X) :- p(X,X), p(Y,X).\n"
        "p(Z,Y) :- e(W,Y), e(W,Z).\ne(2,1).\ne(2,3).\ne(3,2).\ne(4,2).\n",
        "p(1,Y).",
        {},
    ),
    "repro_c": (
        ":- table p/2.\np(Z,W) :- p(W,Z), e(X,Y).\np(W,Y) :- e(Y,W).\np(Y,X) :- p(Z,X).\n"
        "p(X,Z) :- p(X,Z).\np(Y,W) :- e(X,X), p(Y,Y).\ne(1,4).\ne(4,1).\ne(4,4).\n",
        "p(4,Y).",
        {},
    ),
    "three_cycle_double_recursion": (
        ":- table p/2.\np(X,Y) :- p(X,Z), p(Z,Y).\np(X,Y) :- e(X,Y).\ne(1,2).\ne(2,3).\ne(3,1).\n",
        "p(1,Y).",
        {},
    ),
    "seed4_119": (
        ":- table p/2.\np(Z,W) :- e(X,Z), p(W,W).\np(Y,Z) :- p(Y,Y).\np(X,Z) :- e(Y,X), p(Y,X).\n"
        "p(W,W) :- p(W,X), p(X,X).\np(Y,Z) :- e(Y,Y), e(Z,X).\n"
        "e(1,2).\ne(4,3).\ne(3,3).\ne(1,2).\ne(4,2).\n",
        "p(2,X).",
        {"drs": AssertionError, "dra+drs": AssertionError},  # they lose p(2,1) and p(2,4)
    ),
    "seed5_1482": (
        ":- table p/2.\n:- table q/2.\np(Y,W) :- p(W,X), p(Z,X).\np(W,X) :- e(X,X).\n"
        "q(Y,W) :- e(Y,Z).\np(W,X) :- p(Y,Y), e(X,Z).\nq(Y,W) :- p(X,X), p(Z,W).\ne(2,1).\ne(2,2).\n",
        "q(4,Y).",
        {"drs": AssertionError, "dra+drs": AssertionError},  # they lose q(4,1) and q(4,4)
    ),
    "seed6_1890": (
        ":- table p/2.\n:- table q/2.\np(W,Z) :- e(Y,W).\nq(Y,X) :- p(X,Z), p(Z,X).\n"
        "p(Z,Y) :- q(W,W), q(X,Y).\np(W,Z) :- q(W,X), e(W,W).\nq(Y,Y) :- q(X,Y).\ne(2,1).\ne(2,2).\n",
        "p(1,2).",
        {"dre+drs": TablingInvariantError, "dre+dra+drs": TablingInvariantError},
    ),
    "seed6_2818": (
        ":- table p/2.\np(W,X) :- p(Y,X), p(W,W).\np(X,X) :- p(Y,Z).\np(Z,W) :- e(Y,Y), e(W,X).\n"
        "p(Z,Z) :- e(Z,Z), e(Z,X).\ne(2,2).\ne(3,1).\ne(2,2).\ne(2,3).\ne(4,1).\ne(3,1).\n",
        "p(Y,4).",
        {"drs": TablingInvariantError, "dra+drs": TablingInvariantError},
    ),
    "seed7_666": (
        ":- table p/2.\n:- table q/2.\np(Z,X) :- q(X,W).\nq(Z,W) :- e(Z,Y).\n"
        "p(W,Y) :- q(Z,X), q(W,Z).\nq(Z,X) :- p(X,X).\n"
        "e(3,2).\ne(1,3).\ne(1,1).\ne(4,3).\ne(2,2).\ne(2,3).\n",
        "q(4,1).",
        {"dre+dra+drs": TablingInvariantError},
    ),
}


def repro_cells():
    for name, (_, _, failing) in REPROS.items():
        for config in ALL_CONFIGS:
            raises = failing.get(config.label)
            marks = () if raises is None else pytest.mark.xfail(
                strict=True, raises=raises, reason="DRS decides per frame what was handed on (ROADMAP item 1)")
            yield pytest.param(name, config, marks=marks, id=f"{name}-{config.label}")


@pytest.mark.parametrize("name,config", repro_cells())
def test_repro_matches_least_model(name, config):
    text, query, _ = REPROS[name]
    program, goals = parse_program(text), parse_query(query)
    assert grounded_answers(program, goals, config) == query_answers(program, goals)
