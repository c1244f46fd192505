"""Benchmark harness tests: generators, oracle, program templates, matrix."""

import gc
import json

import pytest

from lintab.bench import (
    BenchSpec,
    GraphConfig,
    edge_facts,
    gen_edges,
    make_path_program,
    oracle_reachability,
    run_matrix,
)
from lintab.engine import ALL_CONFIGS, Engine, StrategyConfig
from lintab.reader import parse_program


# -- graph generators ---------------------------------------------------------

def test_pyramid_depth2():
    assert gen_edges(GraphConfig("pyramid", 2)) == [(1, 2), (1, 3)]


def test_cycle_edges():
    assert gen_edges(GraphConfig("cycle", 3)) == [(1, 2), (2, 3), (3, 1)]
    assert gen_edges(GraphConfig("cycle", 1)) == [(1, 1)]


def test_grid_depth2():
    edges = gen_edges(GraphConfig("grid", 2))
    assert len(edges) == 8
    assert set(edges) == {(1, 2), (2, 1), (1, 3), (3, 1), (2, 4), (4, 2), (3, 4), (4, 3)}


def node_count(g):
    """The node count of a graph family: rows 1..depth of a pyramid, a ring
    of depth nodes, a depth x depth grid."""
    if g.shape == "pyramid":
        return g.depth * (g.depth + 1) // 2
    if g.shape == "cycle":
        return g.depth
    return g.depth * g.depth


@pytest.mark.parametrize("shape,depth,nodes", [
    ("pyramid", 5, 15), ("cycle", 7, 7), ("grid", 4, 16), ("pyramid", 1, 1), ("grid", 1, 1),
])
def test_node_counts(shape, depth, nodes):
    g = GraphConfig(shape, depth)
    assert node_count(g) == nodes
    touched = {n for e in gen_edges(g) for n in e}
    if depth > 1:
        assert touched == set(range(1, nodes + 1))


def test_gen_edges_deterministic():
    g = GraphConfig("grid", 5)
    assert gen_edges(g) == gen_edges(g)


def test_bad_configs_rejected():
    with pytest.raises(ValueError):
        GraphConfig("torus", 3)
    with pytest.raises(ValueError):
        GraphConfig("grid", 0)
    with pytest.raises(ValueError):
        BenchSpec(GraphConfig("grid", 2), variant="sideways")


# -- program templates ---------------------------------------------------------

def test_path_program_first_with_slds():
    text = make_path_program("recursive_first", True)
    lines = text.strip().splitlines()
    assert lines[0] == ":- table path/2."
    assert lines[1] == "path(X,Z) :- sld1, edge(X,Y), path(Y,Z), sld2."
    assert lines[2] == "path(X,Z) :- sld3, edge(X,Z), sld4."
    assert lines[3:] == ["sld1.", "sld2.", "sld3.", "sld4."]


def test_path_program_last_swaps_clause_order():
    lines = make_path_program("recursive_last", False).strip().splitlines()
    assert lines[1] == "path(X,Z) :- edge(X,Z)."
    assert lines[2] == "path(X,Z) :- edge(X,Y), path(Y,Z)."
    assert "sld1." not in lines


def test_path_program_left_recursive():
    lines = make_path_program("left_recursive", False).strip().splitlines()
    assert lines[1:] == ["path(X,Z) :- path(X,Y), edge(Y,Z).", "path(X,Z) :- edge(X,Z)."]
    lines = make_path_program("left_recursive", True).strip().splitlines()
    assert lines[1:3] == ["path(X,Z) :- sld1, path(X,Y), edge(Y,Z), sld2.", "path(X,Z) :- sld3, edge(X,Z), sld4."]
    assert lines[3:] == ["sld1.", "sld2.", "sld3.", "sld4."]


def test_path_program_parses():
    from lintab.terms import functor

    for variant in ("recursive_first", "recursive_last", "left_recursive"):
        for slds in (False, True):
            text = make_path_program(variant, slds) + edge_facts([(1, 2)])
            prog = parse_program(text)
            assert functor("path", 2) in prog.tabled
            assert len(prog.predicates[functor("path", 2)]) == 2


# -- oracle ---------------------------------------------------------------------

def test_oracle_cycle3_all_pairs():
    pairs = oracle_reachability(gen_edges(GraphConfig("cycle", 3)))
    assert pairs == {(a, b) for a in (1, 2, 3) for b in (1, 2, 3)}


def test_oracle_chain_and_empty():
    assert oracle_reachability([(1, 2), (2, 3)]) == {(1, 2), (1, 3), (2, 3)}
    assert oracle_reachability([]) == set()


def test_oracle_disconnected():
    assert oracle_reachability([(1, 2), (5, 6)]) == {(1, 2), (5, 6)}


# -- matrix ----------------------------------------------------------------------

def test_matrix_small_grid_all_configs():
    report = run_matrix(BenchSpec(GraphConfig("grid", 3)))
    assert len(report.cells) == 8
    assert report.oracle_count == 81
    assert {c.answer_count for c in report.cells} == {81}
    std = report.cell(StrategyConfig())
    dra = report.cell(StrategyConfig(dra=True))
    drs = report.cell(StrategyConfig(drs=True))
    assert dra.stats.alts_explored <= std.stats.alts_explored
    assert drs.stats.nonleader_sols_consumed <= std.stats.nonleader_sols_consumed


LEFT_GRAPHS = [("pyramid", range(2, 13)), ("cycle", range(2, 13)), ("grid", range(2, 9))]


@pytest.mark.parametrize("slds", [False, True], ids=["plain", "slds"])
def test_matrix_left_recursion_matches_the_oracle(slds):
    # every left-recursive answer is stored by a fact call that ends in an
    # insert, so these cells check the fact batch against the BFS oracle
    # (run_matrix raises on a mismatch) under all 8 configs
    for shape, depths in LEFT_GRAPHS:
        for depth in depths:
            report = run_matrix(BenchSpec(GraphConfig(shape, depth), variant="left_recursive", with_slds=slds))
            assert [c.config for c in report.cells] == list(ALL_CONFIGS)
            assert all(c.error is None and c.answer_count == report.oracle_count for c in report.cells)


def test_matrix_rejects_duplicated_answers(monkeypatch):
    answer_rows = Engine.answer_rows
    monkeypatch.setattr(Engine, "answer_rows", lambda self, raw: answer_rows(self, raw) * 2)
    spec = BenchSpec(GraphConfig("grid", 3), configs=(StrategyConfig(),))
    with pytest.raises(RuntimeError, match="^answer set mismatch .* got 81 pairs in 162 answers"):
        run_matrix(spec)


def test_matrix_pauses_the_collector_over_each_cell(collector, monkeypatch):
    seen = []
    run_query = Engine.run_query

    def spy(self, goals):
        seen.append(gc.isenabled())
        return run_query(self, goals)

    monkeypatch.setattr(Engine, "run_query", spy)
    report = run_matrix(BenchSpec(GraphConfig("grid", 3)))
    assert [c.answer_count for c in report.cells] == [81] * 8
    assert seen == [False] * 8
    assert gc.isenabled() is collector


def test_matrix_restores_the_collector_after_a_mismatch(collector, monkeypatch):
    answer_rows = Engine.answer_rows
    monkeypatch.setattr(Engine, "answer_rows", lambda self, raw: answer_rows(self, raw)[1:])
    spec = BenchSpec(GraphConfig("grid", 3), configs=(StrategyConfig(),))
    with pytest.raises(RuntimeError, match="^answer set mismatch .* got 80 pairs in 80 answers"):
        run_matrix(spec)
    assert gc.isenabled() is collector


def test_matrix_pyramid_no_reevaluation_rounds():
    report = run_matrix(BenchSpec(GraphConfig("pyramid", 6), configs=(StrategyConfig(),)))
    (cell,) = report.cells
    assert cell.stats.rounds_started <= 2  # acyclic: no looping re-evaluation needed
    assert cell.error is None


def test_matrix_bound_query():
    report = run_matrix(BenchSpec(GraphConfig("cycle", 4), bound=True))
    assert report.oracle_count == 4
    assert all(c.answer_count == 4 for c in report.cells)


def test_matrix_determinism_modulo_wall_time():
    spec = BenchSpec(GraphConfig("grid", 3), with_slds=True)
    a, b = run_matrix(spec), run_matrix(spec)

    def strip(report):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in report.records()]

    assert strip(a) == strip(b)


def test_matrix_budget_error_isolated_per_cell():
    spec = BenchSpec(GraphConfig("cycle", 25), configs=ALL_CONFIGS, step_budget=150)
    report = run_matrix(spec)
    assert len(report.cells) == 8
    assert all(c.error is not None and "step budget" in c.error for c in report.cells)
    assert all(c.stats is None and c.answer_count is None for c in report.cells)


def test_matrix_cells_after_a_budget_error_run_the_same_query():
    # standard, drs and dra need more than 1,700 steps on grid-3 (2,070,
    # 1,814 and 1,920; dra+drs needs 1,664); the cells after them must
    # still answer the open query, not the one the stopped run had half bound
    report = run_matrix(BenchSpec(GraphConfig("grid", 3), step_budget=1700))
    assert {c.config.label for c in report.cells if c.error is not None} == {"standard", "drs", "dra"}
    assert [c.answer_count for c in report.cells if c.error is None] == [81] * 5


def test_structured_rendering_round_trips():
    spec = BenchSpec(GraphConfig("pyramid", 4), with_slds=True, configs=ALL_CONFIGS[:3])
    report = run_matrix(spec)
    recs = [json.loads(line) for line in report.render_structured().splitlines()]
    assert recs == report.records()
    for rec in recs:
        for key in ("shape", "depth", "variant", "dre", "dra", "drs", "alts_explored",
                    "nonleader_sols_consumed", "rounds_started", "answer_count", "wall_ms"):
            assert key in rec


def test_text_rendering_mentions_every_config():
    report = run_matrix(BenchSpec(GraphConfig("cycle", 3)))
    text = report.render_text()
    for config in ALL_CONFIGS:
        assert config.label in text
