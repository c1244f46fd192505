"""Acceptance gate: one test per criterion, one recorded PASS/FAIL line each.

Criteria 4-7 compare counter ratios on the depth-40 grid against the
reference ratios with the stated tolerance.  The ratio targets assume the
reference system's re-evaluation round counts; where this engine's
convergence differs structurally, the criterion is evaluated and reported
honestly rather than weakened (see the verdict lines).
"""

import time

import pytest

from conftest import record_verdict
from lintab.bench import BenchSpec, GraphConfig, run_matrix
from lintab.engine import ALL_CONFIGS, Engine, StrategyConfig
from lintab.reader import parse_program, parse_query

MUTUAL = """
:- table a/1.
:- table b/1.
a(X) :- b(X).
a(X) :- edge(X).
b(X) :- a(X).
b(1).
edge(2).
"""

STD = StrategyConfig()
DRA = StrategyConfig(dra=True)
DRS = StrategyConfig(drs=True)
DRADRS = StrategyConfig(dra=True, drs=True)
DRE = StrategyConfig(dre=True)


def check(line: str, ok: bool) -> None:
    record_verdict(f"{line}: {'PASS' if ok else 'FAIL'}")
    assert ok, line


def within(value: float, target: float, tol: float) -> bool:
    return target * (1 - tol) <= value <= target * (1 + tol)


def run_mutual(config, **kw):
    eng = Engine(parse_program(MUTUAL), config, **kw)
    raw, stats = eng.run_query(parse_query("a(X)."))
    return eng, eng.answers(raw), stats


@pytest.fixture(scope="module")
def grid40():
    """Depth-40 grid, both clause orders, the four no-sld configs."""
    configs = (STD, DRA, DRS, DRADRS)
    return {
        variant: run_matrix(BenchSpec(GraphConfig("grid", 40), variant=variant, configs=configs))
        for variant in ("recursive_first", "recursive_last")
    }


@pytest.fixture(scope="module")
def grid40_slds():
    return run_matrix(
        BenchSpec(GraphConfig("grid", 40), with_slds=True, configs=(STD, DRA))
    )


def test_criterion_1_worked_example_fidelity():
    ok = True
    for config in ALL_CONFIGS:
        eng, answers, _ = run_mutual(config)
        ok &= {t.args[0] for t in answers} == {1, 2}
        frames = {f.functor.name: f for f in eng.ts.frames}
        ok &= set(frames) == {"a", "b"}
        for f in frames.values():
            ok &= f.state == "complete"
            ok &= {n.token for n in f.solution_order} == {1, 2}
    check("C1 worked example: answers {1,2} and complete tables a:{1,2} b:{1,2} under all 8 configs", ok)


def test_criterion_2_oracle_equivalence_sweep():
    t0 = time.perf_counter()
    cells = 0
    try:
        for shape, depths in (("pyramid", range(2, 21)), ("cycle", range(2, 21)), ("grid", range(2, 11))):
            for depth in depths:
                for variant in ("recursive_first", "recursive_last"):
                    report = run_matrix(BenchSpec(GraphConfig(shape, depth), variant=variant))
                    cells += len(report.cells)
                    assert all(c.error is None for c in report.cells)
    except RuntimeError as exc:
        check(f"C2 oracle equivalence sweep: mismatch ({exc})", False)
        return
    elapsed = time.perf_counter() - t0
    ok = elapsed < 60.0
    check(
        f"C2 oracle equivalence: {cells} cells over pyramid/cycle 2-20 and grid 2-10, "
        f"both variants, all 8 configs, {elapsed:.1f}s (< 60s)",
        ok,
    )


def test_criterion_3_round_counts():
    _, _, std = run_mutual(STD)
    _, _, dre = run_mutual(DRE)
    ok = std.rounds_started == 2 and dre.rounds_started == 1
    check(
        f"C3 rounds: standard re-evaluates twice (rounds_started={std.rounds_started}), "
        f"DRE completes after one (rounds_started={dre.rounds_started})",
        ok,
    )


def test_criterion_4_dra_alts_ratio(grid40):
    ok = True
    parts = []
    for variant, report in grid40.items():
        std = report.cell(STD).stats.alts_explored
        dra = report.cell(DRA).stats.alts_explored
        ratio = std / dra
        ok &= within(ratio, 1.91, 0.25)
        parts.append(f"{variant}: {std}/{dra}={ratio:.2f}")
    check(
        "C4 grid-40 Alts(standard)/Alts(DRA) within 25% of 1.91 -- "
        + "; ".join(parts)
        + " (reference standard counts 70403/67204 not gated)",
        ok,
    )


def test_criterion_5_drs_sols_ratio(grid40):
    targets = {"recursive_first": 19.55, "recursive_last": 18.79}
    ok = True
    parts = []
    for variant, report in grid40.items():
        std = report.cell(STD).stats.nonleader_sols_consumed
        drs = report.cell(DRS).stats.nonleader_sols_consumed
        ratio = std / drs
        ok &= within(ratio, targets[variant], 0.25)
        parts.append(f"{variant}: {std}/{drs}={ratio:.2f} (target {targets[variant]})")
    check("C5 grid-40 Sols(standard)/Sols(DRS) within 25% of target -- " + "; ".join(parts), ok)


def test_criterion_6_combination_preserves_solo_counters(grid40):
    ok = True
    parts = []
    for variant, report in grid40.items():
        both = report.cell(DRADRS).stats
        dra = report.cell(DRA).stats.alts_explored
        drs = report.cell(DRS).stats.nonleader_sols_consumed
        ok &= within(both.alts_explored, dra, 0.05)
        ok &= within(both.nonleader_sols_consumed, drs, 0.05)
        parts.append(
            f"{variant}: alts {both.alts_explored} vs {dra}, sols {both.nonleader_sols_consumed} vs {drs}"
        )
    check("C6 grid-40 DRA+DRS matches solo DRA Alts and solo DRS Sols within 5% -- " + "; ".join(parts), ok)


def test_criterion_7_sld_interleaving_ratios(grid40_slds):
    std = grid40_slds.cell(STD).stats.sld_calls
    dra = grid40_slds.cell(DRA).stats.sld_calls
    r3 = std["sld3/0"] / dra["sld3/0"]
    r4 = std["sld4/0"] / dra["sld4/0"]
    ok = within(r3, 21.99, 0.25) and within(r4, 12.00, 0.25)
    check(
        f"C7 grid-40 with slds: sld3 ratio {std['sld3/0']}/{dra['sld3/0']}={r3:.2f} "
        f"(target 21.99), sld4 ratio {std['sld4/0']}/{dra['sld4/0']}={r4:.2f} (target 12.00)",
        ok,
    )


def test_criterion_8_property_suites(grid40):
    ok = True
    # DRA/DRS pruning subsets on the heavyweight cells
    for report in grid40.values():
        ok &= report.cell(DRA).stats.alts_explored <= report.cell(STD).stats.alts_explored
        ok &= report.cell(DRS).stats.nonleader_sols_consumed <= report.cell(STD).stats.nonleader_sols_consumed
    # DRE clause exclusivity: every run asserts pioneer/follower disjointness
    _, answers, stats = run_mutual(DRE)
    ok &= stats.followers_created == 2 and {t.args[0] for t in answers} == {1, 2}
    # completion totality and termination on a cyclic graph within the budget
    text = ":- table path/2.\npath(X,Z) :- edge(X,Y), path(Y,Z).\npath(X,Z) :- edge(X,Z).\n" + "\n".join(
        f"edge({i},{i % 30 + 1})." for i in range(1, 31)
    )
    for config in ALL_CONFIGS:
        eng = Engine(parse_program(text), config)
        raw, _ = eng.run_query(parse_query("path(X,Z)."))
        ok &= len(raw) == 900
        ok &= all(f.state == "complete" for f in eng.ts.frames)
    # determinism
    runs = [run_mutual(DRADRS)[2] for _ in range(2)]
    ok &= runs[0] == runs[1]
    check(
        "C8 property suites: pruning subsets, DRE exclusivity, completion totality, "
        "determinism, cyclic termination (full suites in test_engine/test_bench/test_tablespace)",
        ok,
    )
