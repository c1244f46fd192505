"""Graph generators, path-program templates, and the strategy-matrix harness.

Three edge topologies (pyramid, cycle, grid) feed a tabled transitive-closure
program in three variants (right-recursive clause first or last, or
left-recursive), optionally instrumented with sld1..sld4 marker facts so the
per-call-site SLD counters can be compared across strategies.  `run_matrix`
evaluates one cell per strategy configuration and cross-checks every answer
set against a breadth-first oracle that never touches the engine.
"""

from __future__ import annotations

import json
import time
from collections import deque
from dataclasses import dataclass, field

from .engine import (
    ALL_CONFIGS,
    DEFAULT_STEP_BUDGET,
    Engine,
    EvalStats,
    StepBudgetExceeded,
    StrategyConfig,
    _collector_paused,
)
from .reader import parse_program, parse_query

SHAPES = ("pyramid", "cycle", "grid")
VARIANTS = ("recursive_first", "recursive_last", "left_recursive")

# generous cap; rejects typos like a negative or six-digit depth before the
# generators try to build them
MAX_DEPTH = 10_000


@dataclass(frozen=True)
class GraphConfig:
    """An edge/2 fact family: one of the three benchmark shapes at a depth."""

    shape: str
    depth: int

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r} (want one of {SHAPES})")
        if not 1 <= self.depth <= MAX_DEPTH:
            raise ValueError(f"depth {self.depth} out of supported range 1..{MAX_DEPTH}")


@dataclass(frozen=True)
class BenchSpec:
    """One benchmark row family: a graph, a clause-order variant, and the
    strategy configurations to run on it."""

    graph: GraphConfig
    variant: str = "recursive_first"
    with_slds: bool = False
    bound: bool = False  # query path(1,Z) instead of the fully open path(X,Z)
    configs: tuple[StrategyConfig, ...] = ALL_CONFIGS
    step_budget: int = DEFAULT_STEP_BUDGET

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r} (want one of {VARIANTS})")


@dataclass
class BenchCell:
    """Result of one (spec, config) run."""

    config: StrategyConfig
    stats: EvalStats | None
    answer_count: int | None
    wall_ms: float
    error: str | None = None


@dataclass
class BenchReport:
    spec: BenchSpec
    oracle_count: int
    cells: list[BenchCell] = field(default_factory=list)

    def cell(self, config: StrategyConfig) -> BenchCell:
        for c in self.cells:
            if c.config == config:
                return c
        raise KeyError(config.label)

    def records(self) -> list[dict]:
        """One flat dict per cell; the machine-readable view."""
        g = self.spec.graph
        out = []
        for c in self.cells:
            rec = {
                "shape": g.shape,
                "depth": g.depth,
                "variant": self.spec.variant,
                "with_slds": self.spec.with_slds,
                "bound": self.spec.bound,
                "dre": c.config.dre,
                "dra": c.config.dra,
                "drs": c.config.drs,
                "config": c.config.label,
                "answer_count": c.answer_count,
                "oracle_count": self.oracle_count,
                "wall_ms": round(c.wall_ms, 3),
                "error": c.error,
            }
            if c.stats is not None:
                rec.update(c.stats.as_dict())
            out.append(rec)
        return out

    def render_structured(self) -> str:
        return "\n".join(json.dumps(r, sort_keys=True) for r in self.records()) + "\n"

    def render_text(self) -> str:
        g = self.spec.graph
        lines = [
            f"shape={g.shape} depth={g.depth} variant={self.spec.variant} "
            f"with_slds={'yes' if self.spec.with_slds else 'no'} "
            f"bound={'yes' if self.spec.bound else 'no'} oracle={self.oracle_count}"
        ]
        hdr = f"{'config':<14} {'Alts':>10} {'Sols':>12} {'Rounds':>6} {'Foll':>6} {'Answers':>10} {'Wall(ms)':>10}"
        lines.append(hdr)
        lines.append("-" * len(hdr))
        for c in self.cells:
            if c.error is not None:
                lines.append(f"{c.config.label:<14} error: {c.error}")
                continue
            s = c.stats
            lines.append(
                f"{c.config.label:<14} {s.alts_explored:>10} {s.nonleader_sols_consumed:>12} "
                f"{s.rounds_started:>6} {s.followers_created:>6} {c.answer_count:>10} {c.wall_ms:>10.1f}"
            )
            if s.sld_calls:
                sld = " ".join(f"{k}={v}" for k, v in sorted(s.sld_calls.items()))
                lines.append(f"{'':<14}   sld: {sld}")
        return "\n".join(lines) + "\n"


def gen_edges(g: GraphConfig) -> list[tuple[int, int]]:
    """Deterministic edge list for a graph config.  Node ids are positive
    integers assigned row-major (pyramid and grid) or along the ring (cycle)."""
    d = g.depth
    edges: list[tuple[int, int]] = []
    if g.shape == "cycle":
        for i in range(1, d):
            edges.append((i, i + 1))
        edges.append((d, 1))
    elif g.shape == "pyramid":
        # row i (1-based) holds i nodes; (i,j) feeds the two below it
        def nid(i: int, j: int) -> int:
            return i * (i - 1) // 2 + j

        for i in range(1, d):
            for j in range(1, i + 1):
                edges.append((nid(i, j), nid(i + 1, j)))
                edges.append((nid(i, j), nid(i + 1, j + 1)))
    else:  # grid
        # both directions between horizontal and vertical neighbours; facts
        # grouped by source node (first-argument order: right, down, left, up)
        # so both clause-order variants see the same re-evaluation schedule
        def nid(r: int, c: int) -> int:
            return r * d + c + 1

        for r in range(d):
            for c in range(d):
                if c + 1 < d:
                    edges.append((nid(r, c), nid(r, c + 1)))
                if r + 1 < d:
                    edges.append((nid(r, c), nid(r + 1, c)))
                if c - 1 >= 0:
                    edges.append((nid(r, c), nid(r, c - 1)))
                if r - 1 >= 0:
                    edges.append((nid(r, c), nid(r - 1, c)))
    return edges


_REC_CLAUSE = {  # (left-recursive, with sld markers) -> the recursive clause
    (False, False): "path(X,Z) :- edge(X,Y), path(Y,Z).",
    (False, True): "path(X,Z) :- sld1, edge(X,Y), path(Y,Z), sld2.",
    (True, False): "path(X,Z) :- path(X,Y), edge(Y,Z).",
    (True, True): "path(X,Z) :- sld1, path(X,Y), edge(Y,Z), sld2.",
}
_BASE_CLAUSE = {
    False: "path(X,Z) :- edge(X,Z).",
    True: "path(X,Z) :- sld3, edge(X,Z), sld4.",
}


def make_path_program(variant: str = "recursive_first", with_slds: bool = False) -> str:
    """Program text for the tabled path/2 predicate; the caller appends the
    edge/2 facts."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    rec, base = _REC_CLAUSE[variant == "left_recursive", with_slds], _BASE_CLAUSE[with_slds]
    clauses = [base, rec] if variant == "recursive_last" else [rec, base]
    lines = [":- table path/2."] + clauses
    if with_slds:
        lines += ["sld1.", "sld2.", "sld3.", "sld4."]
    return "\n".join(lines) + "\n"


def edge_facts(edges: list[tuple[int, int]]) -> str:
    return "\n".join(f"edge({a},{b})." for a, b in edges) + ("\n" if edges else "")


def oracle_reachability(edges: list[tuple[int, int]]) -> set[tuple[int, int]]:
    """Transitive closure by BFS from every node, independent of the engine."""
    adj: dict[int, list[int]] = {}
    nodes: set[int] = set()
    for a, b in edges:
        adj.setdefault(a, []).append(b)
        nodes.add(a)
        nodes.add(b)
    closure: set[tuple[int, int]] = set()
    for src in nodes:
        seen: set[int] = set()
        q = deque(adj.get(src, ()))
        while q:
            v = q.popleft()
            if v in seen:
                continue
            seen.add(v)
            q.extend(adj.get(v, ()))
        closure.update((src, v) for v in seen)
    return closure


def run_matrix(spec: BenchSpec) -> BenchReport:
    """Run every configured strategy on the spec's program and graph.

    Each cell gets a fresh engine (share-nothing).  A step-budget overrun is
    recorded on its cell and the remaining cells still run; an answer set that
    disagrees with the oracle raises, since that is a soundness failure rather
    than a resource limit.
    """
    edges = gen_edges(spec.graph)
    oracle = oracle_reachability(edges)
    expected = {(a, b) for (a, b) in oracle if a == 1} if spec.bound else oracle
    text = make_path_program(spec.variant, spec.with_slds) + edge_facts(edges)
    program = parse_program(text)
    query = parse_query("path(1,Z)." if spec.bound else "path(X,Z).")
    report = BenchReport(spec=spec, oracle_count=len(expected))
    for config in spec.configs:
        # one collector pause per cell, which frees the cell's tables and
        # rows before it ends: the cell makes no cyclic garbage, so a
        # collection would only walk them
        with _collector_paused():
            report.cells.append(_run_cell(spec, program, query, expected, config))
    return report


def _run_cell(spec: BenchSpec, program, query, expected, config: StrategyConfig) -> BenchCell:
    """One strategy's cell: a fresh engine's run, its answer rows checked
    against ``expected``."""
    engine = Engine(program, config, step_budget=spec.step_budget)
    t0 = time.perf_counter()
    try:
        raw, stats = engine.run_query(query)
    except StepBudgetExceeded as exc:
        return BenchCell(config, None, None, (time.perf_counter() - t0) * 1000.0, error=str(exc))
    wall = (time.perf_counter() - t0) * 1000.0
    rows = engine.answer_rows(raw)
    # free the tables before the answer set is built, so the cell's peak
    # memory holds one of them, not both
    del engine, raw
    got = set(rows)
    # a duplicated answer is as wrong as a missing one
    if len(got) != len(rows) or got != expected:
        raise RuntimeError(
            f"answer set mismatch vs oracle: shape={spec.graph.shape} depth={spec.graph.depth} "
            f"variant={spec.variant} config={config.label} "
            f"got {len(got)} pairs in {len(rows)} answers, expected {len(expected)}"
        )
    return BenchCell(config, stats, len(got), wall)
