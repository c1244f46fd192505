"""Span recording around lintab's public functions, from outside the program.

`Tracer.install` replaces each traced function with a wrapper at the place
its callers look it up (a module attribute, or a method on `Engine`).  Every
wrapper opens one span per call: name, start, end, parent span, and the
phase tag the benchmark set.  Spans are kept in memory; `write` dumps them
as JSON lines when the run ends.

Counts that need a look into the table space (frames, stored answers, trie
nodes) are gathered after `Engine.run_query` returns, inside a
`trace.collect` span.  That span is a child of the caller's span, so its
time is subtracted from the caller's self time and belongs to no layer.
"""

from __future__ import annotations

import functools
import json
from statistics import median
from time import perf_counter

COLLECT = "trace.collect"


def _trie_nodes(ts) -> int:
    stack = [ts.subgoal_root] + [f.solution_trie_root for f in ts.frames]
    n = 0
    while stack:
        node = stack.pop()
        n += 1
        if node.children:
            stack.extend(node.children.values())
    return n


def _after_parse(rec, args, program):
    rec["clauses"] = sum(len(cs) for cs in program.predicates.values())


def _after_run_query(rec, args, result):
    engine, (_raw, stats) = args[0], result
    ts = engine.ts
    rec.update(
        config=engine.config.label,
        steps=engine.steps,
        alts_explored=stats.alts_explored,
        nonleader_sols_consumed=stats.nonleader_sols_consumed,
        rounds_started=stats.rounds_started,
        followers_created=stats.followers_created,
        answers_emitted=stats.answers_emitted,
        sld_calls=sum(stats.sld_calls.values()),
        frames=len(ts.frames),
        stored_answers=sum(len(f.solution_order) for f in ts.frames),
        trie_nodes=_trie_nodes(ts),
    )


def _after_answers(rec, args, answers):
    rec["config"] = args[0].config.label
    rec["answers"] = len(answers)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.tag: tuple | None = None
        self._stack: list[dict] = []
        self._patches: list[tuple] = []

    def open(self, name: str) -> dict:
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "tag": self.tag,
            "start": perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def close(self, rec: dict) -> None:
        rec["end"] = perf_counter()
        self._stack.pop()

    def _wrap(self, owner, attr: str, name: str, after=None) -> None:
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(rec)
            if after is not None:
                col = tracer.open(COLLECT)
                try:
                    after(rec, args, result)
                finally:
                    tracer.close(col)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, orig))

    def install(self, lintab) -> None:
        """Wrap the public functions each layer's callers look up."""
        reader, bench, cli, engine = lintab.reader, lintab.bench, lintab.cli, lintab.engine
        for mod in (reader, bench, cli):
            self._wrap(mod, "parse_program", "reader.parse", _after_parse)
        for attr in ("gen_edges", "make_path_program", "edge_facts"):
            self._wrap(bench, attr, "bench.gen")
        self._wrap(bench, "oracle_reachability", "bench.oracle")
        for mod in (bench, cli):
            self._wrap(mod, "run_matrix", "bench.run_matrix")
        self._wrap(cli, "main", "cli.main")
        self._wrap(engine.Engine, "__init__", "engine.init")
        self._wrap(engine.Engine, "run_query", "engine.run_query", _after_run_query)
        self._wrap(engine.Engine, "answers", "tablespace.decode", _after_answers)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, orig = self._patches.pop()
            setattr(owner, attr, orig)

    def self_times(self) -> list[float]:
        """Per span: its duration minus the time its child spans cover."""
        out = [s["end"] - s["start"] for s in self.spans]
        for s in self.spans:
            if s["parent"] is not None:
                out[s["parent"]] -= s["end"] - s["start"]
        return out

    def write(self, path) -> None:
        selfs = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for s, st in zip(self.spans, selfs):
                fh.write(json.dumps(dict(s, self=st)) + "\n")


# -- per-layer metrics ----------------------------------------------------

# metric -> span whose self time it sums
SELF_TIME = {
    "reader.parse_s": "reader.parse",
    "engine.init_s": "engine.init",
    "engine.run_query_s": "engine.run_query",
    "tablespace.decode_s": "tablespace.decode",
    "bench.gen_s": "bench.gen",
    "bench.oracle_s": "bench.oracle",
    "bench.harness_s": "bench.run_matrix",
    "cli.self_s": "cli.main",
}
SETUP_TIME = {"setup.reader.parse_s": "reader.parse", "setup.engine.init_s": "engine.init"}
# over every parse of the run, set-ups included; rounds of grid-left parse nothing
CLAUSE_RATE = "reader.clauses_per_s"
ENGINE_COUNTS = (
    "steps",
    "alts_explored",
    "nonleader_sols_consumed",
    "rounds_started",
    "followers_created",
    "answers_emitted",
    "sld_calls",
)
TABLE_COUNTS = ("frames", "stored_answers", "trie_nodes")
# every workload runs these two configs, so each reports their split
SPLIT_CONFIGS = ("standard", "dre+dra+drs")
SPLIT_TIMES = {"engine.run_query_s": "engine.run_query", "tablespace.decode_s": "tablespace.decode"}
SPLIT_COUNTS = ("steps", "alts_explored", "nonleader_sols_consumed", "rounds_started", "followers_created")


def _split_name(metric: str, config: str) -> str:
    return f"{metric}.{config.replace('+', '-')}"


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {m: "s" for m in SETUP_TIME}
    units.update({m: "s" for m in SELF_TIME})
    units[CLAUSE_RATE] = "1/s"
    units.update({f"engine.{c}": "count" for c in ENGINE_COUNTS})
    units["engine.sols_per_answer"] = "ratio"
    units.update({f"tablespace.{c}": "count" for c in TABLE_COUNTS})
    units["tablespace.trie_nodes_per_answer"] = "ratio"
    for cfg in SPLIT_CONFIGS:
        units.update({_split_name(m, cfg): "s" for m in SPLIT_TIMES})
        units.update({_split_name(f"engine.{c}", cfg): "count" for c in SPLIT_COUNTS})
    return units


def layer_metrics(tracer: Tracer, speed) -> dict[str, dict]:
    """Each layer's per-round total and each setup layer's time per set-up,
    scaled by `speed(phase, idx)` and taken at the median over the run, as
    run_s and setup_s are."""
    units = metric_units()
    setups: dict = {}
    rounds: dict = {}
    clauses = parse_s = 0.0
    for s, st in zip(tracer.spans, tracer.self_times()):
        name = s["name"]
        phase, idx = s["tag"]
        st *= speed(phase, idx)
        if name == "reader.parse":
            clauses += s.get("clauses", 0)
            parse_s += st
        if phase == "setup":
            acc = setups.setdefault(idx, dict.fromkeys(SETUP_TIME, 0.0))
            for metric, span in SETUP_TIME.items():
                if name == span:
                    acc[metric] += st
            continue
        acc = rounds.setdefault(idx, {m: 0 for m in units if m not in SETUP_TIME and m != CLAUSE_RATE})
        for metric, span in SELF_TIME.items():
            if name == span:
                acc[metric] += st
        cfg = s.get("config")
        if cfg in SPLIT_CONFIGS:
            for metric, span in SPLIT_TIMES.items():
                if name == span:
                    acc[_split_name(metric, cfg)] += st
        if name == "engine.run_query" and "steps" in s:
            for c in ENGINE_COUNTS:
                acc[f"engine.{c}"] += s[c]
            for c in TABLE_COUNTS:
                acc[f"tablespace.{c}"] += s[c]
            if cfg in SPLIT_CONFIGS:
                for c in SPLIT_COUNTS:
                    acc[_split_name(f"engine.{c}", cfg)] += s[c]
    for acc in rounds.values():
        answers = acc["engine.answers_emitted"]
        acc["engine.sols_per_answer"] = acc["engine.nonleader_sols_consumed"] / answers if answers else 0.0
        stored = acc["tablespace.stored_answers"]
        acc["tablespace.trie_nodes_per_answer"] = acc["tablespace.trie_nodes"] / stored if stored else 0.0
    values = {m: median(acc[m] for acc in setups.values()) for m in SETUP_TIME}
    values.update({m: median(acc[m] for acc in rounds.values()) for m in rounds[min(rounds)]})
    values[CLAUSE_RATE] = clauses / parse_s if parse_s else 0.0
    return {m: {"value": values[m], "unit": u} for m, u in units.items()}


def counter_rows(tracer: Tracer) -> list[dict]:
    """One row per config from the first round's queries; the counts are
    the same in every round."""
    rows: dict = {}
    for s in tracer.spans:
        if s["name"] == "engine.run_query" and s["tag"] == ("run", 0) and "steps" in s:
            row = rows.setdefault(s["config"], dict.fromkeys(ENGINE_COUNTS + TABLE_COUNTS, 0))
            for c in row:
                row[c] += s[c]
    return [dict(config=cfg, **row) for cfg, row in sorted(rows.items())]
