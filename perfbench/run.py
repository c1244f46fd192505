#!/usr/bin/env python3
"""Layered benchmark for lintab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Runs one workload (grid-matrix, grid-left or cli-run) in this process against
the lintab sources in ../src, for S seconds of whole rounds, and checks every
answer against sets computed in expected.py.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With --trace 0 the metrics are setup_s, run_s and peak_rss_mb;
with --trace 1 they are the per-layer metrics of spans.py, and the spans are
written to perfbench/out/.  `--workload all` runs each workload in its own
process and prints one row per workload.  See README.md for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter
from types import SimpleNamespace

import expected
import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

LEFT_PROGRAM = ":- table path/2.\npath(X,Z) :- path(X,Y), edge(Y,Z).\npath(X,Z) :- edge(X,Z).\n"


def load_lintab():
    """Import lintab from this checkout's src/, never from an installed copy."""
    init = SRC / "lintab" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run this from a lintab source checkout")
    sys.path.insert(0, str(SRC))
    import lintab
    import lintab.bench
    import lintab.cli

    if Path(lintab.__file__).resolve() != init.resolve():
        sys.exit(f"error: imported lintab from {lintab.__file__}, not {init}")
    return lintab


class Tally:
    """Operations attempted and failed.  A wrong answer is a failed operation
    that also makes the run incorrect; an operation that raises only fails."""

    def __init__(self) -> None:
        self.attempted = self.failed = self.wrong = 0

    def record(self, faults: list[str], raised: bool = False) -> None:
        self.attempted += 1
        if raised or faults:
            self.failed += 1
        if faults:
            self.wrong += 1
            print("wrong: " + "; ".join(faults), file=sys.stderr)


def property_faults(config, stats, standard, answers_emitted: int) -> list[str]:
    """Checks that hold under every strategy: table contents do not depend
    on it, DRA and DRS never do more work than standard, and only DRE makes
    followers."""
    out = []
    if stats.answers_emitted != answers_emitted:
        out.append(f"{config.label}: answers_emitted {stats.answers_emitted} != {answers_emitted}")
    if not config.dre and stats.followers_created:
        out.append(f"{config.label}: {stats.followers_created} followers without dre")
    if standard is not None and config.dra and stats.alts_explored > standard.alts_explored:
        out.append(f"{config.label}: alts_explored {stats.alts_explored} > standard {standard.alts_explored}")
    if standard is not None and config.drs and stats.nonleader_sols_consumed > standard.nonleader_sols_consumed:
        out.append(
            f"{config.label}: nonleader_sols_consumed {stats.nonleader_sols_consumed}"
            f" > standard {standard.nonleader_sols_consumed}"
        )
    return out


class GridMatrix:
    """`lintab bench --shape grid --all-configs`: one run_matrix call per
    round over the bidirectional grid, open query, all 8 configs in a seeded
    order."""

    depth = 8
    setup_reps = 3
    gauge = "int"

    def __init__(self, lt, rng: random.Random, out_dir: Path):
        self.lt = lt
        lb = lt.bench
        d = self.depth
        graph = lb.GraphConfig("grid", d)
        self.configs = tuple(rng.sample(lt.ALL_CONFIGS, len(lt.ALL_CONFIGS)))
        self.spec = lb.BenchSpec(graph, configs=self.configs)
        self.text = lb.make_path_program() + lb.edge_facts(lb.gen_edges(graph))
        self.pairs = expected.grid_closure_size(d)
        # run_matrix raises unless every cell's answer set equals its oracle's,
        # so checking the oracle's set here checks every cell's set
        self.oracle_ok = expected.all_pairs_check(lb.oracle_reachability(lb.gen_edges(graph)), d * d)

    def round(self, tally: Tally) -> list[float]:
        t0 = perf_counter()
        try:
            report = self.lt.bench.run_matrix(self.spec)
        except RuntimeError as exc:
            dt = perf_counter() - t0
            mismatch = str(exc).startswith("answer set mismatch")
            for _ in self.configs:
                tally.record([str(exc)] if mismatch else [], raised=True)
            return [dt]
        dt = perf_counter() - t0
        cells = {c.config: c for c in report.cells}
        std = cells.get(self.lt.StrategyConfig())
        for config in self.configs:
            cell = cells[config]
            if cell.error is not None:
                tally.record([], raised=True)
                continue
            faults = [] if self.oracle_ok else ["oracle closure is not all pairs"]
            if cell.answer_count != self.pairs or report.oracle_count != self.pairs:
                faults.append(f"{config.label}: {cell.answer_count} answers, oracle {report.oracle_count}")
            faults += property_faults(config, cell.stats, std and std.stats, 2 * self.pairs)
            tally.record(faults)
        return [dt]


class GridLeft:
    """Left-recursive path/2 over a smaller grid from the same generator,
    node ids relabelled by a seeded permutation, through the library API
    under standard and dre+dra+drs."""

    depth = 8
    setup_reps = 3
    gauge = "int"

    def __init__(self, lt, rng: random.Random, out_dir: Path):
        self.lt = lt
        lb = lt.bench
        n = self.depth * self.depth
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        edges = [(perm[a - 1], perm[b - 1]) for a, b in lb.gen_edges(lb.GraphConfig("grid", self.depth))]
        self.text = LEFT_PROGRAM + lb.edge_facts(edges)
        self.program = lt.parse_program(self.text)
        self.query = lt.parse_query("path(X,Z).")
        configs = [lt.StrategyConfig(), lt.StrategyConfig(dre=True, dra=True, drs=True)]
        rng.shuffle(configs)
        self.configs = tuple(configs)

    def round(self, tally: Tally) -> list[float]:
        lt, n = self.lt, self.depth * self.depth
        times = []
        results = []
        for config in self.configs:
            engine = lt.Engine(self.program, config)
            t0 = perf_counter()
            try:
                raw, stats = engine.run_query(self.query)
                answers = engine.answers(raw)
            except (lt.StepBudgetExceeded, lt.TablingInvariantError) as exc:
                times.append(perf_counter() - t0)
                print(f"failed: {config.label}: {exc}", file=sys.stderr)
                results.append((config, None, False))
                continue
            times.append(perf_counter() - t0)
            ok = expected.all_pairs_check(((t.args[0], t.args[1]) for t in answers), n)
            results.append((config, stats, ok))
            del engine, raw, answers
        std = next((s for c, s, _ in results if c == lt.StrategyConfig()), None)
        for config, stats, ok in results:
            if stats is None:
                tally.record([], raised=True)
                continue
            faults = [] if ok else [f"{config.label}: answer set is not all {n * n} pairs"]
            tally.record(faults + property_faults(config, stats, std, n * n))
        return times


_BINDING = re.compile(r"Z = (\d+)$")
_COUNT = re.compile(r"(\w+)=(\d+)")
_CLI_COUNTERS = {"alts_explored", "nonleader_sols_consumed", "rounds_started", "followers_created", "answers_emitted"}


class CliRun:
    """`lintab run` in process: load a large pyramid fact file and ask a
    seeded bound query path(K,Z), K ten rows above the bottom, once under
    standard and once under dre+dra+drs per round."""

    depth = 80
    setup_reps = 2
    gauge = "text"

    def __init__(self, lt, rng: random.Random, out_dir: Path):
        self.lt = lt
        lb = lt.bench
        n = self.depth
        self.text = lb.make_path_program() + lb.edge_facts(lb.gen_edges(lb.GraphConfig("pyramid", n)))
        self.path = out_dir / f"pyramid{n}-{os.getpid()}.pl"
        self.path.write_text(self.text, encoding="utf-8")
        # the row is fixed and only the column is seeded: cones do not reach
        # the pyramid's edge, so every seed asks for the same amount of work
        i = n - 10
        j = rng.randint(1, i)
        self.node = expected.pyramid_id(i, j)
        self.cone = expected.pyramid_cone(n, i, j)
        # every node reachable from K gets its own table holding its cone
        self.answers_emitted = len(self.cone) + sum(
            len(expected.pyramid_cone(n, r, c))
            for r in range(i + 1, n + 1)
            for c in range(j, j + (r - i) + 1)
        )
        configs = [lt.StrategyConfig(), lt.StrategyConfig(dre=True, dra=True, drs=True)]
        rng.shuffle(configs)
        self.configs = tuple(configs)

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def _argv(self, config) -> list[str]:
        flags = [f"--{n}" for n in ("dre", "dra", "drs") if getattr(config, n)]
        return ["run", "--program", str(self.path), "--query", f"path({self.node},Z).", *flags]

    def _faults(self, config, code: int, out: str, err: str):
        if code != 0:
            return [f"{config.label}: exit {code}: {err.strip()}"], None
        lines = out.splitlines()
        stat_lines = [ln for ln in lines if ln.startswith("%")]
        bindings = [_BINDING.match(ln) for ln in lines if not ln.startswith("%")]
        counts = {k: int(v) for k, v in _COUNT.findall(stat_lines[1])} if len(stat_lines) > 1 else {}
        if not all(bindings) or not _CLI_COUNTERS <= counts.keys():
            return [f"{config.label}: unexpected output {lines[:3]}"], None
        got = [int(m.group(1)) for m in bindings]
        head = dict(_COUNT.findall(stat_lines[0]))
        stats = SimpleNamespace(**counts)
        faults = []
        if len(got) != len(self.cone) or set(got) != self.cone:
            faults.append(f"{config.label}: {len(got)} bindings, not the cone of {self.node}")
        if int(head.get("answers", -1)) != len(got):
            faults.append(f"{config.label}: answers={head.get('answers')} but {len(got)} bindings")
        if stats.rounds_started != 0:
            faults.append(f"{config.label}: {stats.rounds_started} rounds on a DAG")
        return faults, stats

    def round(self, tally: Tally) -> list[float]:
        times = []
        results = []
        for config in self.configs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                code = self.lt.cli.main(self._argv(config))
                times.append(perf_counter() - t0)
            results.append((config, *self._faults(config, code, out.getvalue(), err.getvalue())))
        std = next((s for c, _, s in results if c == self.lt.StrategyConfig()), None)
        for config, faults, stats in results:
            if stats is not None:
                faults = faults + property_faults(config, stats, std, self.answers_emitted)
            tally.record(faults)
        return times


# How many times a gauge is timed right before and right after each round.
GAUGE_REPS = 3


def int_gauge() -> float:
    """Wall time of a fixed loop of integer arithmetic and dict stores,
    the kind of work the engine and the table space do."""
    t0 = perf_counter()
    acc = 0
    seen = {}
    for i in range(20000):
        acc += i * i % 7
        seen[i & 1023] = acc
    return perf_counter() - t0


def text_gauge() -> float:
    """Wall time of a fixed loop that formats and splits short strings,
    the kind of work the reader does."""
    t0 = perf_counter()
    acc = 0
    seen = {}
    parts = []
    for i in range(4000):
        acc += i * i % 7
        seen[(i & 1023, "k")] = acc
        parts.append(f"p({i},{acc})".split(","))
        if len(parts) > 256:
            parts.clear()
    return perf_counter() - t0


# No lintab code runs in a gauge.  Both take about GAUGE_REF_S, the reference
# speed, on the 2-core Xeon sandbox of the README's figures while that
# machine runs at full speed; under load the text gauge slows more.
GAUGES = {"int": int_gauge, "text": text_gauge}
GAUGE_REF_S = 0.0028


WORKLOADS = {"grid-matrix": GridMatrix, "grid-left": GridLeft, "cli-run": CliRun}


def _counter_table(rows: list[dict]) -> str:
    cols = ["config"] + [k for k in rows[0] if k != "config"]
    lines = ["| " + " | ".join(cols) + " |", "|" + "---|" * len(cols)]
    lines += ["| " + " | ".join(str(r[c]) for c in cols) + " |" for r in rows]
    return "\n".join(lines)


def run_all(args) -> int:
    """Every workload, each in its own process, one row each."""
    status = 0
    for name in WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run([sys.executable, __file__, *argv], capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exit {proc.returncode}: {proc.stderr.strip()}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(lines[-1])
        if not res["correct"] or res["failed"]:
            status = 1
        metrics = " ".join(f"{k}={v['value']:.6g}{v['unit']}" for k, v in res["metrics"].items())
        print(f"{name:<12} correct={res['correct']} attempted={res['attempted']} failed={res['failed']} {metrics}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    lt = load_lintab()
    expected.selfcheck()
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload](lt, random.Random(args.seed), OUT)
    tracer = spans.Tracer() if args.trace else None
    tally = Tally()
    setup_times: list[float] = []
    round_times: list[list[float]] = []
    gauge = GAUGES[workload.gauge]
    speeds: list[float] = []
    try:
        if tracer:
            tracer.install(lt)
        # set-ups are spread over the run like the rounds, so that both
        # sample the machine over the same stretch of time
        start = perf_counter()
        while True:
            # the previous round's cyclic garbage is collected here, untimed,
            # so that no round pays for another's
            gc.collect()
            gauge_times = [gauge() for _ in range(GAUGE_REPS)]
            for _ in range(workload.setup_reps):
                if tracer:
                    tracer.tag = ("setup", len(setup_times))
                t0 = perf_counter()
                lt.Engine(lt.reader.parse_program(workload.text))
                setup_times.append(perf_counter() - t0)
            if tracer:
                tracer.tag = ("run", len(round_times))
            round_times.append(workload.round(tally))
            gauge_times += [gauge() for _ in range(GAUGE_REPS)]
            speeds.append(GAUGE_REF_S / median(gauge_times))
            elapsed = perf_counter() - start
            if elapsed * (len(round_times) + 1) / len(round_times) > args.seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
        if hasattr(workload, "close"):
            workload.close()

    # The shared 2-core machine (see README.md) runs the same code up to 2x
    # slower for minutes at a time, so a raw wall time says more about the
    # neighbours than about lintab.  Each round and its set-ups are scaled by
    # the speed of the workload's gauge, a fixed loop timed right before and
    # after them, and the median over the run is reported: seconds at the
    # reference speed.
    totals = [sum(r) for r in round_times]
    run_s = median(t * v for t, v in zip(totals, speeds))
    setup_s = median(t * speeds[i // workload.setup_reps] for i, t in enumerate(setup_times))
    print(f"# {args.workload} seed={args.seed} rounds={len(round_times)} run_s={run_s:.4f}"
          f" median_round_s={median(totals):.4f} fastest_round_s={min(totals):.4f}"
          f" median_speed={median(speeds):.3f} setups={len(setup_times)} setup_s={setup_s:.5f}"
          f" median_setup_s={median(setup_times):.5f} rounds_s={[round(t, 4) for t in totals]}")
    if tracer:
        path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
        tracer.write(path)
        print(f"# spans: {path.relative_to(HERE.parent)} ({len(tracer.spans)} spans)")
        print(_counter_table(spans.counter_rows(tracer)))
        reps = workload.setup_reps
        metrics = spans.layer_metrics(tracer, lambda phase, i: speeds[i // reps if phase == "setup" else i])
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "run_s": {"value": run_s, "unit": "s"},
            "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
