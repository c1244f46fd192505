#!/usr/bin/env python3
"""One traced grid cell of run_matrix, split by layer.

    python3 perfbench/cell.py --depth 40 [--config standard]

Runs a single strategy cell over the depth-d grid with the open query under
the same span wrappers as `run.py --trace 1`, checks the answer count against
the closed formula, and prints each layer's self time, the counters and the
peak RSS.  This gives the README's grid-40 reference split; a depth-40 cell
needs about 2 GB of memory and a minute.
"""

from __future__ import annotations

import argparse
import resource
import sys
from time import perf_counter

import expected
import spans
from run import load_lintab


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--depth", type=int, required=True)
    ap.add_argument("--config", default="standard", help="a strategy label such as dre+dra+drs")
    args = ap.parse_args(argv)

    lt = load_lintab()
    configs = {c.label: c for c in lt.ALL_CONFIGS}
    if args.config not in configs:
        ap.error(f"unknown config {args.config!r}; choose from {sorted(configs)}")
    lb = lt.bench
    spec = lb.BenchSpec(lb.GraphConfig("grid", args.depth), configs=(configs[args.config],))
    tracer = spans.Tracer()
    tracer.install(lt)
    tracer.tag = ("run", 0)
    t0 = perf_counter()
    try:
        report = lb.run_matrix(spec)
    finally:
        tracer.uninstall()
    wall = perf_counter() - t0
    cell = report.cells[0]
    want = expected.grid_closure_size(args.depth)
    ok = cell.error is None and cell.answer_count == want and report.oracle_count == want
    self_s: dict[str, float] = {}
    for span, st in zip(tracer.spans, tracer.self_times()):
        self_s[span["name"]] = self_s.get(span["name"], 0.0) + st
    query = next(s for s in tracer.spans if s["name"] == "engine.run_query")
    print(f"grid-{args.depth} {args.config}: answers {cell.answer_count} (expected {want}),"
          f" run_matrix {wall:.3f} s, peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MB")
    for name, span in spans.SELF_TIME.items():
        if span in self_s:
            print(f"  {name:<20} {self_s[span]:9.3f} s")
    print(f"  {spans.COLLECT:<20} {self_s.get(spans.COLLECT, 0.0):9.3f} s (table counts, in no layer)")
    for name in spans.ENGINE_COUNTS + spans.TABLE_COUNTS:
        print(f"  {name:<24} {query.get(name)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
