"""Command-line front end.

Two subcommands: `run` evaluates a query against a program file under a
chosen strategy configuration and prints each answer as bindings of the
query's own variable names; `bench` drives the strategy matrix over one of
the generated graph families and prints the report.

Exit status: 0 on success, 1 when the engine hits a limit or detects an
internal inconsistency, 2 on usage or parse errors or a program file that
cannot be read or is not UTF-8.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .bench import BenchSpec, GraphConfig, SHAPES, run_matrix
from .engine import (ALL_CONFIGS, DEFAULT_STEP_BUDGET, Engine, StepBudgetExceeded, StrategyConfig,
                     query_template)
from .reader import ParseError, parse_program, parse_query
from .tablespace import TablingInvariantError
from .terms import Trail, term_to_str, unify

_VARIANTS = {"first": "recursive_first", "last": "recursive_last", "left": "left_recursive"}


def _add_strategy_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dre", action="store_true", help="resume repeated calls from the pioneer's next clause")
    p.add_argument("--dra", action="store_true", help="re-evaluate only looping alternatives")
    p.add_argument("--drs", action="store_true", help="propagate only looping and current-round solutions")


def _step_budget(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if n < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {n}")
    return n


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lintab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="cmd", required=True)

    runp = sub.add_parser("run", help="evaluate a query against a program file")
    runp.add_argument("--program", required=True, help="path to the program file")
    runp.add_argument("--query", required=True, help="query text, '.'-terminated")
    _add_strategy_flags(runp)
    runp.add_argument("--stats", choices=("text", "structured"), default="text")
    runp.add_argument("--step-budget", type=_step_budget, default=DEFAULT_STEP_BUDGET)

    benchp = sub.add_parser("bench", help="run the strategy matrix on a generated graph")
    benchp.add_argument("--shape", required=True, choices=SHAPES)
    benchp.add_argument("--depth", required=True, type=int)
    benchp.add_argument("--variant", choices=sorted(_VARIANTS), default="first")
    benchp.add_argument("--with-slds", action="store_true", help="instrument clause bodies with sld1..sld4 markers")
    benchp.add_argument("--bound", action="store_true", help="query path(1,Z) instead of path(X,Z)")
    _add_strategy_flags(benchp)
    benchp.add_argument("--all-configs", action="store_true", help="run all 8 strategy combinations")
    benchp.add_argument("--stats", choices=("text", "structured"), default="text")
    benchp.add_argument("--step-budget", type=_step_budget, default=DEFAULT_STEP_BUDGET)
    return parser


def _format_answer(template, varmap: dict, answer) -> str:
    """The query variables' bindings in ``answer``, an instance of the
    query ``template``: unifying the two binds each variable, and undoing
    the trail afterwards leaves the template unbound again."""
    if not varmap:
        return "true"
    trail = Trail()
    unify(template, answer, trail)
    names: dict = {}
    line = ", ".join([f"{name} = {term_to_str(v, names)}" for name, v in varmap.items()])
    trail.undo_to(0)
    return line


def _cmd_run(args) -> int:
    try:
        with open(args.program, "rb") as fh:
            text = fh.read().decode("utf-8")
    except OSError as exc:
        print(f"error: cannot read program {args.program!r}: {exc.strerror}", file=sys.stderr)
        return 2
    except UnicodeDecodeError as exc:
        print(f"error: cannot read program {args.program!r}: not UTF-8 "
              f"(byte 0x{exc.object[exc.start]:02x} at offset {exc.start})", file=sys.stderr)
        return 2
    if "\r" in text:  # the universal newlines of a text-mode read
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    varmap: dict = {}
    try:
        program = parse_program(text)
        goals = parse_query(args.query, varmap)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    config = StrategyConfig(dre=args.dre, dra=args.dra, drs=args.drs)
    engine = Engine(program, config, step_budget=args.step_budget)
    t0 = time.perf_counter()
    try:
        raw, stats = engine.run_query(goals)
    except (StepBudgetExceeded, TablingInvariantError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    wall_ms = (time.perf_counter() - t0) * 1000.0
    answers = engine.answers(raw)
    template = query_template(goals)
    for a in answers:
        print(_format_answer(template, varmap, a))
    if args.stats == "structured":
        rec = {"config": config.label, "dre": config.dre, "dra": config.dra, "drs": config.drs,
               "answer_count": len(answers), "wall_ms": round(wall_ms, 3)}
        rec.update(stats.as_dict())
        print(json.dumps(rec, sort_keys=True))
    else:
        print(f"% config={config.label} answers={len(answers)} wall_ms={wall_ms:.1f}")
        print(f"% alts_explored={stats.alts_explored} nonleader_sols_consumed={stats.nonleader_sols_consumed}"
              f" rounds_started={stats.rounds_started} followers_created={stats.followers_created}"
              f" answers_emitted={stats.answers_emitted}")
        if stats.sld_calls:
            print("% sld_calls: " + " ".join(f"{k}={v}" for k, v in sorted(stats.sld_calls.items())))
    return 0


def _cmd_bench(args) -> int:
    if args.all_configs and (args.dre or args.dra or args.drs):
        print("error: --all-configs conflicts with individual strategy flags", file=sys.stderr)
        return 2
    configs = ALL_CONFIGS if args.all_configs else (StrategyConfig(dre=args.dre, dra=args.dra, drs=args.drs),)
    try:
        spec = BenchSpec(
            graph=GraphConfig(args.shape, args.depth),
            variant=_VARIANTS[args.variant],
            with_slds=args.with_slds,
            bound=args.bound,
            configs=configs,
            step_budget=args.step_budget,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_matrix(spec)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    out = report.render_structured() if args.stats == "structured" else report.render_text()
    sys.stdout.write(out)
    return 1 if any(c.error is not None for c in report.cells) else 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _cmd_run(args) if args.cmd == "run" else _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
