"""Command-line interface tests: output shapes and exit-status classes."""

import ast
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lintab.cli import main
from lintab.engine import ALL_CONFIGS, solve
from lintab.reader import parse_program, parse_query
from lintab.terms import term_to_str

MUTUAL = """
:- table a/1.
:- table b/1.
a(X) :- b(X).
a(X) :- edge(X).
b(X) :- a(X).
b(1).
edge(2).
"""


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*args, env=None, **kwargs):
    """``python -m lintab.cli *args`` in a child process that imports
    lintab from this checkout's ``src``, with ``env`` added to its
    environment."""
    env = {**os.environ, **(env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC, env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "lintab.cli", *args], capture_output=True, text=True,
                          timeout=60, env=env, **kwargs)


@pytest.fixture
def program_file(tmp_path):
    p = tmp_path / "mutual.pl"
    p.write_text(MUTUAL)
    return str(p)


def test_run_prints_bindings_then_stats(program_file, capsys):
    assert main(["run", "--program", program_file, "--query", "a(X)."]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X = 1"
    assert out[1] == "X = 2"
    assert out[2].startswith("% config=standard answers=2")
    assert any("rounds_started=2" in line for line in out)


def test_run_answers_a_query_whose_clause_ends_in_a_tabled_call(tmp_path, capsys):
    # p(Y) under q/2 continues into the query's answer list, but its
    # answers are p's; each line must bind both query variables
    p = tmp_path / "wrap.pl"
    p.write_text(":- table p/1.\nq(X,Y) :- e(X), p(Y).\ne(7).\np(1).\np(2).\n")
    assert main(["run", "--program", str(p), "--query", "q(A,B)."]) == 0
    assert capsys.readouterr().out.splitlines()[:2] == ["A = 7, B = 1", "A = 7, B = 2"]


def test_one_argument_answer_is_not_read_as_a_pair(tmp_path, capsys):
    # q(f(0))'s token stream is three tokens long, like a flat pair's, but
    # its table must deliver the term f(0), not the functor f/1
    text = ":- table q/1.\nq(f(0)).\nr(X) :- q(X).\n"
    p = tmp_path / "one.pl"
    p.write_text(text)
    for config in ALL_CONFIGS:
        answers, _ = solve(parse_program(text), parse_query("r(X)."), config)
        assert [term_to_str(a) for a in answers] == ["r(f(0))"], config.label
        flags = [f"--{name}" for name in ("dre", "dra", "drs") if getattr(config, name)]
        assert main(["run", "--program", str(p), "--query", "r(X).", *flags]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "X = f(0)", config.label


def test_run_strategy_flags_change_evaluation(program_file, capsys):
    assert main(["run", "--program", program_file, "--query", "a(X).", "--dre"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[:2] == ["X = 2", "X = 1"]  # follower finds the fact clause first


def test_run_structured_stats(program_file, capsys):
    assert main(["run", "--program", program_file, "--query", "a(X).",
                 "--dra", "--drs", "--stats", "structured"]) == 0
    lines = capsys.readouterr().out.splitlines()
    rec = json.loads(lines[-1])
    assert rec["config"] == "dra+drs"
    assert rec["answer_count"] == 2
    assert rec["dra"] and rec["drs"] and not rec["dre"]
    assert "alts_explored" in rec and "wall_ms" in rec


def test_run_ground_query_prints_true(program_file, capsys):
    assert main(["run", "--program", program_file, "--query", "a(2)."]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "true"


def test_run_missing_file_is_usage_error(capsys):
    assert main(["run", "--program", "/nonexistent.pl", "--query", "a(X)."]) == 2
    assert "/nonexistent.pl" in capsys.readouterr().err


@pytest.mark.parametrize("prefix", [b"", b"e(1,2).\n" * 2000], ids=["start", "past_8k"])
def test_run_non_utf8_program_is_usage_error(tmp_path, capsys, prefix):
    # past the first 8 KiB too: the offset counts from the start of the file
    p = tmp_path / "bad.pl"
    p.write_bytes(prefix + b"p(\xff).\n")
    assert main(["run", "--program", str(p), "--query", "p(X)."]) == 2
    err = capsys.readouterr().err
    assert err == f"error: cannot read program {str(p)!r}: not UTF-8 (byte 0xff at offset {len(prefix) + 2})\n"


def test_run_reads_crlf_and_cr_line_ends(tmp_path, capsys):
    p = tmp_path / "crlf.pl"
    p.write_bytes(b"e(1).\r\ne(2).\re(3).\r\n")
    assert main(["run", "--program", str(p), "--query", "e(X)."]) == 0
    assert capsys.readouterr().out.splitlines()[:3] == ["X = 1", "X = 2", "X = 3"]


def test_run_bad_query_is_parse_error(program_file, capsys):
    assert main(["run", "--program", program_file, "--query", "a(X)"]) == 2
    assert "line 1" in capsys.readouterr().err


LONG = "9" * 4301  # one digit more than int() reads by default on Python 3.11+


@pytest.mark.parametrize("program,query,col", [
    (f"p({LONG}).\n", "p(X).", 3),
    (f"p(X) :- q({LONG}, X).\nq(1, 2).\n", "p(X).", 11),
    ("p(1).\n", f"p({LONG}).", 3),
], ids=["fact", "rule", "query"])
def test_run_long_integer_is_parse_error(tmp_path, capsys, program, query, col):
    p = tmp_path / "long.pl"
    p.write_text(program)
    assert main(["run", "--program", str(p), "--query", query]) == 2
    assert capsys.readouterr().err == f"error: line 1, col {col}: integer of more than 4300 digits\n"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no limit on int() of a digit string")
@pytest.mark.parametrize("program,query,col", [
    (f"p({'7' * 700}).\n", "p(X).", 3),
    (f"p(X) :- q({'7' * 700}, X).\nq(1, 2).\n", "p(X).", 11),
    ("p(1).\n", f"p({'7' * 700}).", 3),
], ids=["fact", "rule", "query"])
def test_run_integer_over_a_lowered_limit_is_parse_error(tmp_path, program, query, col):
    # 640 is the lowest limit the interpreter accepts
    p = tmp_path / "long.pl"
    p.write_text(program)
    proc = run_cli("run", "--program", str(p), "--query", query, env={"PYTHONINTMAXSTRDIGITS": "640"})
    assert (proc.returncode, proc.stderr) == (2, f"error: line 1, col {col}: integer of more than 640 digits\n")


def nested_fact(tmp_path, depth):
    p = tmp_path / "deep.pl"
    p.write_text("p(" + "f(" * depth + "a" + ")" * depth + ").\n")
    return str(p)


def test_run_deeply_nested_answer(tmp_path, capsys):
    assert main(["run", "--program", nested_fact(tmp_path, 900), "--query", "p(X)."]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X = " + "f(" * 900 + "a" + ")" * 900


def test_run_deep_fact_prints_its_binding(tmp_path, capsys):
    # past the interpreter's recursion limit: reader, engine and printer
    # all walk terms iteratively
    assert main(["run", "--program", nested_fact(tmp_path, 5000), "--query", "p(X)."]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "X = " + "f(" * 5000 + "a" + ")" * 5000


def test_run_deep_query_parses_and_answers(tmp_path, capsys):
    depth = 10_000
    deep = "g(" * depth + "a" + ")" * depth
    p = tmp_path / "id.pl"
    p.write_text(":- table id/2.\nid(X, X).\n")
    assert main(["run", "--program", str(p), "--query", f"id({deep}, Y), id(Y, Z)."]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"Y = {deep}, Z = {deep}"


def test_run_step_budget_is_engine_error(program_file, capsys):
    assert main(["run", "--program", program_file, "--query", "a(X).",
                 "--step-budget", "5"]) == 1
    assert "step budget" in capsys.readouterr().err


def test_run_query_on_an_unknown_predicate_warns_and_fails(program_file):
    proc = run_cli("run", "--program", program_file, "--query", "nope(X).")
    assert proc.returncode == 0, proc.stderr
    assert "% config=standard answers=0 " in proc.stdout
    assert "% sld_calls: nope/1=1" in proc.stdout
    assert proc.stderr == "unknown predicate nope/1 fails\n"


def test_run_step_budget_bounds_answer_deliveries(tmp_path):
    # q(f(Y)) :- p(Y) feeds p's own table and never calls a new predicate,
    # so only a budget on every step stops it
    p = tmp_path / "grow.pl"
    p.write_text(":- table p/1.\np(X) :- q(X).\nq(f(Y)) :- p(Y).\nq(a).\n")
    proc = run_cli("run", "--program", str(p), "--query", "p(X).", "--step-budget", "1000")
    assert proc.returncode == 1
    assert "step budget of 1000 exceeded" in proc.stderr


@pytest.mark.parametrize("cmd", [
    ["run", "--program", "unused.pl", "--query", "a(X)."],
    ["bench", "--shape", "cycle", "--depth", "4"],
])
def test_negative_step_budget_is_usage_error(cmd, capsys):
    assert main(cmd + ["--step-budget", "-5"]) == 2
    err = capsys.readouterr().err
    assert "must not be negative" in err and "exceeded" not in err


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2


def test_bench_text_table(capsys):
    assert main(["bench", "--shape", "cycle", "--depth", "4", "--dra"]) == 0
    out = capsys.readouterr().out
    assert "shape=cycle depth=4" in out
    assert "dra" in out


def test_bench_all_configs_structured_round_trip(capsys):
    assert main(["bench", "--shape", "grid", "--depth", "3", "--all-configs",
                 "--stats", "structured"]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(recs) == 8
    assert {r["config"] for r in recs} == {
        "standard", "dre", "dra", "drs", "dre+dra", "dre+drs", "dra+drs", "dre+dra+drs"
    }
    assert {r["answer_count"] for r in recs} == {81}


def test_bench_variant_and_bound_flags(capsys):
    assert main(["bench", "--shape", "cycle", "--depth", "5", "--variant", "last",
                 "--bound", "--stats", "structured"]) == 0
    (rec,) = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert rec["variant"] == "recursive_last"
    assert rec["bound"] is True
    assert rec["answer_count"] == 5


def test_bench_variant_takes_only_the_short_names(capsys):
    # the program names the records carry are not --variant spellings
    assert main(["bench", "--shape", "cycle", "--depth", "5", "--variant", "recursive_last"]) == 2
    assert "invalid choice: 'recursive_last'" in capsys.readouterr().err


def test_bench_left_variant(capsys):
    assert main(["bench", "--shape", "grid", "--depth", "3", "--variant", "left", "--with-slds",
                 "--all-configs", "--stats", "structured"]) == 0
    recs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(recs) == 8
    assert {(r["variant"], r["with_slds"], r["answer_count"]) for r in recs} == {("left_recursive", True, 81)}


def test_bench_all_configs_conflicts_with_flags(capsys):
    assert main(["bench", "--shape", "grid", "--depth", "3", "--all-configs", "--dra"]) == 2


def test_bench_bad_depth_is_usage_error(capsys):
    assert main(["bench", "--shape", "grid", "--depth", "0"]) == 2


def test_bench_budget_error_exit_code(capsys):
    assert main(["bench", "--shape", "cycle", "--depth", "25",
                 "--step-budget", "100"]) == 1
    assert "error: step budget" in capsys.readouterr().out


# --- cyclic bindings: the occurs check keeps them out ------------------

CYCLIC = [
    ("p(X, f(X)).\n", "p(Y,Y)."),
    (":- table q/2.\nq(X, f(X)).\n", "q(Y,Y)."),
]


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


@pytest.mark.parametrize("flags", [[], ["--dre"], ["--dra", "--drs"], ["--dre", "--dra", "--drs"]])
@pytest.mark.parametrize("text,query", CYCLIC, ids=["fact", "tabled"])
def test_run_cyclic_binding_has_no_answers(tmp_path, text, query, flags):
    # without an occurs check, unifying the query with the clause head binds
    # a variable to a term containing it, and copying or tabling that term
    # never ends; the 1 GiB cap makes such a run fail fast
    p = tmp_path / "cyclic.pl"
    p.write_text(text)
    proc = run_cli("run", "--program", str(p), "--query", query, *flags, preexec_fn=_cap_address_space)
    assert proc.returncode == 0, proc.stderr
    assert "answers=0" in proc.stdout
    assert not [line for line in proc.stdout.splitlines() if " = " in line]


# --- property: any program bytes end in an exit status -------------------

PATH_PROGRAM = (b":- table path/2.\npath(X,Z) :- path(X,Y), edge(Y,Z).\n"
                b"path(X,Z) :- edge(X,Z).\nedge(1,2).\nedge(2,3).\nedge(3,1).\n")
_MUTANT_BYTES = st.sampled_from(list(b"\xff\xc3\x00'%\r\\\n (),.:-aX1"))
_MUTATION = st.tuples(st.sampled_from(["insert", "delete", "replace"]), st.integers(0, 10**6), _MUTANT_BYTES)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_MUTATION, min_size=1, max_size=3),
    st.sampled_from(["path(X,Y).", "path(1,Y).", "edge(X,Y)."]),
    st.sampled_from([[], ["--dre"], ["--dra", "--drs"], ["--dre", "--dra", "--drs"]]),
)
def test_prop_run_never_raises_on_program_bytes(tmp_path_factory, mutations, query, flags):
    data = bytearray(PATH_PROGRAM)
    for op, at, byte in mutations:
        k = at % (len(data) + 1)
        if op == "insert":
            data[k:k] = bytes([byte])
        elif op == "delete":
            del data[k:k + 1]
        else:
            data[k:k + 1] = bytes([byte])
    p = tmp_path_factory.mktemp("mutant") / "p.pl"
    p.write_bytes(bytes(data))
    argv = ["run", "--program", str(p), "--query", query, "--step-budget", "20000"] + flags
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


def test_sources_parse_as_python_3_10():
    # pyproject.toml promises Python 3.10; this checks the syntax only
    src = Path(__file__).resolve().parent.parent / "src" / "lintab"
    modules = sorted(src.glob("*.py"))
    assert modules
    for path in modules:
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
