"""The traced benchmark path still runs and sees the same tables.

``perfbench/spans.py`` counts trie nodes by walking ``TrieNode.children``
from the table space's roots, so a change to the trie's shape or to the
attributes that walk reads shows here.  The figures are those of one
operation of each workload at seed 1: grid-matrix (the 8x8 grid under all
8 configurations), grid-left (left-recursive ``path/2`` on the 8x8 grid,
open query) and cli-run (``lintab run`` on a pyramid fact file, bound
query).  ``engine.answers_emitted`` is read off the tables when a run
ends, so it equals the stored answers."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _check_traced_tables(workload, trie_nodes, stored_answers, steps):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["tablespace.trie_nodes"] == trie_nodes
    assert metrics["tablespace.stored_answers"] == stored_answers
    assert metrics["engine.steps"] == steps
    assert metrics["engine.answers_emitted"] == stored_answers


def test_traced_grid_matrix_table_sizes():
    _check_traced_tables("grid-matrix", 68656, 65536, 784656)


def test_traced_grid_left_table_sizes():
    _check_traced_tables("grid-left", 8332, 8192, 173848)


def test_traced_cli_run_table_sizes():
    _check_traced_tables("cli-run", 2512, 1870, 7040)
