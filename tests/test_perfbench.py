"""The traced benchmark path still runs and sees the same tables.

``perfbench/spans.py`` counts trie nodes by walking ``TrieNode.children``
from the table space's roots, so a change to the trie's shape or to the
attributes that walk reads shows here.  The figures are those of one
grid-left operation (8x8 grid, left-recursive ``path/2``, open query):
8,192 stored answers in 8,332 trie nodes."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_grid_left_table_sizes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-left",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] is True
    assert out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert metrics["tablespace.trie_nodes"] == 8332
    assert metrics["tablespace.stored_answers"] == 8192
