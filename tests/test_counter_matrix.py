"""Bit-identity gate: the full counter matrix of ``scripts/counter_matrix.py``
(5,608 cells, 2,400 of them random function-free programs: six counters,
``engine.steps``, answer and event-log digests, or the error a run raised)
must hash to the recorded value.  A change that alters evaluation on
purpose records the new digest here and says why.  The run takes about
21 s on a 2-core machine with Python 3.11."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "6e0caa7c31f4bf32e1f7c8a6223653b6b8c27e3f841b0d725d01c98c2d805e8a"

RECIPE = """counter matrix changed: SHA-256 {got}, recorded {want}.
To see which cells differ, and in which fields, run the script on the
parent commit and on this change, then compare the outputs:
    PYTHONPATH=src python3 scripts/counter_matrix.py > before.jsonl   # parent
    PYTHONPATH=src python3 scripts/counter_matrix.py > after.jsonl    # change
    PYTHONPATH=src python3 scripts/matrix_diff.py before.jsonl after.jsonl"""


def test_counter_matrix_is_bit_identical():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "counter_matrix.py")],
        capture_output=True, env=env, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    got = hashlib.sha256(proc.stdout).hexdigest()
    assert got == DIGEST, RECIPE.format(got=got, want=DIGEST)


def test_matrix_diff_pairs_cells_by_key(tmp_path):
    def cell(config, steps, **extra):
        return json.dumps(dict(shape="grid", depth=2, query="p(X).", config=config,
                               steps=steps, answers="a1", **extra), sort_keys=True)

    before = tmp_path / "before.jsonl"
    after = tmp_path / "after.jsonl"
    before.write_text("\n".join([cell("dra", 5), cell("standard", 7), cell("drs", 3)]) + "\n")
    after.write_text("\n".join([cell("standard", 9), cell("dra", 5), cell("dre", 1)]) + "\n")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "matrix_diff.py"), str(before), str(after)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 1
    assert proc.stdout.splitlines() == [
        "2 paired cells, 1 differ; 1 removed, 1 added",
        "  steps: 1 cells",
        "shape=grid depth=2 query=p(X). config=standard: steps 7 -> 9",
        "removed: shape=grid depth=2 query=p(X). config=drs",
        "added: shape=grid depth=2 query=p(X). config=dre",
    ]
