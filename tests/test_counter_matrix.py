"""Bit-identity gate: the full counter matrix of ``scripts/counter_matrix.py``
(5,592 cells, 2,400 of them random function-free programs: six counters,
``engine.steps``, answer and event-log digests, or the error a run raised)
must hash to the recorded value.  A change that alters evaluation on
purpose records the new digest here and says why.  The run takes about
55 s on a 2-core machine with Python 3.11."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "79077747b1b98ba5c0392120763527a8a1f37432d7fcc944f222cf5216bf6290"

RECIPE = """counter matrix changed: SHA-256 {got}, recorded {want}.
To see which cells differ, run the script on the parent commit and on this
change, then diff the outputs:
    PYTHONPATH=src python3 scripts/counter_matrix.py > before.jsonl   # parent
    PYTHONPATH=src python3 scripts/counter_matrix.py > after.jsonl    # change
    diff before.jsonl after.jsonl"""


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
