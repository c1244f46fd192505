#!/usr/bin/env python3
"""Compare two outputs of ``scripts/counter_matrix.py`` cell by cell.

Pairs the lines of BEFORE and AFTER by their key fields (the cell and
the query and configuration run on it).  Prints, per result field, how
many paired cells differ in it; then one line per differing cell with
its key and each changed field, before -> after; then the cells only one
side has.  Exits 0 when every cell is present on both sides and
identical, 1 otherwise.

    PYTHONPATH=src python3 scripts/matrix_diff.py before.jsonl after.jsonl
"""

import json
import sys
from collections import Counter

KEY_FIELDS = ("shape", "depth", "variant", "slds", "program", "query", "config")


def load(path):
    cells = {}
    with open(path) as fh:
        for line in fh:
            rec = json.loads(line)
            key = tuple((k, rec.pop(k)) for k in KEY_FIELDS if k in rec)
            if key in cells:
                raise SystemExit(f"{path}: cell {fmt_key(key)} appears twice")
            cells[key] = rec
    return cells


def fmt_key(key) -> str:
    return " ".join(f"{k}={v}" for k, v in key)


def fmt(value) -> str:
    return json.dumps(value, sort_keys=True)


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[-1].strip(), file=sys.stderr)
        return 2
    before, after = load(argv[1]), load(argv[2])
    paired = [k for k in before if k in after]
    per_field = Counter()
    changes = []
    for key in paired:
        b, a = before[key], after[key]
        diff = [f for f in sorted(b.keys() | a.keys()) if b.get(f) != a.get(f)]
        per_field.update(diff)
        if diff:
            changes.append((key, [(f, b.get(f), a.get(f)) for f in diff]))
    removed = [k for k in before if k not in after]
    added = [k for k in after if k not in before]

    print(f"{len(paired)} paired cells, {len(changes)} differ; "
          f"{len(removed)} removed, {len(added)} added")
    for field, n in sorted(per_field.items()):
        print(f"  {field}: {n} cells")
    for key, diff in changes:
        print(fmt_key(key) + ": " + "; ".join(f"{f} {fmt(b)} -> {fmt(a)}" for f, b, a in diff))
    for key in removed:
        print(f"removed: {fmt_key(key)}")
    for key in added:
        print(f"added: {fmt_key(key)}")
    return 1 if changes or removed or added else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
