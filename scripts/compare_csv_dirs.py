#!/usr/bin/env python
"""Compare two directories of harness CSVs, ignoring wall-clock cells.

The harness is deterministic except for the ``wall_seconds`` column, which
is masked; every other cell must match, those of censored rows
(``converged`` is ``False``) included: the quick and default configurations
cut a simulated run by the bytes a phase ships, at the same event on every
host.
Prints each differing cell and exits 1 on any difference::

    PYTHONHASHSEED=1 PYTHONPATH=src python -m repro.harness --quick all --csv-dir a
    PYTHONHASHSEED=2 PYTHONPATH=src python -m repro.harness --quick all --csv-dir b
    python scripts/compare_csv_dirs.py a b
"""

from __future__ import annotations

import argparse
import csv
from pathlib import Path
from typing import List

WALL_CLOCK_COLUMNS = {"wall_seconds"}


def load(path: Path) -> List[List[str]]:
    """The CSV's rows with wall-clock cells blanked."""
    rows = list(csv.reader(path.open(newline="")))
    if not rows:
        return rows
    header = rows[0]
    return [header] + [
        ["" if column in WALL_CLOCK_COLUMNS else cell for column, cell in zip(header, row)]
        for row in rows[1:]
    ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("left", type=Path)
    parser.add_argument("right", type=Path)
    args = parser.parse_args(argv)
    names = sorted({p.name for d in (args.left, args.right) for p in d.glob("*.csv")})
    differences = 0
    for name in names:
        left, right = args.left / name, args.right / name
        if not (left.exists() and right.exists()):
            print(f"{name}: only in {args.left if left.exists() else args.right}")
            differences += 1
            continue
        a, b = load(left), load(right)
        if len(a) != len(b) or (a and a[0] != b[0]):
            print(f"{name}: shape differs ({len(a)} vs {len(b)} rows)")
            differences += 1
            continue
        for index, (row_a, row_b) in enumerate(zip(a[1:], b[1:]), start=1):
            for column, cell_a, cell_b in zip(a[0], row_a, row_b):
                if cell_a != cell_b:
                    print(f"{name} row {index} {column}: {cell_a} != {cell_b}")
                    differences += 1
    print(f"{len(names)} CSVs compared, {differences} difference(s)")
    return 1 if differences else 0


if __name__ == "__main__":
    raise SystemExit(main())
