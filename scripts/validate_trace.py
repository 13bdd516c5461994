#!/usr/bin/env python
"""Validate an exported Chrome trace file (CI gate for ``--trace`` output and flight dumps).

Checks the JSON shape, span durations, per-track nesting, required span
categories and per-node track presence via
:func:`repro.obs.export.validate_chrome_trace`, then prints the trace
summary.  Exit status 1 on any violation::

    PYTHONPATH=src python scripts/validate_trace.py trace.json \
        --require-cats kernel routing operator net gc
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.export import (  # noqa: E402
    load_trace_events,
    validate_chrome_trace,
    validate_flow_balance,
    validate_track_monotonicity,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", type=Path, help="trace file (.json or .jsonl)")
    parser.add_argument(
        "--require-cats",
        nargs="*",
        default=(),
        metavar="CAT",
        help="span categories that must be present (e.g. kernel routing gc)",
    )
    parser.add_argument(
        "--require-node-tracks",
        type=int,
        default=1,
        metavar="N",
        help="minimum number of per-node tracks (default 1)",
    )
    parser.add_argument(
        "--check-flows",
        action="store_true",
        help="also require every flow finish to pair with exactly one start "
        "(catches unremapped ids on merged process-backend traces)",
    )
    parser.add_argument(
        "--check-monotonic",
        action="store_true",
        help="also require per-track file-order timestamp monotonicity "
        "(catches pid collisions when worker traces are absorbed)",
    )
    args = parser.parse_args(argv)
    try:
        summary = validate_chrome_trace(
            args.trace,
            require_categories=args.require_cats,
            require_node_tracks=args.require_node_tracks,
        )
    except (ValueError, OSError) as exc:
        print(f"INVALID: {args.trace}: {exc}", file=sys.stderr)
        return 1
    problems = []
    if args.check_flows or args.check_monotonic:
        events = load_trace_events(args.trace)
        if args.check_flows:
            problems.extend(validate_flow_balance(events))
        if args.check_monotonic:
            problems.extend(validate_track_monotonicity(events))
    if problems:
        print(f"INVALID: {args.trace}:", file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print(f"OK: {args.trace}")
    for key, value in summary.items():
        print(f"  {key}: {value}")
    if args.check_flows:
        print("  flow balance: ok")
    if args.check_monotonic:
        print("  track monotonicity: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
