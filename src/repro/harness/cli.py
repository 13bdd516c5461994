"""Command-line entry point for the experiment harness.

Runs one or more of the paper's figures (or the ablations) outside pytest and
prints the same tables the benchmarks print, optionally writing CSV::

    python -m repro.harness figure7 figure8
    python -m repro.harness --quick --csv-dir results/ all
    python -m repro.harness --list
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import List, Optional, Sequence

import re

from repro.harness.experiments import EXPERIMENTS, explain, run
from repro.harness.config import DEFAULT_CONFIG, PAPER_SCALE_CONFIG, QUICK_CONFIG, ExperimentConfig
from repro.obs.explain import inject_explain_flows
from repro.harness.report import format_rows, rows_to_csv
from repro.obs.export import write_metrics_json
from repro.obs.metrics import MetricsLog, install_metrics_log
from repro.obs.trace import (
    DEFAULT_RING_CAPACITY,
    HARNESS_PID,
    Tracer,
    install_tracer,
    maybe_dump_flight,
)

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Reproduce the evaluation figures of Liu et al., ICDE 2009.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help="experiment names (see --list), or 'all'",
    )
    parser.add_argument("--list", action="store_true", help="list available experiments and exit")
    scale = parser.add_mutually_exclusive_group()
    scale.add_argument("--quick", action="store_true", help="smallest (smoke-test) scale")
    scale.add_argument(
        "--paper-scale", action="store_true", help="the paper's original data sizes (slow)"
    )
    parser.add_argument(
        "--csv-dir", type=Path, default=None, help="also write one CSV file per experiment"
    )
    batching = parser.add_argument_group("update batching")
    batching.add_argument(
        "--batch-size",
        type=int,
        default=None,
        metavar="N",
        help="max updates per injected/coalesced message (1 = tuple-at-a-time)",
    )
    batching.add_argument(
        "--batch-ports",
        type=str,
        default=None,
        metavar="PORT[,PORT...]",
        help=(
            "restrict batch-wise handling to these ports "
            "(base, seed, edge, view, purge); default: all ports"
        ),
    )
    batching.add_argument(
        "--no-batching",
        action="store_true",
        help="run the historical tuple-at-a-time pipeline (same as --batch-size 1)",
    )
    backend = parser.add_argument_group("execution backend")
    backend.add_argument(
        "--backend",
        choices=("sim", "process"),
        default=None,
        help=(
            "where node handlers run: 'sim' on this interpreter thread "
            "(default), 'process' across real OS worker processes with "
            "bit-identical results"
        ),
    )
    backend.add_argument(
        "--workers",
        type=int,
        default=None,
        metavar="N",
        help="worker-process count for --backend process (default: one per CPU core)",
    )
    kernel = parser.add_argument_group("BDD kernel")
    kernel.add_argument(
        "--bdd-gc-threshold",
        type=float,
        default=None,
        metavar="R",
        help=(
            "dead-node fraction of the BDD table that triggers a compacting "
            "GC in the absorption strategies (0 disables automatic GC; "
            "default 0.25)"
        ),
    )
    elastic = parser.add_argument_group("elastic placement")
    elastic.add_argument(
        "--per-node",
        action="store_true",
        help="append per-node traffic/state rows (shows skew before/after rebalancing)",
    )
    elastic.add_argument(
        "--virtual-nodes",
        type=int,
        default=None,
        metavar="V",
        help="virtual nodes per processor on the consistent-hash ring",
    )
    churn = parser.add_argument_group("churn experiment")
    churn.add_argument(
        "--churn-cycles",
        type=int,
        default=None,
        help="crash/recover cycles injected by the churn experiment",
    )
    churn.add_argument(
        "--churn-downtime",
        type=float,
        default=None,
        help="fraction of each churn slot a crashed node stays down (0..1)",
    )
    churn.add_argument(
        "--checkpoint-interval",
        type=int,
        default=None,
        help="deliveries between checkpoints under checkpoint+replay recovery",
    )
    chaos = parser.add_argument_group("chaos plane")
    chaos.add_argument(
        "--chaos-seed",
        type=int,
        default=None,
        metavar="S",
        help="seed for the chaos plan and the power-law chaos workload",
    )
    chaos.add_argument(
        "--chaos-profile",
        choices=("none", "link", "storm", "full", "degraded", "kill"),
        default=None,
        help="named fault profile swept by the chaos experiment (default: full)",
    )
    chaos.add_argument(
        "--chaos-links",
        type=int,
        default=None,
        metavar="N",
        help="total links in the power-law chaos workload",
    )
    obs = parser.add_argument_group("observability")
    obs.add_argument(
        "--trace",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "record a Chrome trace-event file of the run (open in Perfetto / "
            "chrome://tracing); a .jsonl suffix writes one event per line"
        ),
    )
    obs.add_argument(
        "--metrics-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="write one metrics-registry snapshot per experiment phase as JSON",
    )
    obs.add_argument(
        "--explain",
        type=str,
        default=None,
        metavar='"view(args...)"',
        help=(
            "explain one view tuple of the first requested experiment "
            "(default figure7): its minimal derivation products, owning "
            "nodes, and — with --trace — the message path as flow arrows; "
            "'auto' picks the first view tuple"
        ),
    )
    obs.add_argument(
        "--explain-json",
        type=Path,
        default=None,
        metavar="PATH",
        help="also write the explanation as JSON (requires --explain)",
    )
    obs.add_argument(
        "--flight-dump",
        type=Path,
        default=None,
        metavar="PATH",
        help=(
            "where the always-on flight recorder dumps its ring buffers on a "
            "crash-purge, degraded node, budget overrun or harness error (default: "
            "flight_dump.json in the working directory)"
        ),
    )
    obs.add_argument(
        "--no-flight",
        action="store_true",
        help="disable the always-on flight recorder (it is free when idle)",
    )
    return parser


def _select_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.quick:
        config = QUICK_CONFIG
    elif args.paper_scale:
        config = PAPER_SCALE_CONFIG
    else:
        config = DEFAULT_CONFIG
    overrides = {}
    if args.no_batching:
        overrides["batch_size"] = 1
    elif args.batch_size is not None:
        if args.batch_size < 1:
            raise SystemExit("--batch-size must be >= 1")
        overrides["batch_size"] = args.batch_size
    if args.batch_ports is not None:
        ports = tuple(port.strip() for port in args.batch_ports.split(",") if port.strip())
        known = {"base", "seed", "edge", "view", "purge"}
        unknown = [port for port in ports if port not in known]
        if unknown:
            raise SystemExit(
                f"unknown port(s) {', '.join(unknown)}; choose from {', '.join(sorted(known))}"
            )
        overrides["batch_ports"] = ports
    if args.per_node:
        overrides["per_node"] = True
    if args.backend is not None:
        overrides["backend"] = args.backend
    if args.workers is not None:
        if args.workers < 1:
            raise SystemExit("--workers must be >= 1")
        if args.backend != "process":
            raise SystemExit("--workers requires --backend process")
        overrides["workers"] = args.workers
    if args.bdd_gc_threshold is not None:
        if not 0.0 <= args.bdd_gc_threshold <= 1.0:
            raise SystemExit("--bdd-gc-threshold must be within [0, 1]")
        overrides["bdd_gc_threshold"] = args.bdd_gc_threshold
    if args.virtual_nodes is not None:
        if args.virtual_nodes < 1:
            raise SystemExit("--virtual-nodes must be >= 1")
        overrides["virtual_nodes"] = args.virtual_nodes
    if args.churn_cycles is not None:
        if args.churn_cycles < 0:
            raise SystemExit("--churn-cycles must be >= 0")
        overrides["churn_cycles"] = args.churn_cycles
    if args.churn_downtime is not None:
        if not 0.0 < args.churn_downtime < 1.0:
            raise SystemExit("--churn-downtime must be a fraction within (0, 1)")
        overrides["churn_downtime"] = args.churn_downtime
    if args.checkpoint_interval is not None:
        if args.checkpoint_interval < 0:
            raise SystemExit("--checkpoint-interval must be >= 0 (0 disables checkpoints)")
        overrides["churn_checkpoint_interval"] = args.checkpoint_interval
    if args.chaos_seed is not None:
        overrides["chaos_seed"] = args.chaos_seed
    if args.chaos_profile is not None:
        overrides["chaos_profile"] = args.chaos_profile
    if args.chaos_links is not None:
        if args.chaos_links < 12:
            raise SystemExit("--chaos-links must be >= 12")
        overrides["chaos_links"] = args.chaos_links
    if overrides:
        config = replace(config, **overrides)
    return config


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the requested experiments; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list or (not args.experiments and args.explain is None):
        print("Available experiments:")
        for name, entry in EXPERIMENTS.items():
            print(f"  {name:22s} {entry.description}")
        print("  all                    run every experiment above")
        return 0
    if args.explain_json is not None and args.explain is None:
        parser.error("--explain-json requires --explain")

    requested: List[str] = []
    for name in args.experiments:
        # ``fig11`` and friends are accepted as shorthand for ``figure11``.
        alias = re.sub(r"^fig(?=\d+$)", "figure", name)
        if name == "all":
            requested.extend(EXPERIMENTS)
        elif name in EXPERIMENTS:
            requested.append(name)
        elif alias in EXPERIMENTS:
            requested.append(alias)
        else:
            parser.error(f"unknown experiment {name!r}; use --list to see the choices")
    if not requested and args.explain is not None:
        requested = ["figure7"]

    config = _select_config(args)
    print(f"# configuration: {config.describe()}")
    if args.csv_dir is not None:
        args.csv_dir.mkdir(parents=True, exist_ok=True)

    tracer = None
    if args.trace is not None:
        tracer = Tracer()
    elif not args.no_flight:
        # The always-on flight recorder: bounded rings, dumped only when
        # something goes wrong (crash-purge, degradation, budget overrun,
        # harness error).
        tracer = Tracer(
            DEFAULT_RING_CAPACITY, dump_path=args.flight_dump or Path("flight_dump.json")
        )
    if tracer is not None:
        install_tracer(tracer)
    metrics_log = None
    if args.metrics_json is not None:
        metrics_log = MetricsLog()
        install_metrics_log(metrics_log)

    explanation = None
    try:
        try:
            if args.explain is not None:
                explanation = explain(config, args.explain, experiment=requested[0])
                print()
                print(explanation.render_text())
                if args.explain_json is not None:
                    args.explain_json.write_text(
                        json.dumps(explanation.as_json(), indent=2, sort_keys=True) + "\n"
                    )
                    print(f"(wrote explanation: {args.explain_json})")
            else:
                for name in requested:
                    span = None
                    if tracer is not None:
                        span = tracer.begin(HARNESS_PID, f"experiment:{name}", "harness")
                    try:
                        rows = run(name, config)
                    finally:
                        if span is not None:
                            tracer.end(span)
                    print()
                    print(format_rows(rows, title=f"{name}: {EXPERIMENTS[name].description}"))
                    if args.csv_dir is not None:
                        target = args.csv_dir / f"{name}.csv"
                        target.write_text(rows_to_csv(rows))
                        print(f"(wrote {target})")
        except BaseException as exc:
            dumped = maybe_dump_flight(f"harness: {type(exc).__name__}: {exc}")
            if dumped is not None:
                print(f"(flight recorder dumped to {dumped})", file=sys.stderr)
            raise
    finally:
        if tracer is not None:
            install_tracer(None)
        if args.trace is not None:
            tracer.write(args.trace)
            print(f"(wrote trace: {args.trace}, {tracer.retained_records()} events)")
        if metrics_log is not None:
            install_metrics_log(None)
            write_metrics_json(metrics_log, args.metrics_json)
            print(
                f"(wrote metrics: {args.metrics_json}, "
                f"{len(metrics_log.records)} snapshots)"
            )
    if explanation is not None and args.trace is not None:
        injected = inject_explain_flows(explanation, args.trace)
        if injected:
            print(f"(injected {injected} explain flow events into {args.trace})")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
