"""One workload, measured inside its own interpreter (started by ``run.py``).

Repeats the workload on a fresh executor until ``--seconds`` of timed work
(and at least ``MIN_REPS`` repetitions) are done, checks every phase against
its oracle *outside* the timed region, optionally adds one traced repetition,
and prints a single JSON line with every metric it measured.

The engine is driven only through its public surface: ``build_executor``,
``apply_mixed``, ``view_values``, ``store.cache_stats()``, ``PhaseMetrics``,
``metrics_registry`` and ``network.events_processed``.
"""

from __future__ import annotations

import time

_STARTED = time.monotonic()

import argparse
import json
import os
import resource
import statistics
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

import tracing
from repro.data.batch import BatchPolicy
from repro.engine.metrics import ExperimentMetrics
from repro.queries import build_executor
from workloads import MAX_BATCH, NODE_COUNT, WORKLOADS, Inputs, Phase, Workload

_IMPORTED = time.monotonic()

#: Set (by the traced repetition only) while process-backend workers spawn.
TRACE_WORKERS_ENV = "REPRO_BENCH_TRACE_WORKERS"
if __name__ == "__mp_main__" and os.environ.get(TRACE_WORKERS_ENV):
    # A spawned worker re-imports its parent's main module under this name
    # before it runs ``worker_main``; it is the one hook through which the
    # benchmark can trace code that only ever executes inside a worker.
    tracing.install_in_worker()

MIN_REPS = 3
#: Inputs of the reference repetition (``run.py``'s default ``--seed``).
REFERENCE_SEED = 7
#: Host-speed probe: calls made before and again after each timed region, and
#: what one call takes on the box the bounds were measured on.
PROBE_CALLS = 8
PROBE_REFERENCE_S = 0.021
#: Wall budget of one phase (``max_wall_seconds``); an overrun is a failed op.
PHASE_BUDGET_S = 60.0
#: Byte telemetry legitimately differs between the backends (each worker's
#: BDD manager has its own variable order); everything else must be equal.
TWIN_BYTE_TOLERANCE = 0.10


@dataclass
class Tally:
    """Operations attempted / failed, with one message per failure."""

    attempted: int = 0
    failed: int = 0
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


class RepAborted(Exception):
    """A phase raised: the executor's state is unknown, the repetition ends."""


def _probe_once() -> float:
    """Seconds one fixed, allocation-free burst of interpreter work takes now."""
    table: Dict[int, int] = {}
    get = table.get
    total = 0
    start = time.perf_counter()
    for i in range(200000):
        table[i & 4095] = total
        total += get((i * 7) & 4095, 0) & 1023
    return time.perf_counter() - start


def host_probe() -> List[float]:
    return [_probe_once() for _ in range(PROBE_CALLS)]


def _apply(executor, phase: Phase, tally: Tally, span, inject_failure: Optional[str]):
    """Run one phase to quiescence, then oracle-check it outside the timers.

    Returns ``(PhaseMetrics, wall seconds, CPU seconds of this process,
    seconds spent checking)``.
    """
    tally.attempted += 1
    try:
        with span(f"phase:{phase.label}"):
            cpu_start = time.process_time()
            wall_start = time.perf_counter()
            if phase.label == inject_failure:
                raise RuntimeError("injected phase failure")
            metrics = executor.apply_mixed(label=phase.label, **phase.changes)
            wall = time.perf_counter() - wall_start
            cpu = time.process_time() - cpu_start
        check_start = time.perf_counter()
        view = executor.view_values()
    except Exception as exc:  # boundary: budget overruns, worker deaths, handler crashes
        tally.fail(f"{phase.label}: {type(exc).__name__}: {exc}")
        raise RepAborted from exc
    expected = phase.expected()
    if view != expected:
        tally.fail(
            f"{phase.label}: view differs from oracle "
            f"({len(expected - view)} missing, {len(view - expected)} unexpected)"
        )
    return metrics, wall, cpu, time.perf_counter() - check_start


def run_rep(
    workload: Workload,
    inputs_for: Callable[[], Inputs],
    tally: Tally,
    recorder: Optional[tracing.Recorder] = None,
    inject_failure: Optional[str] = None,
) -> Dict[str, object]:
    """One repetition on a fresh executor; returns its raw numbers by metric name."""
    span = recorder.span if recorder is not None else (lambda name: nullcontext())
    children_before = resource.getrusage(resource.RUSAGE_CHILDREN)
    setup_start = time.perf_counter()
    inputs = inputs_for()
    spawn_start = time.perf_counter()
    executor = build_executor(
        inputs.plan,
        workload.strategy,
        node_count=NODE_COUNT,
        batch_policy=BatchPolicy(max_batch=MAX_BATCH),
        max_wall_seconds=PHASE_BUDGET_S,
        backend=workload.backend,
        workers=workload.workers,
    )
    try:
        if workload.backend == "process":
            executor.view()  # readiness barrier: every worker has booted and answered
        spawn_s = time.perf_counter() - spawn_start
        preload_check_s = sum(
            _apply(executor, phase, tally, span, inject_failure)[3]
            for phase in inputs.preload
        )
        setup_s = time.perf_counter() - setup_start - preload_check_s
        registry_before = executor.metrics_registry.snapshot()
        cache_before = tracing.cache_counters(executor.store)
        events_before = executor.network.events_processed
        phases, raw_wall_s, cpu_s = [], 0.0, 0.0
        probes = host_probe()
        for phase in inputs.timed:
            metrics, wall, cpu, _ = _apply(executor, phase, tally, span, inject_failure)
            phases.append((phase, metrics))
            raw_wall_s += wall
            cpu_s += cpu
        probes += host_probe()
        registry = executor.metrics_registry.snapshot()
        cache = tracing.cache_counters(executor.store)
        events = executor.network.events_processed - events_before
    finally:
        executor.close()
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    delta = executor.metrics_registry.delta(registry_before, registry)
    # On the process backend the coordinator has no manager of its own; traced
    # workers report theirs through the ``bench`` probe (whole run).
    cache = {key: value - cache_before[key] for key, value in cache.items()} or {
        key.rpartition(".")[2]: value
        for key, value in registry.items()
        if key.startswith("workers.bench.") and key.count(".") == 2
    }
    apply_lookups = cache.get("apply_hits", 0) + cache.get("apply_misses", 0)
    keys_routed = delta.get("routing.keys_routed", 0)
    paper = ExperimentMetrics("bench", workload.strategy, phases=[m for _, m in phases])
    probe_s = statistics.median(probes)
    handler_s = delta.get("net.handler_seconds", 0.0)
    kernel_s = delta.get("kernel.kernel_time_s", 0.0)
    gc_pause_s = delta.get("kernel.gc_pause_s", 0.0)
    routing_s = delta.get("routing.seconds", 0.0)
    busy = [
        value
        for key, value in delta.items()
        if key.startswith("workers.w") and key.endswith(".work.busy_seconds")
    ]
    return {
        "registry": registry,
        # The box's speed drifts by +-13 % over tens of seconds; the probe taken
        # around this very repetition scales its wall to reference speed.
        "wall_s": raw_wall_s * PROBE_REFERENCE_S / probe_s,
        "engine.raw_wall_s": raw_wall_s,
        "host.probe_s": probe_s,
        "setup_s": setup_s,
        "base_tuples": sum(phase.base_tuples for phase, _ in phases),
        "convergence_vsec": paper.total_convergence_time_s,
        "communication_mb": paper.total_communication_mb,
        "state_mb": paper.final_state_mb,
        "provenance.bytes_per_tuple": paper.mean_per_tuple_provenance_bytes,
        "engine.insert_wall_s": sum(
            m.wall_seconds for phase, m in phases if phase.kind == "insert"
        ),
        "engine.delete_wall_s": sum(
            m.wall_seconds for phase, m in phases if phase.kind == "delete"
        ),
        "engine.phase_max_s": max(m.wall_seconds for _, m in phases),
        "bdd.kernel_time_s": kernel_s,
        "bdd.gc_pause_s": gc_pause_s,
        "bdd.gc_passes": delta.get("kernel.gc_passes", 0),
        "bdd.gc_compactions": delta.get("kernel.gc_compactions", 0),
        "bdd.nodes_reclaimed": delta.get("kernel.nodes_reclaimed", 0),
        "bdd.peak_table_size": registry.get("kernel.peak_table_size", 0),
        "bdd.apply_calls": cache.get("apply_calls", 0),
        "bdd.restrict_calls": cache.get("restrict_calls", 0),
        "bdd.apply_cache_hit_ratio": (
            cache["apply_hits"] / apply_lookups if apply_lookups else 0.0
        ),
        "bdd.cache_evictions": cache.get("cache_evictions", 0),
        "engine.routing_time_s": routing_s,
        "engine.routing_bulk_lookups": delta.get("routing.bulk_lookups", 0),
        "engine.routing_cache_hit_ratio": (
            delta.get("routing.lookup_cache_hits", 0) / keys_routed if keys_routed else 0.0
        ),
        # The executor's own four-way split of phase wall (``KernelPhaseStats``),
        # taken from the registry so that kernel-less DRed gets one too.
        "operators.operator_time_s": handler_s - kernel_s - gc_pause_s - routing_s,
        "net.net_time_s": sum(m.wall_seconds for _, m in phases) - handler_s,
        "net.events": events,
        "net.messages": sum(m.messages for _, m in phases),
        "net.updates_shipped": sum(m.updates_shipped for _, m in phases),
        "parallel.worker_busy_s.max": max(busy, default=0.0),
        "parallel.worker_busy_s.min": min(busy, default=0.0),
        "parallel.worker_cpu_s": (
            children.ru_utime + children.ru_stime
            - children_before.ru_utime - children_before.ru_stime
        ),
        "parallel.coordinator_cpu_s": cpu_s,
        "parallel.coordinator_idle_s": raw_wall_s - cpu_s,
        "parallel.spawn_s": spawn_s,
    }


#: Numbers that depend only on the inputs: every repetition must agree exactly.
EXACT = (
    "convergence_vsec", "communication_mb", "state_mb", "provenance.bytes_per_tuple",
    "net.events", "net.messages", "net.updates_shipped", "bdd.apply_calls",
)


def _traced_metrics(totals: Dict[str, Dict[str, float]]) -> Dict[str, float]:
    """The per-layer numbers only spans can give (see README § Per-layer metrics)."""
    zero = {"calls": 0, "dur_s": 0.0, "self_s": 0.0}

    def total(name: str, field_name: str) -> float:
        return totals.get(name, zero)[field_name]

    phase_dur = sum(e["dur_s"] for name, e in totals.items() if name.startswith("phase:"))
    phase_self = sum(e["self_s"] for name, e in totals.items() if name.startswith("phase:"))
    metrics = {
        "net.run_s": total("net.run", "dur_s"),
        "net.loop_self_s": total("net.run", "self_s"),
        "engine.handle_s": total("engine.handle", "dur_s"),
        "engine.handle_self_s": total("engine.handle", "self_s"),
        "engine.router_s": total("engine.router", "self_s"),
        "engine.dred_s": total("engine.dred", "self_s"),
        "engine.inject_collect_s": phase_dur - total("net.run", "dur_s"),
        "provenance.store_s": sum(
            entry["self_s"]
            for name, entry in totals.items()
            if name.startswith("provenance.") and name != "provenance.size_bytes"
        ),
        "provenance.disjoin_calls": total("provenance.disjoin", "calls")
        + total("provenance.disjoin_many", "calls"),
        "provenance.conjoin_calls": total("provenance.conjoin", "calls")
        + total("provenance.conjoin_many", "calls"),
        "provenance.remove_base_calls": total("provenance.remove_base", "calls"),
        "provenance.size_bytes_s": total("provenance.size_bytes", "self_s"),
        "provenance.size_bytes_calls": total("provenance.size_bytes", "calls"),
        "parallel.encode_s": total("parallel.encode", "self_s"),
        "parallel.decode_s": total("parallel.decode", "self_s"),
        "parallel.rpc_s": total("parallel.rpc", "dur_s"),
        "parallel.rpc_calls": total("parallel.rpc", "calls"),
        "trace.unattributed_share": phase_self / phase_dur if phase_dur else 0.0,
    }
    for operator in ("join", "fixpoint", "ship"):
        metrics[f"operators.{operator}_s"] = total(f"operators.{operator}", "self_s")
        metrics[f"operators.{operator}_calls"] = total(f"operators.{operator}", "calls")
    return metrics


def _check_twin(rep: Dict[str, object], twin: Dict[str, object], tally: Tally) -> None:
    """The process backend must reproduce its in-process twin (views are
    oracle-checked on both sides already)."""
    tally.attempted += 1
    problems = [
        f"{name} {rep[name]!r} != {twin[name]!r}"
        for name in ("net.events", "net.messages", "net.updates_shipped", "convergence_vsec")
        if rep[name] != twin[name]
    ] + [
        f"{name} {rep[name]!r} vs {twin[name]!r}"
        for name in ("communication_mb", "state_mb", "provenance.bytes_per_tuple")
        if abs(rep[name] - twin[name]) > TWIN_BYTE_TOLERANCE * twin[name]
    ]
    if problems:
        tally.fail("process backend differs from its sim twin: " + "; ".join(problems))


def _traced_pass(workload: Workload, inputs_for, tally: Tally, seed: int) -> Dict[str, float]:
    """One more repetition with the span wrappers installed; writes the trace file."""
    recorder = tracing.Recorder(only_inside_span=True)
    uninstall = tracing.install(recorder)
    os.environ[TRACE_WORKERS_ENV] = "1"
    try:
        traced = run_rep(workload, inputs_for, tally, recorder=recorder)
    finally:
        del os.environ[TRACE_WORKERS_ENV]
        uninstall()
    totals = recorder.totals()
    tracing.merge_totals(totals, traced["registry"], "workers.bench.")
    metrics = _traced_metrics(totals)
    metrics["traced_wall_s"] = traced["engine.raw_wall_s"]
    if workload.backend == "process":
        # Only traced workers can report their managers' work counters.
        for name in ("apply_calls", "restrict_calls", "apply_cache_hit_ratio", "cache_evictions"):
            metrics[f"bdd.{name}"] = traced[f"bdd.{name}"]
    out_dir = os.path.join(BENCH_DIR, "out")
    os.makedirs(out_dir, exist_ok=True)
    recorder.dump(
        os.path.join(out_dir, f"trace-{workload.name}.json"),
        {"workload": workload.name, "seed": seed, "totals": totals},
    )
    return metrics


def measure(args: argparse.Namespace, workload: Workload, tally: Tally):
    """All repetitions of one workload; returns ``(metrics, ranges, repetitions)``."""
    # The reference repetition: fixed inputs, untimed, first.  Memory and the
    # paper's three numbers are properties of the code at given inputs, and
    # across seeds they only pick up input variance (peak RSS flips between two
    # GC-trigger modes, 147 vs 210 MB on reach-lazy-churn) — so they are taken
    # here, where any change in them is a change in the engine.
    reference = run_rep(
        workload,
        lambda: workload.build(REFERENCE_SEED, args.quick),
        tally,
        inject_failure=args.inject_failure,
    )
    peak_rss_kb = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    )

    inputs_for = lambda: workload.build(args.seed, args.quick)  # noqa: E731
    reps: List[Dict[str, object]] = []
    while True:
        reps.append(run_rep(workload, inputs_for, tally, inject_failure=args.inject_failure))
        done_s = sum(rep["engine.raw_wall_s"] for rep in reps)
        if len(reps) >= (args.reps or MIN_REPS) and (args.reps or done_s >= args.seconds):
            break
    tally.attempted += 1
    for name in EXACT:
        values = {rep[name] for rep in reps}
        if len(values) > 1:
            tally.fail(f"repetitions disagree on {name}: {sorted(values)}")
            break

    metrics: Dict[str, float] = {}
    ranges: Dict[str, List[float]] = {}
    for name in reps[0]:
        if name not in ("registry", "base_tuples"):
            values = [rep[name] for rep in reps]
            metrics[name] = statistics.median(values)
            ranges[name] = [min(values), max(values)]
    startup_s = _IMPORTED - args.spawned_at  # interpreter start + imports, paid once
    metrics["setup_s"] += startup_s
    ranges["setup_s"] = [value + startup_s for value in ranges["setup_s"]]
    metrics["updates_per_s"] = reps[0]["base_tuples"] / metrics["wall_s"]
    metrics["peak_rss_mb"] = peak_rss_kb / 1024.0
    for name in ("convergence_vsec", "communication_mb", "state_mb"):
        metrics[name] = reference[name]
    metrics["parallel.sim_twin_wall_s"] = metrics["parallel.overhead_ratio"] = 0.0

    if workload.backend == "process":
        twin = run_rep(
            Workload(workload.name, workload.strategy, workload.build), inputs_for, tally
        )
        _check_twin(reps[0], twin, tally)
        metrics["parallel.sim_twin_wall_s"] = twin["engine.raw_wall_s"]
        metrics["parallel.overhead_ratio"] = (
            metrics["engine.raw_wall_s"] / twin["engine.raw_wall_s"]
        )
    if args.trace:
        metrics.update(_traced_pass(workload, inputs_for, tally, args.seed))
        metrics["trace.overhead_ratio"] = (
            metrics.pop("traced_wall_s") / metrics["engine.raw_wall_s"]
        )
    return metrics, ranges, len(reps)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--reps", type=int, default=0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--spawned-at", type=float, default=_STARTED)
    parser.add_argument("--inject-failure", default=None)
    args = parser.parse_args()

    tally = Tally()
    try:
        metrics, ranges, reps = measure(args, WORKLOADS[args.workload], tally)
    except RepAborted:
        metrics, ranges, reps = {}, {}, 0
    result = {
        "attempted": tally.attempted,
        "failed": tally.failed,
        "errors": tally.errors,
        "reps": reps,
        "metrics": metrics,
        "ranges": ranges,
    }
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
