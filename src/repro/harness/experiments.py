"""The paper's evaluation (Section 7) as one table: :data:`EXPERIMENTS`.

Every experiment is an :class:`~repro.harness.runner.Experiment`: the plan it
runs, the schemes it compares, its row shape, and ``points(config)`` — the
sweep points, each carrying its row parameters, executor options and the
phases it applies.  :func:`run` hands an entry to the one runner
(:mod:`repro.harness.runner`), which builds the executors, applies the
configuration's knobs and turns phases into result rows carrying the paper's
four metrics:

* ``per_tuple_provenance_B`` — per-tuple provenance overhead (bytes),
* ``communication_MB`` — communication overhead (MB),
* ``state_MB`` — state within operators (MB),
* ``convergence_time_s`` — convergence time (simulated seconds).

Runs that exceed the configured per-phase byte, event or wall-clock budget
are reported with ``converged = False`` — the analogue of the paper's "did
not complete within 5 minutes" data points.
"""

from __future__ import annotations

import random
import tempfile
import time
from functools import partial
from typing import Callable, Dict, Iterator, List, Sequence

from repro.baselines.centralized import CentralizedRecursiveEvaluator
from repro.baselines.networkx_ref import reachable_pairs
from repro.bdd.expr import BoolExpr
from repro.chaos.executor import chaos_executor
from repro.chaos.parity import schedule_chaos, verify_process_parity, verify_sim_parity
from repro.chaos.plan import ChaosPlan
from repro.data.batch import BatchPolicy
from repro.engine.metrics import PhaseMetrics
from repro.engine.strategy import ExecutionStrategy
from repro.fault import RecoveryPolicy, fault_tolerant_executor
from repro.harness.config import DEFAULT_CONFIG, ExperimentConfig
from repro.harness.runner import (
    After,
    Experiment,
    Phase,
    Point,
    Row,
    batch_policy_for,
    build_executor_for,
    run_experiment,
    strategy_for,
)
from repro.net.latency import ClusterLatencyModel
from repro.net.simulator import SimulationError
from repro.placement import elastic_executor
from repro.queries.reachability import reachability_plan
from repro.queries.regions import region_plan
from repro.queries.shortest_path import AGGSEL_MULTI, AGGSEL_NONE, AGGSEL_SINGLE, shortest_path_plan
from repro.workloads.chaos import generate_chaos_workload
from repro.workloads.churn import generate_churn
from repro.workloads.hotspot import generate_hotspot
from repro.workloads.sensors import BaseDelta, SensorField, SensorWorkload
from repro.workloads.topology import TransitStubConfig, generate_topology, topology_with_link_budget
from repro.workloads.updates import UpdateSchedule, deletion_sample

#: Scheme sets compared in the paper's figures.
INSERTION_SCHEMES = (
    "DRed",
    "Relative Eager",
    "Relative Lazy",
    "Absorption Eager",
    "Absorption Lazy",
)
DELETION_SCHEMES = ("DRed", "Relative Lazy", "Absorption Eager", "Absorption Lazy")
#: The paper's Figures 9/10 also include Absorption Eager; at this
#: reproduction's pure-Python constants the eager scheme on the (dense)
#: sensor proximity graph exceeds any reasonable wall-clock budget, so the
#: default region sweep compares DRed with Absorption Lazy and the
#: eager-vs-lazy contrast is carried by the networking figures (7, 8, 11, 12).
REGION_SCHEMES = ("DRed", "Absorption Lazy")
SCALING_SCHEMES = ("Absorption Eager", "Absorption Lazy")
PROCESSOR_SCHEMES = ("DRed", "Absorption Lazy")
CHAOS_SCHEMES = ("Absorption Eager", "Absorption Lazy")
BATCH_SCHEMES = ("Absorption Lazy", "Absorption Eager")
MINSHIP_BATCH_SIZES = (1, 5, 25, 100)


def run(name: str, config: ExperimentConfig = DEFAULT_CONFIG) -> List[Row]:
    """Run the experiment ``name`` of :data:`EXPERIMENTS`; returns its result rows."""
    return run_experiment(name, EXPERIMENTS[name], config)


# ---------------------------------------------------------------------------
# Workload helpers
# ---------------------------------------------------------------------------

def _topology(config: ExperimentConfig, dense: bool = True):
    return generate_topology(
        TransitStubConfig(
            transit_nodes_per_domain=config.transit_nodes_per_domain,
            stubs_per_transit=config.stubs_per_transit,
            nodes_per_stub=config.nodes_per_stub,
            dense=dense,
            seed=config.seed,
        )
    )


def _sweep(axis: str, counter: str, label: str, ratios, batches, changes) -> List[Phase]:
    """One measured phase per ratio: ``changes(batch)`` are its base-data
    changes and ``counter`` is the running batch total."""
    phases: List[Phase] = []
    total = 0
    for ratio, batch in zip(ratios, batches):
        total += len(batch)
        phases.append(
            Phase(f"{label}@{ratio}", params={axis: ratio, counter: total}, **changes(batch))
        )
    return phases


def _sensors(config: ExperimentConfig):
    """The sensor workload, and its trigger order: seeds first (always
    triggered), then the other sensors in a seeded shuffle."""
    workload = SensorWorkload(
        SensorField.grid(
            side_metres=config.sensor_field_side,
            spacing_metres=config.sensor_spacing,
            proximity_radius=config.sensor_proximity_radius,
            seed_groups=config.sensor_seed_groups,
            rng_seed=config.seed,
        )
    )
    sensors = workload.field
    others = [s for s in sensors.sensor_ids if not sensors.is_seed(s)]
    random.Random(config.seed).shuffle(others)
    return workload, list(sensors.seed_sensors) + others


def _sensor_changes(delta: BaseDelta) -> Dict[str, Sequence]:
    """A trigger/untrigger delta as a phase's base-data changes."""
    return {
        "edge_inserts": delta.proximity_inserts,
        "edge_deletes": delta.proximity_deletes,
        "seed_inserts": delta.seed_inserts,
        "seed_deletes": delta.seed_deletes,
    }


def _scaling_points(config: ExperimentConfig, phases: Callable[[list], List[Phase]]):
    """Points per figure-11/12 link budget (dense, then sparse) and scheme."""
    for dense in (True, False):
        density = "Dense" if dense else "Sparse"
        seen_sizes: set = set()
        for budget in config.link_budgets:
            topology = topology_with_link_budget(budget, dense=dense, seed=config.seed)
            if topology.directed_link_count in seen_sizes:
                continue  # two budgets snapped to the same generatable topology
            seen_sizes.add(topology.directed_link_count)
            links = topology.link_tuples()
            for scheme in SCALING_SCHEMES:
                label = f"{scheme.split()[-1]} {density}"
                params = {"scheme": label, "links": len(links), "density": density.lower()}
                yield Point(params, phases(links), schemes=(scheme,))


def _view_check(truth) -> After:
    """Extras checking the final view against networkx ground truth."""
    return lambda executor, phase, detail: {
        "view_correct": executor.view_values() == truth,
        "view_size": phase.view_size,
    }


# ---------------------------------------------------------------------------
# Figures 7-14
# ---------------------------------------------------------------------------

def _figure7(config: ExperimentConfig) -> Iterator[Point]:
    links = _topology(config).link_tuples()
    batches = UpdateSchedule.staged_insertions(links, config.insertion_ratios).insert_batches
    yield Point(
        phases=_sweep(
            "insertion_ratio", "links", "insert", config.insertion_ratios, batches,
            lambda batch: {"edge_inserts": batch},
        )
    )


def _figure8(config: ExperimentConfig) -> Iterator[Point]:
    links = _topology(config).link_tuples()
    schedule = UpdateSchedule.insert_then_delete(
        links, 1.0, config.deletion_ratios, seed=config.seed
    )
    preload = Phase(
        "preload", schedule.insert_batches[0], params={"deletion_ratio": "preload"},
        measured=False,
    )
    yield Point(
        phases=[preload] + _sweep(
            "deletion_ratio", "deleted", "delete", config.deletion_ratios,
            schedule.delete_batches, lambda batch: {"edge_deletes": batch},
        )
    )


def _figure9(config: ExperimentConfig) -> Iterator[Point]:
    workload, order = _sensors(config)
    batches = UpdateSchedule.staged_insertions(order, config.insertion_ratios).insert_batches
    yield Point(
        phases=_sweep(
            "insertion_ratio", "triggered", "trigger", config.insertion_ratios, batches,
            lambda batch: _sensor_changes(workload.trigger_many(batch)),
        )
    )


def _figure10(config: ExperimentConfig) -> Iterator[Point]:
    workload, order = _sensors(config)
    preload = Phase(
        "preload", params={"deletion_ratio": "preload"}, measured=False,
        **_sensor_changes(workload.trigger_many(order)),
    )
    # Untrigger ordinary (non-seed) sensors in a deterministic shuffled order.
    untrigger_order = [s for s in order if not workload.field.is_seed(s)]
    random.Random(config.seed + 1).shuffle(untrigger_order)
    schedule = UpdateSchedule.staged_deletions(untrigger_order, config.deletion_ratios)
    yield Point(
        phases=[preload] + _sweep(
            "deletion_ratio", "untriggered", "untrigger", config.deletion_ratios,
            schedule.delete_batches,
            lambda batch: _sensor_changes(workload.untrigger_many(batch)),
        )
    )


def _figure11(config: ExperimentConfig) -> Iterator[Point]:
    return _scaling_points(config, lambda links: [Phase("insert", links)])


def _figure12(config: ExperimentConfig) -> Iterator[Point]:
    return _scaling_points(
        config,
        lambda links: [
            Phase("preload", links, measured=False),
            Phase("delete20", edge_deletes=deletion_sample(links, 0.2, seed=config.seed)),
        ],
    )


def _figure13(config: ExperimentConfig) -> Iterator[Point]:
    links = _topology(config).link_tuples()
    deletions = deletion_sample(links, 0.2, seed=config.seed)
    for processors in config.processor_counts:
        per_node = lambda executor, phase, detail, processors=processors: {  # noqa: E731
            "per_node_communication_MB": round(
                executor.metrics.total_communication_mb / processors, 6
            ),
            "per_node_state_MB": round(phase.state_mb / processors, 6),
            "view_size": phase.view_size,
        }
        yield Point(
            {"processors": processors},
            [Phase("insert", links), Phase("delete20", edge_deletes=deletions, after=per_node)],
            options={"node_count": processors},
        )


def _figure14(config: ExperimentConfig) -> Iterator[Point]:
    modes = (
        ("Multi AggSel", AGGSEL_MULTI),
        ("Single AggSel", AGGSEL_SINGLE),
        ("No AggSel", AGGSEL_NONE),
    )
    for dense in (True, False):
        links = _topology(config, dense=dense).cost_link_tuples()
        for name, mode in modes:
            yield Point(
                {"scheme": name, "density": "dense" if dense else "sparse", "links": len(links)},
                [Phase("insert", links)],
                plan=shortest_path_plan(
                    aggregate_selection=mode,
                    max_hops=config.path_hop_bound if mode == AGGSEL_NONE else None,
                ),
            )


# ---------------------------------------------------------------------------
# Churn: node crashes mid-workload, compared across recovery policies
# ---------------------------------------------------------------------------

def _churn(config: ExperimentConfig) -> Iterator[Point]:
    """Crash/recover nodes mid-insertion-stream and compare recovery policies.

    A failure-free run of the insertion workload establishes the convergence
    horizon and the communication baseline; the same workload is then re-run
    with a seeded churn scenario (``config.churn_cycles`` crash/recover pairs
    scaled onto that horizon) under each recovery policy.  Every row reports
    the paper's convergence-time and bytes-shipped metrics plus whether the
    final view still equals the networkx ground truth.
    """
    links = _topology(config).link_tuples()
    checked = _view_check(reachable_pairs((link["src"], link["dst"]) for link in links))
    fault_tolerant = {"kind": fault_tolerant_executor}
    baseline = Point(
        {"policy": "no-failure", "crashes": 0},
        [Phase("insert", links, after=checked)],
        # No crashes: the log is never replayed.
        options={**fault_tolerant, "checkpoint_interval": 0, "retain_wal_entries": False},
    )
    yield baseline
    if baseline.result is None:
        return
    scenario = generate_churn(
        node_count=config.node_count, cycles=config.churn_cycles,
        downtime=config.churn_downtime, seed=config.seed,
    ).scaled(baseline.result[0].convergence_time_s)

    def recovered(executor, phase: PhaseMetrics, detail: List[Row]) -> Row:
        stats = executor.fault_stats()
        return {
            **checked(executor, phase, detail),
            "wal_entries": stats["wal_entries"],
            "checkpoints": stats["checkpoints_taken"],
            "checkpoint_KB": round(stats["checkpoint_bytes"] / 1000.0, 1),
            "dropped_messages": stats["dropped_messages"],
        }

    for policy, interval in (
        (RecoveryPolicy.CHECKPOINT_REPLAY, config.churn_checkpoint_interval),
        (RecoveryPolicy.PROVENANCE_PURGE, 0),
    ):
        yield Point(
            {"policy": policy.value, "crashes": scenario.crash_count},
            [Phase("insert", links, before=scenario.apply, after=recovered)],
            options={**fault_tolerant, "recovery_policy": policy, "checkpoint_interval": interval},
        )


# ---------------------------------------------------------------------------
# Elastic: scale a running cluster from N to 2N processors (and back down)
# ---------------------------------------------------------------------------

def _per_node_rows(executor, stage: str) -> List[Row]:
    """Per-node traffic/state rows for the current phase (the skew view)."""
    state = executor.per_node_state_bytes()
    rows: List[Row] = []
    for entry in executor.network.stats.per_node_rows():
        node = entry["node"]
        if not executor.network.is_active(node):
            continue
        row: Row = {"figure": "elastic", "scheme": executor.strategy.label, "stage": stage}
        row.update(entry)
        row["state_KB"] = round(state.get(node, 0) / 1000.0, 2)
        rows.append(row)
    return rows


def _placement_columns(executor, since: Dict[str, object]) -> Row:
    """Placement costs accrued since the ``since`` snapshot of ``placement_stats``."""
    stats = executor.placement_stats()
    moved = stats["moved_state_bytes"] - since.get("moved_state_bytes", 0)
    return {
        "moved_state_KB": round(moved / 1000.0, 2),
        "misrouted_batches": stats["misrouted_batches"] - since.get("misrouted_batches", 0),
        "misrouted_updates": stats["misrouted_updates"] - since.get("misrouted_updates", 0),
        "stale_epoch_messages": executor.network.stats.stale_epoch_messages,
        "epoch": stats["epoch"],
    }


def _elastic(config: ExperimentConfig) -> Iterator[Point]:
    """Scale a *running* cluster from N to 2N processors and back down.

    Extends Figure 13 from static comparison to dynamic scaling: two static
    reference runs (N and 2N processors) bracket an elastic run that starts
    at N processors, admits N more spread across the insertion stream
    (consistent-hash migration moving ≈ 1/(N+1) of the state per join), runs
    a load-aware rebalance against the hotspot skew, and decommissions the
    added processors again spread across the deletion stream.  The elastic
    rows additionally report the placement subsystem's own costs: moved
    state bytes (checkpoint-codec measured) and misrouted batches (stale-
    epoch deliveries bounced to the current owner).  ``config.per_node``
    adds per-node traffic/state rows before and after the rebalance so the
    hotspot skew is visible.
    """
    workload = generate_hotspot(
        spokes=config.hotspot_spokes, hubs=config.hotspot_hubs, hub_bias=config.hotspot_bias,
        extra_links=config.hotspot_extra_links, seed=config.seed,
    )
    links = workload.link_tuples()
    deletions = deletion_sample(links, config.elastic_deletion_ratio, seed=config.seed)
    deleted = set(deletions)
    inserted_check = _view_check(reachable_pairs(workload.edge_pairs()))
    remaining_check = _view_check(
        reachable_pairs((l["src"], l["dst"]) for l in links if l not in deleted)
    )
    n = config.node_count
    # Static reference points (the figure-13-style endpoints).
    static = [
        Point(
            {"phase": "static", "processors": str(processors)},
            [
                Phase("insert", links),
                Phase("delete", edge_deletes=deletions, after=remaining_check),
            ],
            options={"node_count": processors},
        )
        for processors in (n, 2 * n)
    ]
    yield from static
    if static[0].result is None:
        return
    insert_horizon, delete_horizon = (p.convergence_time_s for p in static[0].result)
    spread = [0.15 + 0.6 * index / max(n - 1, 1) for index in range(n)]
    scaled_out: Dict[str, object] = {}

    def scale_out(executor) -> None:
        for fraction in spread:
            executor.schedule_add_node(insert_horizon * fraction)

    def rebalance(executor, phase: PhaseMetrics, detail: List[Row]) -> Row:
        if config.per_node:
            detail.extend(_per_node_rows(executor, "before-rebalance"))
        rebalanced = executor.rebalance() is not None
        if config.per_node:
            detail.extend(_per_node_rows(executor, "after-rebalance"))
        scaled_out.update(executor.placement_stats())
        return {
            **inserted_check(executor, phase, detail),
            **_placement_columns(executor, {}),
            "rebalanced": rebalanced,
        }

    def scale_in(executor) -> None:
        start = executor.network.now
        for index, fraction in enumerate(spread):
            at_time = start + (delete_horizon or insert_horizon) * fraction
            executor.schedule_remove_node(n + index, at_time)

    def scaled_in(executor, phase: PhaseMetrics, detail: List[Row]) -> Row:
        if config.per_node:
            detail.extend(_per_node_rows(executor, "after-scale-in"))
        return {
            **remaining_check(executor, phase, detail),
            **_placement_columns(executor, scaled_out),
        }

    yield Point(
        phases=[
            Phase(
                "scale-out", links, params={"phase": "scale-out", "processors": f"{n}->{2 * n}"},
                before=scale_out, after=rebalance,
            ),
            Phase(
                "scale-in", edge_deletes=deletions,
                params={"phase": "scale-in", "processors": f"{2 * n}->{n}"},
                before=scale_in, after=scaled_in,
            ),
        ],
        options={
            "kind": elastic_executor,
            "virtual_nodes": config.virtual_nodes,
            # Same two-cluster latency shape as the static 2N reference run, so
            # admitted processors join the primary cluster rather than paying
            # the inter-cluster penalty the static comparison does not pay.
            "latency_model": ClusterLatencyModel(primary_cluster_size=min(2 * n, 16)),
        },
        rows="phase",
        provenance="last",
    )


# ---------------------------------------------------------------------------
# Chaos: the full fault plane, gated by parity against a fault-free reference
# ---------------------------------------------------------------------------

def _parity(verify, chaos_plan, workload, config, scheme, row: Row, **options) -> Row:
    """A parity row: the chaos run must converge to the fault-free reference."""
    try:
        report = verify(
            reachability_plan(), strategy_for(scheme, config), chaos_plan, workload,
            node_count=config.node_count, max_events=config.max_events,
            batch_policy=batch_policy_for(config), **options,
        )
    except SimulationError as exc:  # a budget overrun, or a worker lost for good
        row.update({"parity_passed": False, "converged": False, "error": str(exc)})
        return row
    row.update(report.as_row())
    return row


def _process_parity(chaos_plan, workload, config, scheme, row: Row) -> Row:
    """Real SIGKILLs on the process backend; killed workers replay their WALs."""
    with tempfile.TemporaryDirectory(prefix="chaos-wal-") as wal_dir:
        return _parity(
            verify_process_parity, chaos_plan, workload, config, scheme, row,
            wal_dir=wal_dir, workers=config.workers or 3,
        )


def _degraded_rows(executor, row: Row) -> List[Row]:
    """The graceful-degradation row: budget exhaustion serves stale views."""
    view, staleness = executor.view_with_staleness()
    row.update(executor.chaos_stats())
    row.update(
        {
            "parity_passed": "(n/a: degraded by design)",
            "view_size": len(view),
            "stale_partitions": len(staleness),
            "stale_since": [round(info.since, 4) for info in staleness.values()],
            "converged": True,
        }
    )
    return [row]


def _chaos(config: ExperimentConfig) -> Iterator[Point]:
    """The combined chaos workload, verified against a fault-free reference.

    One power-law (preferential-attachment) reachability workload — bulk
    insert, hub-skewed mixed churn, deletion storm — is run three ways:

    * **sim parity rows** (one per scheme): the configured chaos profile
      (link faults + crash storms + doomed recoveries + scaling storms) on
      the :class:`~repro.chaos.executor.ChaosExecutor`, asserted bit-identical
      (final view *and* canonical provenance) to a fault-free run;
    * **process parity row**: the ``kill`` profile — real worker SIGKILLs at
      virtual-time points plus link chaos — on the process backend, compared
      against the same fault-free sim reference;
    * **degraded row**: the ``degraded`` profile, whose recovery failures
      exceed the supervisor budget on purpose; the row shows the run
      *finishing* with stale-tagged views instead of crashing.
    """
    workload = generate_chaos_workload(config.chaos_links, seed=config.chaos_seed)
    profile = partial(ChaosPlan.profile, seed=config.chaos_seed)
    sim = {"backend": "sim", "links": workload.total_links}
    first = CHAOS_SCHEMES[:1]
    sim_parity = partial(_parity, verify_sim_parity, profile(config.chaos_profile), workload)
    yield Point(sim, step=sim_parity)
    yield Point(
        {"backend": "process", "links": workload.total_links},
        schemes=first,
        step=partial(_process_parity, profile("kill"), workload),
    )
    # Degradation needs no reference horizon; scale the storm onto a guess
    # (the workload converges well past it either way).
    degraded = profile("degraded")
    storm = partial(schedule_chaos, chaos_plan=degraded, horizon=1.0)
    phases = [
        Phase(label, inserts, deletes, before=storm if index == 0 else None)
        for index, (label, inserts, deletes) in enumerate(workload.phases())
    ]
    options = {"kind": chaos_executor, "chaos_plan": degraded}
    yield Point(sim, phases, options=options, schemes=first, rows=_degraded_rows)


# ---------------------------------------------------------------------------
# Ablations and the batch-throughput comparison (beyond the paper's figures)
# ---------------------------------------------------------------------------

def _ablation_minship(config: ExperimentConfig) -> Iterator[Point]:
    """How the MinShip batching window trades bandwidth against freshness (Section 5)."""
    links = _topology(config).link_tuples()
    for batch_size in MINSHIP_BATCH_SIZES:
        yield Point(
            {"batch_size": batch_size},
            [Phase("insert", links, after=lambda executor, phase, detail: {})],
            schemes=(ExecutionStrategy.absorption_eager(batch_size=batch_size),),
        )


def _encoding_rows(executor, row: Row) -> List[Row]:
    """BDD vs minimised sum-of-products encoding sizes for the same provenance."""
    bdd_total = dnf_total = tuples = 0
    for node in executor.nodes:
        for view_tuple in node.fixpoint.view_tuples():
            annotation = node.fixpoint.annotation_of(view_tuple)
            bdd_total += annotation.size_bytes()
            dnf_total += BoolExpr.from_products(annotation.iter_products()).size_bytes()
            tuples += 1
    return [
        {
            "figure": row["figure"],
            "encoding": encoding,
            "tuples": tuples,
            "total_KB": round(total / 1000.0, 3),
            "mean_per_tuple_B": round(total / max(tuples, 1), 2),
        }
        for encoding, total in (
            ("BDD (reduced ordered)", bdd_total),
            ("minimised sum-of-products", dnf_total),
        )
    ]


def _ablation_encoding(config: ExperimentConfig) -> Iterator[Point]:
    yield Point(phases=[Phase("insert", _topology(config).link_tuples())])


def _centralized_rows(executor, row: Row) -> List[Row]:
    """Distributed incremental maintenance vs centralized recomputation per deletion."""
    phase = executor.metrics.phases[-1]
    start = time.perf_counter()
    recomputed = CentralizedRecursiveEvaluator(executor.plan).evaluate(executor.live_edges)
    recompute_wall = time.perf_counter() - start
    assert {t.values for t in recomputed} == executor.view_values()

    def approach(name, communication_mb, convergence_s, wall_seconds, view_size) -> Row:
        return {
            "figure": row["figure"],
            "approach": name,
            "deletions": row["deletions"],
            "communication_MB": communication_mb,
            "convergence_time_s": convergence_s,
            "wall_seconds": round(wall_seconds, 3),
            "view_size": view_size,
        }

    return [
        approach(
            f"distributed incremental ({row['scheme']})", round(phase.communication_mb, 6),
            round(phase.convergence_time_s, 6), phase.wall_seconds, phase.view_size,
        ),
        approach(
            "centralized recompute from scratch", 0.0, float("nan"), recompute_wall,
            len(recomputed),
        ),
    ]


def _ablation_centralized(config: ExperimentConfig) -> Iterator[Point]:
    links = _topology(config).link_tuples()
    deletions = deletion_sample(links, 0.2, seed=config.seed)
    yield Point(
        {"deletions": len(deletions)},
        [Phase("preload", links, measured=False), Phase("delete", edge_deletes=deletions)],
    )


def _throughput_columns(before: Dict[str, object], executor, phase, detail) -> Row:
    after = executor.store.cache_stats()
    stats = executor.network.stats
    return {
        "bdd_apply_ops": (after["apply_calls"] - before["apply_calls"])
        + (after["restrict_calls"] - before["restrict_calls"]),
        "purge_messages": stats.message_counts_by_port.get("purge", 0),
        "messages": stats.total_messages,
        "coalesced_deliveries": executor.network.coalesced_deliveries,
        "wall_seconds": round(sum(p.wall_seconds for p in executor.metrics.phases), 3),
        "view_size": phase.view_size,
    }


def _batch_throughput(config: ExperimentConfig) -> Iterator[Point]:
    """Batch-first pipeline vs tuple-at-a-time on the figure-11/12 workload.

    Runs each scheme twice over the largest figure-11/12 dense topology —
    once with the configured batch policy, once with the historical
    one-update-per-message pipeline — inserting every link (the figure-11
    workload) and then deleting ``config.batch_deletion_ratio`` of them (the
    figure-12 topology at a figure-8-style deletion ratio).  Reported per
    run, for the *deletion* phase (the maintenance phase figure 12 reports):

    * ``bdd_apply_ops`` — BDD apply work: binary-apply plus restriction
      steps performed by the shared manager (restriction is the
      zero-out-the-variable apply of Section 4);
    * ``purge_messages`` — purge-port wire messages (the broadcast
      deletion traffic batching coalesces);
    * ``messages`` / ``communication_MB`` / ``wall_seconds`` / ``view_size``.

    The paired rows are what the batch-throughput benchmark asserts over:
    >= 2x fewer BDD apply ops and purge messages with batching on, with
    identical final views.
    """
    budget = max(config.link_budgets)
    links = topology_with_link_budget(budget, dense=True, seed=config.seed).link_tuples()
    deletions = deletion_sample(links, config.batch_deletion_ratio, seed=config.seed)
    pipelines = (
        ("batched", {}),
        ("tuple-at-a-time", {"batch_policy": BatchPolicy.tuple_at_a_time()}),
    )
    for scheme in BATCH_SCHEMES:
        for pipeline, options in pipelines:
            before: Dict[str, object] = {}
            delete = Phase(
                "delete", edge_deletes=deletions,
                before=lambda executor, before=before: before.update(executor.store.cache_stats()),
                after=partial(_throughput_columns, before),
            )
            yield Point(
                {"pipeline": pipeline, "links": len(links), "deletions": len(deletions)},
                [Phase("preload", links, measured=False), delete],
                options=options,
                schemes=(scheme,),
            )


# ---------------------------------------------------------------------------
# The table
# ---------------------------------------------------------------------------

#: Every experiment the harness runs, in ``all`` order.
EXPERIMENTS: Dict[str, Experiment] = {
    "figure7": Experiment(
        "reachable view, insertion-ratio sweep", _figure7, INSERTION_SCHEMES,
        rows="cumulative", provenance="run", explainable=True,
    ),
    "figure8": Experiment(
        "reachable view, deletion-ratio sweep", _figure8, DELETION_SCHEMES,
        rows="cumulative", explainable=True,
    ),
    "figure9": Experiment(
        "region query, insertion-ratio sweep", _figure9, REGION_SCHEMES,
        plan=region_plan, rows="cumulative", provenance="run",
    ),
    "figure10": Experiment(
        "region query, deletion-ratio sweep", _figure10, REGION_SCHEMES,
        plan=region_plan, rows="cumulative",
    ),
    "figure11": Experiment(
        "scaling links, insertions (dense vs sparse)", _figure11, SCALING_SCHEMES,
        explainable=True,
    ),
    "figure12": Experiment(
        "scaling links, deleting 20% (dense vs sparse)", _figure12, SCALING_SCHEMES,
        explainable=True,
    ),
    "figure13": Experiment(
        "scaling query-processor nodes", _figure13, PROCESSOR_SCHEMES,
        provenance="run", explainable=True,
    ),
    "figure14": Experiment(
        "aggregate selections on the path query", _figure14, ("Absorption Lazy",),
        plan=shortest_path_plan,
    ),
    "churn": Experiment(
        "node crashes mid-stream: recovery-policy comparison", _churn, ("Absorption Lazy",),
    ),
    "chaos": Experiment(
        "seeded fault injection (links, storms, kills) gated by parity", _chaos, CHAOS_SCHEMES,
    ),
    "batch-throughput": Experiment(
        "batch-first pipeline vs tuple-at-a-time (BDD ops, purge messages)",
        _batch_throughput, BATCH_SCHEMES,
    ),
    "elastic": Experiment(
        "scale a running cluster N -> 2N -> N mid-stream (moved state, misroutes)",
        _elastic, ("Absorption Eager",), provenance="run",
    ),
    "ablation-minship": Experiment("MinShip batch-size sweep", _ablation_minship),
    "ablation-encoding": Experiment(
        "BDD vs sum-of-products provenance encoding", _ablation_encoding,
        ("Absorption Lazy",), rows=_encoding_rows,
    ),
    "ablation-centralized": Experiment(
        "distributed incremental vs centralized recompute", _ablation_centralized,
        ("Absorption Lazy",), rows=_centralized_rows,
    ),
}


# ---------------------------------------------------------------------------
# Explain: derivation provenance of one view tuple (the --explain path)
# ---------------------------------------------------------------------------

def explain(
    config: ExperimentConfig = DEFAULT_CONFIG,
    target: str = "auto",
    experiment: str = "figure7",
    scheme: str = "Absorption Lazy",
):
    """Load an experiment's insertion workload and explain one view tuple.

    Rebuilds the experiment's (seeded, deterministic) dense topology, runs the
    full insertion phase under ``scheme``, and returns the
    :class:`~repro.obs.explain.Explanation` of ``target`` — a
    ``"relation(arg, ...)"`` string, or ``"auto"`` for the lexicographically
    first view tuple (handy for smoke tests).  Works on whichever backend the
    config selects; the process backend aggregates per-worker answers.
    """
    entry = EXPERIMENTS.get(experiment)
    if entry is None or not entry.explainable:
        explainable = sorted(name for name, e in EXPERIMENTS.items() if e.explainable)
        raise SystemExit(f"--explain supports {explainable}; got {experiment!r}")
    executor = build_executor_for(config, entry.plan(), scheme, experiment)
    try:
        executor.apply_mixed(_topology(config).link_tuples(), label="explain-load")
        if target == "auto":
            view = executor.view()
            if not view:
                raise SystemExit("the view is empty; nothing to explain")
            target = min(view, key=lambda t: t.key)
        return executor.explain(target)
    finally:
        executor.close()
