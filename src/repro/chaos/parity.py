"""The parity harness: chaos runs must converge bit-identical to fault-free.

The chaos plane's whole design is *parity by masking*: every injected fault
(link drop/duplicate/reorder/extra-delay, node crash storms, worker SIGKILLs,
doomed recoveries and respawns, scaling storms) is absorbed by a mechanism —
reliable FIFO channels, WAL + checkpoints, sequence-number dedup, supervised
retry — whose contract is that the *converged* result does not change.  This
module is the gate on that contract:

1. run the workload on a **fault-free reference** executor (plain simulator,
   no chaos) and record the final view, the canonical eager provenance, and
   the virtual-time horizon ``T``;
2. run the *same* workload under the chaos plan — storms and kills laid out
   over ``T`` — on the backend under test;
3. assert the final :meth:`view` and :meth:`view_annotations` (canonical,
   manager-independent) are **equal**.  Timing, message counts and traces are
   explicitly out of scope: chaos changes *how* the run got there, never
   *where* it converged.

Views are compared for **every** strategy.  Annotations are compared only for
*eager* provenance strategies: lazy shipping coalesces deltas by flush timing,
so the set of alternative derivations a lazy run records (and, under
absorption, which of them survive) legitimately depends on arrival order —
its annotations are sound but not canonical across schedules.  Eager shipping
emits every derivation at derivation time, which is what makes its provenance
canonical and therefore a meaningful bit-identity gate (``annotations_compared``
on the report says which check ran).

Parity requires the ``checkpoint-replay`` recovery policy: provenance purge
intentionally bumps incarnation versions, so its annotations differ from a
fault-free run by design (the churn experiment measures that trade-off; this
gate does not).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.chaos.executor import ChaosExecutor, chaos_executor
from repro.chaos.interposer import ChaosInterposer
from repro.chaos.plan import ChaosPlan, ScalingStormSpec
from repro.chaos.supervisor import RetryPolicy
from repro.engine.strategy import ShipMode
from repro.fault.recovery import RecoveryPolicy
from repro.queries.builder import build_executor
from repro.workloads.chaos import ChaosWorkload

#: Wall-clock budget of one workload phase on every executor this harness
#: builds.  The gate's phases run in seconds; a phase still going after this
#: long has lost a reply or stopped converging, and must end in
#: ``SimulationBudgetExceeded`` (plus a flight dump) rather than wedge the
#: caller — the process coordinator only arms its wait deadline when the
#: executor has a budget.
PHASE_WALL_SECONDS = 300.0

#: How often a scheduled remove-node re-checks for its (possibly deferred)
#: add-node before giving up.  Bounded like every other chaos retry.
_REMOVE_RETRIES = 50


@dataclass
class ParityReport:
    """One chaos-vs-reference comparison, ready for a harness row."""

    backend: str  # "sim" or "process"
    scheme: str  # strategy label
    profile: str
    seed: int
    view_match: bool
    annotation_match: bool
    #: False when the strategy ships lazily (annotations are schedule-
    #: dependent by design, so only the view gate applies — see module doc).
    annotations_compared: bool
    view_size: int
    reference_view_size: int
    horizon: float
    phases: int
    #: Tuples only one side has (repr strings, capped) — mismatch forensics.
    missing_tuples: List[str] = field(default_factory=list)
    extra_tuples: List[str] = field(default_factory=list)
    chaos: Dict[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.view_match and self.annotation_match

    def as_row(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "backend": self.backend,
            "scheme": self.scheme,
            "chaos_profile": self.profile,
            "chaos_seed": self.seed,
            "parity_passed": self.passed,
            "view_match": self.view_match,
            "annotation_match": (
                self.annotation_match if self.annotations_compared
                else "(lazy: view-only)"
            ),
            "view_size": self.view_size,
            "reference_view_size": self.reference_view_size,
            "horizon_s": self.horizon,
            "phases": self.phases,
        }
        row.update(self.chaos)
        return row

    def __repr__(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"ParityReport({verdict} {self.backend}/{self.scheme} "
            f"profile={self.profile!r} seed={self.seed} "
            f"view={self.view_size}/{self.reference_view_size})"
        )


class ParityError(AssertionError):
    """Raised by :func:`assert_parity` when a chaos run diverged."""

    def __init__(self, report: ParityReport) -> None:
        details = []
        if not report.view_match:
            details.append(
                f"view mismatch ({report.view_size} vs "
                f"{report.reference_view_size} reference tuples; "
                f"missing={report.missing_tuples[:5]}, "
                f"extra={report.extra_tuples[:5]})"
            )
        if not report.annotation_match:
            details.append("canonical provenance annotations differ")
        super().__init__(f"chaos parity violated: {report!r}: " + "; ".join(details))
        self.report = report


def apply_workload(executor, workload: ChaosWorkload) -> int:
    """Run every workload phase on ``executor``; returns the phase count."""
    count = 0
    for label, inserts, deletes in workload.phases():
        executor.apply_mixed(edge_inserts=inserts, edge_deletes=deletes, label=label)
        count += 1
    return count


def run_reference(
    query_plan,
    strategy: str,
    workload: ChaosWorkload,
    node_count: int = 12,
    max_events: int = 5_000_000,
):
    """The fault-free baseline: ``(view, annotations, horizon, phases)``.

    Runs on the plain in-process simulator with the default latency model —
    the same topology every chaos run uses — so the recorded horizon ``T`` is
    the coordinate system the chaos plan's unit-interval schedules scale to.
    """
    executor = build_executor(
        query_plan, strategy, node_count=node_count,
        max_events=max_events, max_wall_seconds=PHASE_WALL_SECONDS,
        experiment="chaos-reference",
    )
    phases = apply_workload(executor, workload)
    return (
        executor.view(),
        executor.view_annotations(),
        executor.network.now,
        phases,
    )


def _annotations_comparable(strategy) -> bool:
    """Annotation bit-identity is only well-defined for eager provenance."""
    return (
        strategy.provenance_kind != "none"
        and strategy.ship_mode is ShipMode.EAGER
    )


def _compare(reference_view, reference_annotations, executor) -> Dict[str, object]:
    view = executor.view()
    missing = sorted(repr(t) for t in reference_view - view)[:10]
    extra = sorted(repr(t) for t in view - reference_view)[:10]
    view_match = not missing and not extra and len(view) == len(reference_view)
    compared = _annotations_comparable(executor.strategy)
    annotation_match = not compared or (
        view_match and executor.view_annotations() == reference_annotations
    )
    return {
        "view_match": view_match,
        "annotation_match": annotation_match,
        "annotations_compared": compared,
        "view_size": len(view),
        "reference_view_size": len(reference_view),
        "missing_tuples": missing,
        "extra_tuples": extra,
    }


# -- scheduling a plan's storms over the reference horizon ---------------------------
def _schedule_remove_when_present(executor: ChaosExecutor, node_id: int, at_time: float,
                                  tries: int = 0) -> None:
    """Remove ``node_id`` once it exists; its add-node may still be deferred."""

    def attempt(now: float) -> None:
        network = executor.network
        if (
            node_id < network.node_count
            and network.is_active(node_id)
            and node_id in executor.placement.nodes
        ):
            executor.remove_node(node_id, now=now)
        elif tries < _REMOVE_RETRIES:
            _schedule_remove_when_present(executor, node_id, now + 0.05, tries + 1)
        # else: the add never landed (cluster stayed degraded); skip the remove.

    executor.network.schedule_control(attempt, at_time)


def _schedule_scaling_storm(
    executor: ChaosExecutor, spec: ScalingStormSpec, horizon: float
) -> None:
    """Lay the scaling storm's adds/rebalance/removes over the horizon.

    Added node ids are deterministic (the network allocates sequentially and
    control events fire in virtual-time order), so removes can be scheduled
    up front against ``base_count + i``.
    """
    base_count = executor.network.node_count
    lo, hi = spec.window
    slots = spec.add_nodes + 2  # adds early, rebalance mid, removes at the end
    for index in range(spec.add_nodes):
        frac = lo + (hi - lo) * (index + 1) / slots
        executor.schedule_add_node(frac * horizon)
    if spec.rebalance:
        frac = lo + (hi - lo) * (spec.add_nodes + 1) / slots
        executor.schedule_rebalance(frac * horizon)
    if spec.remove_added:
        for index in range(spec.add_nodes):
            _schedule_remove_when_present(
                executor,
                base_count + index,
                hi * horizon * (1 + 0.01 * index),
            )


def schedule_chaos(executor: ChaosExecutor, chaos_plan: ChaosPlan, horizon: float) -> None:
    """Install a plan's crash and scaling storms on a simulator-backend run.

    (Link faults ride along automatically: the :class:`ChaosExecutor` attached
    its interposer at construction when the plan has an active link spec.)
    """
    if chaos_plan.storm is not None:
        scenario = chaos_plan.storm_scenario(executor.network.node_count)
        scenario.scaled(horizon).apply(executor)
    if chaos_plan.scaling is not None and chaos_plan.scaling.add_nodes > 0:
        _schedule_scaling_storm(executor, chaos_plan.scaling, horizon)


# -- the two backend runners ---------------------------------------------------------
def verify_sim_parity(
    query_plan,
    strategy: str,
    chaos_plan: ChaosPlan,
    workload: ChaosWorkload,
    node_count: int = 12,
    supervisor_policy: Optional[RetryPolicy] = None,
    max_events: int = 5_000_000,
) -> ParityReport:
    """Chaos on the in-process simulator vs the fault-free reference."""
    reference_view, reference_annotations, horizon, phases = run_reference(
        query_plan, strategy, workload, node_count=node_count, max_events=max_events
    )
    executor = chaos_executor(
        query_plan,
        strategy,
        chaos_plan=chaos_plan,
        supervisor_policy=supervisor_policy,
        recovery_policy=RecoveryPolicy.CHECKPOINT_REPLAY,
        node_count=node_count,
        max_events=max_events,
        max_wall_seconds=PHASE_WALL_SECONDS,
    )
    schedule_chaos(executor, chaos_plan, horizon)
    apply_workload(executor, workload)
    comparison = _compare(reference_view, reference_annotations, executor)
    return ParityReport(
        backend="sim",
        scheme=executor.strategy.label,
        profile=chaos_plan.name,
        seed=chaos_plan.seed,
        horizon=horizon,
        phases=phases,
        chaos=executor.chaos_stats(),
        **comparison,
    )


def verify_process_parity(
    query_plan,
    strategy: str,
    chaos_plan: ChaosPlan,
    workload: ChaosWorkload,
    wal_dir,
    node_count: int = 12,
    workers: int = 3,
    supervisor_policy: Optional[RetryPolicy] = None,
    max_events: int = 5_000_000,
) -> ParityReport:
    """Chaos on the process backend (real SIGKILLs) vs the same sim reference.

    The reference is the *fault-free in-process* run, so one gate checks two
    invariants at once: the process backend's bit-identity argument, and the
    chaos plane's masking.  ``wal_dir`` is required — killed workers respawn
    from their command WALs.
    """
    reference_view, reference_annotations, horizon, phases = run_reference(
        query_plan, strategy, workload, node_count=node_count, max_events=max_events
    )
    executor = build_executor(
        query_plan,
        strategy,
        node_count=node_count,
        max_events=max_events,
        max_wall_seconds=PHASE_WALL_SECONDS,
        experiment="chaos-process",
        backend="process",
        workers=workers,
        wal_dir=wal_dir,
    )
    interposer = None
    try:
        coordinator = executor.network
        if chaos_plan.link is not None and chaos_plan.link.active:
            interposer = ChaosInterposer(chaos_plan).attach(coordinator)
        for fraction, wid in chaos_plan.kill_schedule(executor.workers):
            coordinator.schedule_worker_kill(fraction * horizon, wid)
        if chaos_plan.respawn is not None:
            coordinator.set_respawn_chaos(chaos_plan, supervisor_policy)
        apply_workload(executor, workload)
        comparison = _compare(reference_view, reference_annotations, executor)
        chaos_stats: Dict[str, object] = {
            "chaos_profile": chaos_plan.name,
            "chaos_seed": chaos_plan.seed,
        }
        chaos_stats.update(executor.worker_fault_stats())
        if interposer is not None:
            chaos_stats.update(interposer.stats.as_dict())
        return ParityReport(
            backend="process",
            scheme=executor.strategy.label,
            profile=chaos_plan.name,
            seed=chaos_plan.seed,
            horizon=horizon,
            phases=phases,
            chaos=chaos_stats,
            **comparison,
        )
    finally:
        executor.close()


def assert_parity(report: ParityReport) -> ParityReport:
    """Raise :class:`ParityError` unless ``report`` passed; returns it."""
    if not report.passed:
        raise ParityError(report)
    return report


def parity_sweep(
    query_plan,
    strategies: Sequence[str],
    chaos_plan: ChaosPlan,
    workload: ChaosWorkload,
    node_count: int = 12,
    max_events: int = 5_000_000,
) -> List[ParityReport]:
    """One sim parity report per strategy (the benchmark/CI sweep body)."""
    return [
        verify_sim_parity(
            query_plan, strategy, chaos_plan, workload,
            node_count=node_count, max_events=max_events,
        )
        for strategy in strategies
    ]
