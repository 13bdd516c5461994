"""The one experiment runner: table-entry types, the executor constructor, the row builder.

An :class:`Experiment` (one entry of :data:`repro.harness.experiments.EXPERIMENTS`)
yields :class:`Point` objects, each a list of :class:`Phase` steps.
:func:`run_experiment` is the only code that builds executors (through
:func:`build_executor_for`, which applies every configuration knob), runs
phases and turns them into result rows carrying the paper's four metrics, or
into censored "(budget exceeded)" rows when a run overruns its budget.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.data.batch import BatchPolicy
from repro.engine.executor import DistributedViewExecutor
from repro.engine.metrics import PhaseMetrics
from repro.engine.plan import RecursiveViewPlan
from repro.engine.strategy import ExecutionStrategy
from repro.harness.config import ExperimentConfig
from repro.net.simulator import SimulationBudgetExceeded, SimulationError
from repro.obs.trace import HARNESS_PID, current_tracer
from repro.queries.builder import build_executor
from repro.queries.reachability import reachability_plan

Row = Dict[str, object]
#: A scheme: a figure label (``"Absorption Lazy"``) or a strategy object.
Scheme = Union[str, ExecutionStrategy]
#: Run on the executor right before a phase (scheduled faults or scaling).
Before = Callable[[DistributedViewExecutor], None]
#: Builds the extra columns of the row a phase closes; may append detail
#: rows, which follow that row.
After = Callable[[DistributedViewExecutor, PhaseMetrics, List[Row]], Row]
#: A row shape (see :attr:`Experiment.rows`), or a step that builds the
#: point's rows itself from the executor and the row's identifying columns.
Shape = Union[str, Callable[[DistributedViewExecutor, Row], List[Row]]]


@dataclass(frozen=True)
class Phase:
    """One executor phase: the base-data changes it applies, and its row parameters."""

    label: str
    edge_inserts: Sequence = ()
    edge_deletes: Sequence = ()
    seed_inserts: Sequence = ()
    seed_deletes: Sequence = ()
    #: Row parameters of this phase (per-phase row shapes only).
    params: Row = field(default_factory=dict)
    #: Unmeasured phases (preloads) close no row and add nothing to sums.
    measured: bool = True
    before: Optional[Before] = None
    #: ``None`` reports the phase's ``view_size``.
    after: Optional[After] = None


@dataclass
class Point:
    """One sweep point, run once per scheme on a freshly built executor.

    ``params`` follow the row's ``figure`` and ``scheme`` columns; a
    ``"scheme"`` entry there relabels the scheme column in place.
    """

    params: Row = field(default_factory=dict)
    phases: Sequence[Phase] = ()
    #: Executor options on top of the configuration's; ``kind`` names a
    #: fault-tolerant, elastic or chaos executor factory.
    options: Dict[str, object] = field(default_factory=dict)
    #: Overrides of the experiment's plan, schemes, row shape and
    #: provenance source for this point.
    plan: Optional[RecursiveViewPlan] = None
    schemes: Optional[Sequence[Scheme]] = None
    rows: Optional[Shape] = None
    provenance: Optional[str] = None
    #: A bespoke step run instead of phases (chaos parity builds its own
    #: reference and chaos executors): ``step(config, scheme, row) -> row``.
    step: Optional[Callable[[ExperimentConfig, Scheme, Row], Row]] = None
    #: Set by the runner: the measured phases of the last scheme run, or
    #: ``None`` when the budget cut it off — later points may depend on it.
    result: Optional[List[PhaseMetrics]] = None


@dataclass(frozen=True)
class Experiment:
    """One entry of the experiment table."""

    description: str
    points: Callable[[ExperimentConfig], Iterable[Point]]
    schemes: Sequence[Scheme] = ()
    plan: Callable[[], RecursiveViewPlan] = reachability_plan
    #: ``"cumulative"``: one row per measured phase, communication and
    #: convergence summed from the point's start — a ratio sweep whose first
    #: phase parameter is the axis, which a censored row reports as
    #: "(budget exceeded)" (figures 7-10).  ``"phase"``: one row per measured
    #: phase with its own totals.  ``"point"``: one row per point summing its
    #: measured phases.  A callable builds the point's rows itself.
    rows: Shape = "point"
    #: Where a row's per-tuple provenance comes from: ``"run"`` is the mean
    #: over every phase the executor ran so far, ``"last"`` the row's last
    #: phase.
    provenance: str = "last"
    #: ``--explain`` can rebuild this experiment's insertion workload.
    explainable: bool = False


def run_experiment(name: str, entry: Experiment, config: ExperimentConfig) -> List[Row]:
    """Run every point of ``entry`` under every scheme; returns the result rows."""
    figure = name[len("figure"):] if name.startswith("figure") else name
    rows: List[Row] = []
    for point in entry.points(config):
        for scheme in point.schemes or entry.schemes:
            label = scheme if isinstance(scheme, str) else scheme.label
            if point.step is not None:
                rows.append(point.step(config, scheme, _base_row(figure, label, point.params)))
                continue
            plan = point.plan or entry.plan()
            executor = build_executor_for(config, plan, scheme, name, **point.options)
            try:
                point.result = _run_point(
                    executor, point, point.rows or entry.rows,
                    point.provenance or entry.provenance, partial(_base_row, figure, label), rows,
                )
            finally:
                executor.close()
    return rows


def _run_point(
    executor: DistributedViewExecutor,
    point: Point,
    shape: Shape,
    provenance: str,
    base_row: Callable[[Row], Row],
    rows: List[Row],
) -> Optional[List[PhaseMetrics]]:
    """Apply a point's phases and append its rows; ``None`` when censored."""
    per_phase = shape in ("cumulative", "phase")
    closing = max((i for i, phase in enumerate(point.phases) if phase.measured), default=-1)
    measured: List[PhaseMetrics] = []
    communication_mb = convergence_s = 0.0
    for index, phase in enumerate(point.phases):
        if phase.before is not None:
            phase.before(executor)
        params = {**point.params, **phase.params} if per_phase else dict(point.params)
        try:
            metrics = executor.apply_mixed(
                phase.edge_inserts, phase.edge_deletes, phase.seed_inserts, phase.seed_deletes,
                label=phase.label,
            )
        except SimulationBudgetExceeded:
            if shape == "cumulative" and phase.measured:
                params[next(iter(phase.params))] = "(budget exceeded)"
            stats = executor.network.stats
            rows.append(
                _metric_row(
                    base_row(params), stats.per_tuple_provenance_bytes, stats.communication_mb,
                    executor.state_bytes() / 1_000_000.0, stats.convergence_time, converged=False,
                )
            )
            return None
        if not phase.measured:
            continue
        measured.append(metrics)
        communication_mb += metrics.communication_mb
        convergence_s += metrics.convergence_time_s
        if callable(shape) or not (per_phase or index == closing):
            continue
        detail: List[Row] = []
        if phase.after is None:
            extras = {"view_size": metrics.view_size}
        else:
            extras = phase.after(executor, metrics, detail)
        if provenance == "run":
            per_tuple = executor.metrics.mean_per_tuple_provenance_bytes
        else:
            per_tuple = metrics.per_tuple_provenance_bytes
        rows.append(
            _metric_row(
                base_row(params), per_tuple, communication_mb, metrics.state_mb, convergence_s,
                **extras,
            )
        )
        rows.extend(detail)
        if shape == "phase":
            communication_mb = convergence_s = 0.0
    if callable(shape):
        rows.extend(shape(executor, base_row(point.params)))
    return measured


def strategy_for(scheme: Scheme, config: ExperimentConfig) -> ExecutionStrategy:
    """Resolve a scheme label, applying the config's BDD-kernel knobs."""
    strategy = ExecutionStrategy.by_name(scheme) if isinstance(scheme, str) else scheme
    return strategy.with_kernel_options(gc_threshold=config.bdd_gc_threshold)


def batch_policy_for(config: ExperimentConfig) -> BatchPolicy:
    """The batching knobs of ``config`` as a :class:`BatchPolicy`."""
    if config.batch_size <= 1:
        return BatchPolicy.tuple_at_a_time()
    ports = frozenset(config.batch_ports) if config.batch_ports is not None else None
    return BatchPolicy(max_batch=config.batch_size, ports=ports)


def build_executor_for(
    config: ExperimentConfig,
    plan: RecursiveViewPlan,
    scheme: Scheme,
    experiment: str,
    kind: Optional[Callable[..., DistributedViewExecutor]] = None,
    **options: object,
) -> DistributedViewExecutor:
    """The one executor constructor: every configuration knob is applied here.

    ``kind`` is a fault-tolerant, elastic or chaos executor factory; ``None``
    builds the plain executor, the only kind the process backend hosts.  Other
    kinds under ``--backend process``, and plans the process backend cannot
    ship (closure-captured plan variants), fall back to the in-process
    simulator with a note rather than failing the whole sweep.
    """
    strategy = strategy_for(scheme, config)
    options = {
        "node_count": config.node_count, "max_events": config.max_events,
        "max_wall_seconds": config.max_wall_seconds, "experiment": experiment,
        "batch_policy": batch_policy_for(config), **options,
    }
    if config.backend == "process":
        if kind is None:
            try:
                return build_executor(
                    plan, strategy, backend="process", workers=config.workers or None, **options
                )
            except SimulationError as exc:
                reason = str(exc)
        else:
            reason = f"the process backend hosts no {kind.__name__}"
        print(
            f"# note: {plan.name}/{strategy.label} falls back to the in-process backend "
            f"({reason})",
            file=sys.stderr,
        )
    return (kind or build_executor)(plan, strategy, **options)


def _base_row(figure: str, scheme: str, parameters: Row) -> Row:
    row: Row = {"figure": figure, "scheme": scheme}
    row.update(parameters)
    tracer = current_tracer()
    if tracer is not None:
        # Every row starts here, so one instant on the harness track marks
        # each (figure, scheme, x) point in a trace.
        point = ",".join(f"{k}={v}" for k, v in parameters.items())
        tracer.instant(HARNESS_PID, f"fig{figure}[{scheme}] {point}", "harness")
    return row


def _metric_row(
    row: Row, per_tuple_provenance: float, communication_mb: float, state_mb: float,
    convergence_s: float, converged: bool = True, **extra: object,
) -> Row:
    row.update(
        per_tuple_provenance_B=round(per_tuple_provenance, 2),
        communication_MB=round(communication_mb, 6),
        state_MB=round(state_mb, 6),
        convergence_time_s=round(convergence_s, 6),
        converged=converged,
        **extra,
    )
    return row
