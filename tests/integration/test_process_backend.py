"""Integration tests: the process backend is bit-identical to the simulator.

The tentpole contract — running the engine across real OS worker processes
changes *where* handlers execute, and nothing else.  Views, per-tuple
absorbed provenance, event counts, message counts, shipped-update counts and
virtual-clock convergence times must all equal the single-process run, for
every execution strategy (including DRed's cross-node two-phase protocol and
eager absorption's coordinated flush).  On top of that: a worker killed
mid-run must be respawned and replayed from its command WAL with no change
to the final state.
"""

import os
import signal
import time

import pytest

from repro.obs.trace import Tracer, install_tracer
from repro.queries import build_executor, reachability_plan
from repro.workloads.topology import TransitStubConfig, generate_topology
from repro.workloads.updates import deletion_sample

NODE_COUNT = 6
STRATEGIES = ("DRed", "Absorption Lazy", "Absorption Eager")


@pytest.fixture(scope="module")
def workload():
    topology = generate_topology(TransitStubConfig(nodes_per_stub=2, dense=True, seed=7))
    links = topology.link_tuples()
    return links, deletion_sample(links, 0.2, seed=7)


def _fingerprint(executor, insert_phase, delete_phase):
    return {
        "view": executor.view(),
        "view_at": executor.view_at(3),
        "annotations": executor.view_annotations(),
        "events": executor.network.events_processed,
        "messages": insert_phase.messages + delete_phase.messages,
        "shipped": insert_phase.updates_shipped + delete_phase.updates_shipped,
        "convergence": (
            insert_phase.convergence_time_s,
            delete_phase.convergence_time_s,
        ),
    }


def _run(workload, scheme, backend, workers=None, wal_dir=None):
    links, deletions = workload
    executor = build_executor(
        reachability_plan(),
        scheme,
        node_count=NODE_COUNT,
        backend=backend,
        workers=workers,
        wal_dir=wal_dir,
    )
    try:
        insert_phase = executor.insert_edges(links)
        delete_phase = executor.delete_edges(deletions)
        return _fingerprint(executor, insert_phase, delete_phase)
    finally:
        executor.close()


@pytest.mark.parametrize("scheme", STRATEGIES)
def test_process_backend_is_bit_identical(workload, scheme):
    reference = _run(workload, scheme, "sim")
    assert _run(workload, scheme, "process", workers=2) == reference


def test_worker_count_does_not_change_results(workload):
    reference = _run(workload, "Absorption Eager", "sim")
    assert _run(workload, "Absorption Eager", "process", workers=1) == reference


def test_killed_worker_recovers_from_command_wal(workload, tmp_path):
    links, deletions = workload
    reference = _run(workload, "Absorption Eager", "sim")
    executor = build_executor(
        reachability_plan(),
        "Absorption Eager",
        node_count=NODE_COUNT,
        backend="process",
        workers=2,
        wal_dir=tmp_path,
    )
    try:
        insert_phase = executor.insert_edges(links)
        # Kill one worker between phases: the next dispatched command lands on
        # a dead process, and the coordinator must respawn it and replay its
        # command WAL before the delete phase can make progress.
        victim = executor._coordinator.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        delete_phase = executor.delete_edges(deletions)
        assert _fingerprint(executor, insert_phase, delete_phase) == reference
        assert executor._coordinator.worker_pids()[0] != victim
    finally:
        executor.close()


def test_killed_worker_without_wal_is_fatal(workload):
    links, deletions = workload
    executor = build_executor(
        reachability_plan(),
        "Absorption Eager",
        node_count=NODE_COUNT,
        backend="process",
        workers=2,
    )
    try:
        executor.insert_edges(links)
        victim = executor._coordinator.worker_pids()[0]
        os.kill(victim, signal.SIGKILL)
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            try:
                os.kill(victim, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        from repro.net.simulator import SimulationError

        with pytest.raises(SimulationError, match="died"):
            executor.delete_edges(deletions)
    finally:
        executor.close()


def test_worker_metrics_merge_into_phase_snapshot(workload):
    links, _ = workload
    executor = build_executor(
        reachability_plan(),
        "Absorption Eager",
        node_count=NODE_COUNT,
        backend="process",
        workers=2,
    )
    try:
        executor.insert_edges(links)
        snap = executor.metrics_registry.snapshot()
    finally:
        executor.close()
    # Unprefixed cluster aggregate next to per-worker views.
    assert snap["workers.work.deliveries"] > 0
    assert (
        snap["workers.w0.work.deliveries"] + snap["workers.w1.work.deliveries"]
        == snap["workers.work.deliveries"]
    )
    assert snap["workers.work.busy_seconds"] > 0
    # The kernel probe aggregates every worker's BDD manager.
    assert snap["kernel.table_size"] > 0


def test_explain_is_identical_across_backends(workload):
    """The ISSUE-9 acceptance property: sim and process explain identically."""
    links, _ = workload
    install_tracer(None)  # no tracer => empty message_path on both backends
    sim = build_executor(
        reachability_plan(), "Absorption Lazy", node_count=NODE_COUNT
    )
    proc = build_executor(
        reachability_plan(),
        "Absorption Lazy",
        node_count=NODE_COUNT,
        backend="process",
        workers=2,
    )
    try:
        sim.insert_edges(links)
        proc.insert_edges(links)
        targets = sorted(sim.view(), key=lambda t: t.key)[:5]
        assert targets
        assert sorted(proc.view(), key=lambda t: t.key)[:5] == targets
        for target in targets:
            assert proc.explain(target).as_json() == sim.explain(target).as_json()
        absent = sim.plan.result_schema.tuple("no-such", "tuple")
        assert proc.explain(absent).as_json() == sim.explain(absent).as_json()
    finally:
        sim.close()
        proc.close()


def test_sigkilled_worker_yields_post_mortem_flight_dump(workload, tmp_path):
    """A SIGKILLed worker without a WAL is fatal — but the flight recorder
    still captures a validated post-mortem dump, including the surviving
    workers' rings collected over the command queue."""
    from repro.net.simulator import SimulationError
    from repro.obs.export import load_trace_events, validate_chrome_trace
    from repro.obs.export import validate_flow_balance
    from repro.obs.trace import DEFAULT_RING_CAPACITY

    links, deletions = workload
    dump = tmp_path / "postmortem.json"
    recorder = Tracer(DEFAULT_RING_CAPACITY, dump_path=dump)
    previous = install_tracer(recorder)
    try:
        executor = build_executor(
            reachability_plan(),
            "Absorption Eager",
            node_count=NODE_COUNT,
            backend="process",
            workers=2,
        )
        try:
            executor.insert_edges(links)
            victim = executor._coordinator.worker_pids()[0]
            os.kill(victim, signal.SIGKILL)
            deadline = time.monotonic() + 10.0
            while time.monotonic() < deadline:
                try:
                    os.kill(victim, 0)
                except ProcessLookupError:
                    break
                time.sleep(0.05)
            with pytest.raises(SimulationError, match="died"):
                executor.delete_edges(deletions)
        finally:
            executor.close()
    finally:
        install_tracer(previous)
    assert dump.exists()
    validate_chrome_trace(dump)
    events = load_trace_events(dump)
    assert validate_flow_balance(events) == []
    marks = [e for e in events if e.get("name") == "flight-dump"]
    assert len(marks) == 1
    assert "died" in marks[0]["args"]["reason"]
    # The surviving worker's rings were absorbed into the coordinator dump.
    with open(dump) as handle:
        import json

        labels = [
            e["args"]["name"]
            for e in json.load(handle)["traceEvents"]
            if e.get("ph") == "M" and e.get("name") == "process_name"
        ]
    assert any("worker 1" in label for label in labels)


def test_worker_traces_merge_into_coordinator_trace(workload):
    links, _ = workload
    tracer = Tracer()
    previous = install_tracer(tracer)
    try:
        executor = build_executor(
            reachability_plan(),
            "Absorption Eager",
            node_count=NODE_COUNT,
            backend="process",
            workers=2,
        )
        try:
            executor.insert_edges(links)
        finally:
            executor.close()
    finally:
        install_tracer(previous)
    deliver_pids = {
        event["pid"]
        for event in tracer.events()
        if event.get("name", "").startswith("deliver:")
    }
    # Every node's handler spans arrive on the node's own track despite
    # running in worker processes.
    assert deliver_pids == set(range(NODE_COUNT))
    labels = tracer._process_labels.values()
    assert any("worker 0" in label for label in labels)
    assert any("worker 1" in label for label in labels)
    assert tracer.open_span_count() == 0


#: Per-phase ``(messages, updates_shipped, communication_mb, state_mb,
#: per_tuple_provenance_bytes)`` of the 12-node Absorption Lazy run below, on
#: either backend.  The byte numbers are BDD node counts; every variable sits
#: at a global rank, so each worker's variable order is a sub-order of the
#: single-process manager's and the counts are equal.
PINNED_LAZY_PHASES = {
    "insert": (624, 1568, 0.125676, 0.411324, 59.765306122448976),
    "delete": (96, 264, 0.031345, 0.232027, 190.54545454545453),
    "reinsert": (361, 674, 0.073985, 0.454543, 88.73590504451039),
}


def _lazy_churn_phases(backend, workers=None):
    topology = generate_topology(TransitStubConfig(nodes_per_stub=2, dense=True, seed=7))
    links = topology.link_tuples()
    deletions = deletion_sample(links, 0.2, seed=7)
    executor = build_executor(
        reachability_plan(), "Absorption Lazy", node_count=12, backend=backend, workers=workers
    )
    try:
        phases = {}
        for label, run in (
            ("insert", lambda: executor.insert_edges(links)),
            ("delete", lambda: executor.delete_edges(deletions)),
            ("reinsert", lambda: executor.insert_edges(deletions)),
        ):
            metrics = run()
            assert executor.view_size() == len(executor.view()) == metrics.view_size
            phases[label] = (
                metrics.messages,
                metrics.updates_shipped,
                metrics.communication_mb,
                metrics.state_mb,
                metrics.per_tuple_provenance_bytes,
            )
        return phases
    finally:
        executor.close()


def test_process_byte_telemetry_is_pinned_at_six_nodes_per_worker():
    """Six nodes share each worker's BDD manager; overlapping their deliveries
    must leave every byte count equal to the single-process run's."""
    assert _lazy_churn_phases("process", workers=2) == PINNED_LAZY_PHASES


def test_view_size_counts_the_view_on_the_sim_backend():
    assert _lazy_churn_phases("sim") == PINNED_LAZY_PHASES
