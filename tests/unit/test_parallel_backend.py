"""Unit tests for the process backend's building blocks.

Everything here runs in this process — the cross-process pieces (envelope
codec, command WAL, metrics materialize/merge, trace absorption, the
backend's unsupported-feature guards) are exercised directly, without
spawning workers.  The end-to-end equivalence lives in
``tests/integration/test_process_backend.py`` and
``tests/property/test_parallel_equivalence.py``.
"""

import pickle
import time
from collections import OrderedDict, deque

import pytest

from repro.fault.worker_wal import CommandLog, wal_tail_bytes
from repro.net.simulator import SimulatedNetwork, SimulationError
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CONTROL_PID, KERNEL_PID, Tracer
from repro.parallel.scheduler import ProcessCoordinator
from repro.provenance import canonical_annotation
from repro.provenance.absorption import AbsorptionProvenanceStore
from repro.queries import build_executor, reachability_plan
from repro.queries.shortest_path import shortest_path_plan


# -- metrics: materialize / merge (satellite: snapshot-then-merge) -----------------


def _registry_with_everything() -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.counter("deliveries").inc(3)
    registry.histogram("delta").observe(4)
    registry.histogram("delta").observe(9)
    registry.gauge("depth", lambda: 7)
    registry.register_probe("kernel", lambda: {"table_size": 100, "gc_passes": 2})
    return registry


def test_materialize_snapshots_identically_and_pickles():
    registry = _registry_with_everything()
    frozen = registry.materialize()
    live, dead = registry.snapshot(), frozen.snapshot()
    live.pop("elapsed_s"), dead.pop("elapsed_s")
    assert live == dead
    # The frozen registry must cross a process boundary (gauges/probes are
    # process-local callables on the live one).
    revived = pickle.loads(pickle.dumps(frozen))
    snap = revived.snapshot()
    snap.pop("elapsed_s")
    assert snap == dead


def test_merge_sums_counters_histograms_and_frozen_values():
    merged = MetricsRegistry()
    merged.merge(_registry_with_everything().materialize())
    merged.merge(_registry_with_everything().materialize())
    snap = merged.snapshot()
    assert snap["deliveries"] == 6
    assert snap["delta_count"] == 4
    assert snap["delta_sum"] == 26
    assert snap["delta_max"] == 9
    assert snap["depth"] == 14
    assert snap["kernel.table_size"] == 200
    assert snap["kernel.gc_passes"] == 4


def test_merge_with_prefix_namespaces_every_key():
    merged = MetricsRegistry()
    merged.merge(_registry_with_everything().materialize(), prefix="w1")
    snap = merged.snapshot()
    assert snap["w1.deliveries"] == 3
    assert snap["w1.kernel.table_size"] == 100
    assert "deliveries" not in snap
    # Prefixed merges keep each worker's clock; only the unprefixed aggregate
    # folds elapsed_s (as a max — wall clocks overlap, they don't add).
    assert "w1.elapsed_s" in snap


def test_merge_elapsed_takes_max_not_sum():
    a, b = MetricsRegistry(), MetricsRegistry()
    a._frozen["elapsed_s"] = 2.0
    b._frozen["elapsed_s"] = 5.0
    merged = MetricsRegistry()
    merged.merge(a)
    merged.merge(b)
    assert merged.snapshot()["elapsed_s"] == 5.0


# -- trace absorption ---------------------------------------------------------------


def test_absorb_remaps_synthetic_pids_and_shifts_clock():
    coordinator, worker = Tracer(), Tracer()
    span = worker.begin(3, "deliver:edge", "net")
    worker.end(span)
    span = worker.begin(KERNEL_PID, "gc", "gc")
    worker.end(span)
    events, tracks = list(worker.events), sorted(worker._tracks)
    coordinator.absorb(events, tracks, worker._t0, pid_offset=8, label="worker 1, pid 42")
    pids = {event["pid"] for event in coordinator.events}
    assert 3 in pids  # node tracks are globally unique: pass through
    assert KERNEL_PID + 8 in pids  # synthetic tracks shift per worker
    assert KERNEL_PID not in pids
    labels = coordinator._process_labels
    assert labels[3] == "node 3 [worker 1, pid 42]"
    assert labels[KERNEL_PID + 8] == "bdd-kernel [worker 1, pid 42]"
    # Both tracers read CLOCK_MONOTONIC; after the origin shift every absorbed
    # timestamp must be non-negative on the coordinator clock.
    assert all(event["ts"] >= 0 for event in coordinator.events)


def test_absorbed_trace_exports_with_real_pid_labels():
    coordinator, worker = Tracer(), Tracer()
    span = worker.begin(CONTROL_PID, "flush", "net")
    worker.end(span)
    coordinator.absorb(
        list(worker.events), sorted(worker._tracks), worker._t0, 16, "worker 2, pid 99"
    )
    names = {
        event["args"]["name"]
        for event in coordinator.chrome_events()
        if event.get("name") == "process_name"
    }
    assert "cluster-control [worker 2, pid 99]" in names


# -- command WAL --------------------------------------------------------------------


def test_command_log_round_trips_commands(tmp_path):
    path = tmp_path / "worker0.cmdlog"
    log = CommandLog(path)
    commands = [("deliver", 1, 3, "edge", [], 0.5), ("flush", 2, 0.75)]
    for command in commands:
        log.append(command)
    log.close()
    assert list(CommandLog.replay(path)) == commands
    assert log.appended == 2


def test_command_log_replay_stops_at_torn_tail(tmp_path):
    path = tmp_path / "worker0.cmdlog"
    log = CommandLog(path)
    log.append(("deliver", 1, 0, "edge", [], 0.0))
    log.append(("deliver", 2, 1, "edge", [], 0.1))
    log.close()
    # Simulate a crash mid-append: chop the last record in half.
    data = path.read_bytes()
    path.write_bytes(data[: len(data) - 7])
    replayed = list(CommandLog.replay(path))
    assert replayed == [("deliver", 1, 0, "edge", [], 0.0)]
    assert wal_tail_bytes(path) > 0


# -- canonical annotations ----------------------------------------------------------


def test_canonical_annotation_is_variable_order_independent():
    # Same monotone function built under two different variable orders: the
    # raw path products differ, the canonical antichain must not.
    def build(order):
        store = AbsorptionProvenanceStore()
        for key in order:
            store.manager.variable(key)
        a, b, c = (store.manager.variable(k) for k in ("a", "b", "c"))
        return store, a | (a & b) | (b & c)

    store1, f1 = build(["a", "b", "c"])
    store2, f2 = build(["c", "b", "a"])
    c1 = canonical_annotation(store1, f1)
    c2 = canonical_annotation(store2, f2)
    assert c1 == c2
    # Absorption: a & b is subsumed by a, so the antichain is {a}, {b, c}.
    assert c1 == frozenset({frozenset({"a"}), frozenset({"b", "c"})})


def test_canonical_annotation_passthrough():
    store = AbsorptionProvenanceStore()
    assert canonical_annotation(store, None) is None


# -- transport protocol -------------------------------------------------------------


def test_simulated_network_satisfies_transport_protocol():
    network = SimulatedNetwork(node_count=2)
    assert isinstance(network, Transport)


# -- coordinator: worker death while another worker's result is in the pipe ----------


class _FakeProcess:
    def __init__(self, alive: bool) -> None:
        self.alive = alive

    def is_alive(self) -> bool:
        return self.alive


def test_result_parked_by_a_recovery_drain_is_applied_not_waited_for():
    """Worker 0 dies idle while worker 1's reply to the only in-flight
    delivery sits unread in its pipe.  The recovery drain parks that reply in
    ``_results`` and nothing else will ever arrive, so the wait must look at
    the parked results again — it used to poll two idle workers forever."""
    coordinator = ProcessCoordinator.__new__(ProcessCoordinator)
    SimulatedNetwork.__init__(coordinator, node_count=2, max_wall_seconds=5.0)
    coordinator._wall_deadline = time.monotonic() + 5.0
    coordinator._result_readers = []  # every poll comes back empty at once
    coordinator._recv_backlog = deque()
    coordinator._results = {}
    coordinator._pending_kills = []
    coordinator._inflight = OrderedDict({7: (1, ("deliver", 7), 1.0)})
    coordinator._min_inflight = 1.0
    coordinator._processes = [_FakeProcess(alive=False), _FakeProcess(alive=True)]

    def recover(wid):
        coordinator._processes[wid].alive = True
        coordinator._results[7] = ("result", 7, 1, [], 0.25, 0, 0)

    coordinator._recover_worker = recover
    coordinator._apply_oldest()
    assert not coordinator._inflight
    assert coordinator.handler_seconds == 0.25


# -- backend guards -----------------------------------------------------------------


def test_unpicklable_plan_is_rejected_eagerly():
    with pytest.raises(SimulationError, match="cannot cross a process boundary"):
        build_executor(shortest_path_plan(), "DRed", node_count=4, backend="process", workers=1)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        build_executor(reachability_plan(), "DRed", node_count=4, backend="threads")
