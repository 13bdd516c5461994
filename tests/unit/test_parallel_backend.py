"""Unit tests for the process backend's building blocks.

Everything here runs in this process — the cross-process pieces (envelope
codec, command WAL, metrics materialize/merge, trace absorption, the
backend's unsupported-feature guards) are exercised directly, without
spawning workers.  The end-to-end equivalence lives in
``tests/integration/test_process_backend.py`` and
``tests/property/test_parallel_equivalence.py``.
"""

import pickle

import pytest

from repro.bdd.serialize import SerializedBDD
from repro.data.batch import BatchPolicy
from repro.data.update import insert
from repro.fault.worker_wal import CommandLog, wal_tail_bytes
from repro.net.latency import UniformLatencyModel
from repro.net.message import Message
from repro.net.simulator import SimulatedNetwork, SimulationError, pack_rank
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import CONTROL_PID, KERNEL_PID, Tracer
from repro.parallel.envelope import StashRef, WorkerInit
from repro.parallel.scheduler import ProcessCoordinator
from repro.parallel.worker import WorkerNetwork
from repro.provenance import canonical_annotation
from repro.provenance.absorption import AbsorptionProvenanceStore
from repro.queries import build_executor, link, reachability_plan
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


# -- same-worker stash -------------------------------------------------------------


def test_same_worker_sends_stay_in_the_stash():
    store = AbsorptionProvenanceStore()
    network = WorkerNetwork(node_count=4, store=store, wid=0, workers=2)
    annotation = store.base_annotation("x") | store.base_annotation("y")
    first = [insert(link("a", "b"), annotation), insert(link("b", "c"), annotation)]
    second = [insert(link("c", "d"), annotation)]
    network.send(0, 2, "view", first, 10, at_time=0.0)  # node 2 is on this worker
    network.send(0, 1, "view", first, 10, at_time=0.0)  # node 1 is not
    network.send(2, 2, "view", second, 10, at_time=0.0)
    local, remote, self_send = network.take_outbox()
    assert isinstance(remote[3][0].provenance, SerializedBDD)
    # Placeholders, one per update, cross the pipes and get coalesced.
    encoded = remote[3][0]
    wire = pickle.loads(pickle.dumps(local[3] + self_send[3] + (encoded,)))
    assert [type(ref) for ref in wire] == [StashRef, StashRef, StashRef, type(encoded)]
    restored = network.unstash(wire)
    assert restored == first + second + [encoded]
    assert all(update.provenance is annotation for update in restored[:3])
    assert not network.stash


# -- coordinator scheduling, white-box with fake workers ------------------------------


class _FakeProcess:
    def __init__(self, alive: bool = True) -> None:
        self.alive = alive
        self.pid = None

    def is_alive(self) -> bool:
        return self.alive

    def join(self, timeout=None) -> None:
        self.alive = False


class _FakeCommandQueue:
    """Records the commands a worker would have received."""

    def __init__(self) -> None:
        self.commands = []

    def put(self, command) -> None:
        self.commands.append(command)

    def close(self) -> None:
        pass

    def cancel_join_thread(self) -> None:
        pass


#: Remote latency L and per-update processing cost of the fake cluster.
LATENCY = 0.001
COST = 0.0001


@pytest.fixture()
def coordinator(monkeypatch):
    """A 4-node, 2-worker coordinator whose workers never run: tests feed
    results in by hand.  Node ``n`` lives on worker ``n % 2``."""

    def spawn(self, wid):
        self._command_queues.append(_FakeCommandQueue())
        self._result_readers.append(None)  # every poll comes back empty at once
        self._processes.append(_FakeProcess())

    monkeypatch.setattr(ProcessCoordinator, "_spawn", spawn)
    init = WorkerInit(
        wid=-1, workers=2, node_count=4, plan=None, strategy=None,
        batch_policy=None, partitioner=None,
    )
    coordinator = ProcessCoordinator(
        init,
        latency_model=UniformLatencyModel(LATENCY),
        processing_cost=COST,
        max_wall_seconds=5.0,
        batch_policy=BatchPolicy(max_batch=64),
    )
    coordinator.arm_wall_budget()
    yield coordinator
    coordinator.close()


def _updates(count=1):
    return [insert(link(f"a{i}", f"b{i}")) for i in range(count)]


def _commands(coordinator, wid):
    return [c for c in coordinator._command_queues[wid].commands if c[0] == "deliver"]


def _result(command, outbox=(), handler_seconds=0.0):
    return ("result", command[1], command[2] % 2, list(outbox), handler_seconds, 0, 0)


def test_fronts_on_different_workers_within_latency_overlap(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0)
    # Arrives after node 0's delivery completes (0.0001), which the old
    # "start before every in-flight completion" rule would have waited for,
    # but before that completion plus L: nothing node 0 sends can reach it.
    coordinator.inject(1, "edge", _updates(), at_time=0.0005)
    coordinator._dispatch()
    assert len(_commands(coordinator, 0)) == 1
    assert len(_commands(coordinator, 1)) == 1
    assert len(coordinator._pending) == 2
    # Past the L window the front waits for node 0's result.
    coordinator.inject(3, "edge", _updates(), at_time=0.0012)
    coordinator._dispatch()
    assert len(_commands(coordinator, 1)) == 1


def test_deliveries_carry_their_serial_ordinal(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0)
    coordinator.inject(1, "edge", _updates(), at_time=0.0005)
    coordinator._dispatch()
    (first,) = _commands(coordinator, 0)
    (overtaking,) = _commands(coordinator, 1)
    assert first[6] == 1
    # Node 1's delivery arrives after node 0's completes, so something node 0
    # sends itself could sort first: no provable ordinal.
    assert overtaking[6] is None
    # It does: the self-send is second in serial order, though dispatched third.
    coordinator._recv_backlog.append(
        _result(first, [(0, 0, "view", tuple(_updates()), 10, first[5])])
    )
    coordinator._apply_next()
    coordinator._dispatch()
    assert _commands(coordinator, 0)[1][6] == 2


def test_worker_ranks_need_a_serial_ordinal():
    network = WorkerNetwork(node_count=2, store=AbsorptionProvenanceStore(), wid=0, workers=1)
    network.begin_delivery(3)
    assert [network.variable_rank(), network.variable_rank()] == [
        pack_rank(3, 0),
        pack_rank(3, 1),
    ]
    network.begin_delivery(None)
    with pytest.raises(RuntimeError):
        network.variable_rank()


def test_sim_ranks_follow_declaration_order():
    executor = build_executor(reachability_plan(), "Absorption Lazy", node_count=4)
    executor.insert_edges([link("a", "b"), link("b", "c"), link("c", "a")])
    executor.delete_edges([link("b", "c")])
    executor.insert_edges([link("b", "c")])
    manager = executor.store.manager
    by_level = [manager.name_of(level) for level in sorted(manager._name_by_index)]
    assert by_level == list(manager._index_by_name)  # declaration order


def test_same_node_successor_waits_for_its_predecessor(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0)
    coordinator.inject(0, "base", _updates(), at_time=0.00005)
    coordinator._dispatch()
    (first,) = _commands(coordinator, 0)
    assert len(coordinator._pending) == 1
    coordinator._recv_backlog.append(_result(first))
    coordinator._apply_next()
    coordinator._dispatch()
    second = _commands(coordinator, 0)[1]
    assert second[3] == "base"
    # It starts where its predecessor's processing ended.
    assert second[5] == pytest.approx(first[5] + COST)


def test_results_arriving_out_of_order_apply_in_key_order(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0)
    coordinator.inject(1, "edge", _updates(), at_time=0.0005)
    coordinator._dispatch()
    (early,) = _commands(coordinator, 0)
    (late,) = _commands(coordinator, 1)
    # Worker 1 answers first; each handler sends one message on.
    coordinator._recv_backlog.append(
        _result(late, [(1, 3, "view", tuple(_updates()), 10, late[5])], 0.5)
    )
    coordinator._recv_backlog.append(
        _result(early, [(0, 2, "view", tuple(_updates()), 10, early[5])], 0.25)
    )
    coordinator._apply_next()
    assert coordinator.now == early[5]
    assert coordinator.handler_seconds == 0.25
    assert late[1] in coordinator._results  # parked, not applied
    coordinator._apply_next()
    assert coordinator.now == late[5]
    sent = sorted(
        (seq, message.src) for _, seq, message in coordinator._queue if message.port == "view"
    )
    assert [src for _, src in sent] == [0, 1]  # sequence numbers in serial order


def test_drain_stops_at_the_key_of_a_later_dispatched_delivery(coordinator):
    coordinator._node_busy_until[0] = 0.001
    coordinator.inject(1, "edge", _updates(), at_time=0.0005)
    coordinator._dispatch()
    assert len(coordinator._pending) == 1
    # Both arrive after node 1's delivery was dispatched; the first sorts
    # before it, the second after it (same arrival, later sequence number).
    coordinator.inject(0, "view", _updates(2), at_time=0.0002)
    coordinator.inject(0, "view", _updates(3), at_time=0.0005)
    coordinator._dispatch()
    (delivery,) = _commands(coordinator, 0)
    # Node 0 is busy until 0.001, so both would coalesce — but in serial
    # order node 1's delivery sits between them.
    assert len(delivery[4]) == 2
    assert coordinator.pending_events() == 1


def test_front_waits_when_its_drain_would_absorb_past_the_earliest_completion(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0)
    coordinator._node_busy_until[2] = 0.0005
    coordinator.inject(2, "view", _updates(), at_time=0.00005)
    # Arrives after node 0's delivery completes (0.0001): something node 0
    # sends to itself could still sort in front of it and cut the drain.
    coordinator.inject(2, "view", _updates(), at_time=0.0002)
    coordinator._dispatch()
    assert len(coordinator._pending) == 1
    assert coordinator.pending_events() == 2  # nothing popped, nothing lost
    (first,) = _commands(coordinator, 0)
    coordinator._recv_backlog.append(_result(first))
    coordinator._apply_next()
    coordinator._dispatch()
    merged = _commands(coordinator, 0)[1]
    assert merged[2] == 2 and len(merged[4]) == 2


def test_ghost_is_popped_only_when_serially_next(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0)
    coordinator._dispatch()
    (first,) = _commands(coordinator, 0)
    duplicate = Message(src=1, dst=3, port="view", updates=(), size_bytes=0, sent_at=0.0)
    coordinator._enqueue_ghost(duplicate, 0.00005)
    coordinator._dispatch()
    assert coordinator.pending_events() == 1  # node 0's result comes first
    coordinator._recv_backlog.append(_result(first))
    coordinator._apply_next()
    coordinator._dispatch()
    assert coordinator.pending_events() == 0
    assert coordinator.events_processed == 1  # a ghost is never an event


def test_dispatch_behind_a_later_keyed_delivery_to_the_same_node_raises(coordinator):
    coordinator.inject(0, "edge", _updates(), at_time=0.0005)
    coordinator._dispatch()
    coordinator.inject(0, "base", _updates(), at_time=0.0002)
    with pytest.raises(SimulationError, match="later delivery"):
        coordinator._dispatch()


def test_result_parked_by_a_recovery_drain_is_applied_not_waited_for(coordinator):
    """Worker 0 dies idle while worker 1's reply to the only unapplied
    delivery sits unread in its pipe.  The recovery drain parks that reply in
    ``_results`` and nothing else will ever arrive, so the wait must look at
    the parked results again — it used to poll two idle workers forever."""
    coordinator.inject(1, "edge", _updates(), at_time=0.0)
    coordinator._dispatch()
    (command,) = _commands(coordinator, 1)
    coordinator._processes[0].alive = False

    def recover(wid):
        coordinator._processes[wid].alive = True
        coordinator._results[command[1]] = _result(command, handler_seconds=0.25)

    coordinator._recover_worker = recover
    coordinator._apply_next()
    assert not coordinator._pending
    assert not coordinator._deliveries
    assert coordinator.handler_seconds == 0.25


# -- backend guards -----------------------------------------------------------------


def test_unpicklable_plan_is_rejected_eagerly():
    with pytest.raises(SimulationError, match="cannot cross a process boundary"):
        build_executor(shortest_path_plan(), "DRed", node_count=4, backend="process", workers=1)


def test_unknown_backend_is_rejected():
    with pytest.raises(ValueError, match="unknown backend"):
        build_executor(reachability_plan(), "DRed", node_count=4, backend="threads")
