"""The per-process worker runtime of the shared-nothing backend.

Each worker owns a contiguous *slice of the cluster* — every node whose id
hashes to it — with its **own** provenance store (one ``BDDManager`` per
process), its own operators, router telemetry, tracer, metrics registry and
optional command WAL.  Nothing is shared with the coordinator or with other
workers; the only communication is the pickled command/result protocol of
:mod:`repro.parallel.envelope`.

The worker is deliberately *passive*: it never advances virtual time and
never talks to a peer worker.  Handlers call ``network.send`` exactly as they
do in-process, but here the network is :class:`WorkerNetwork` — a stub that
records each send into an outbox which rides back to the coordinator on the
command's result.  The coordinator replays those sends into its own event
queue, which is the single source of ``(time, seq)`` ordering truth.

A send between two nodes of the same worker keeps its payload here: the
updates wait in the worker's stash as live handles, and only placeholders
travel through the coordinator (see :class:`WorkerNetwork`).
"""

from __future__ import annotations

import itertools
import os
import signal
import traceback
from time import perf_counter
from typing import Dict, List, Optional, Sequence

from repro.data.update import Update
from repro.engine.routing import RoutingStats
from repro.engine.runtime import ProcessorNode
from repro.net.simulator import pack_rank
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.trace import Tracer, install_tracer
from repro.operators.ship import MinShipOperator, ShipMode
from repro.parallel.envelope import StashRef, WorkerInit, decode_updates, encode_updates


class _WorkerStats:
    """The slice of ``NetworkStats`` a node actually writes through its transport.

    Pure per-command accumulators — the coordinator folds the deltas into the
    real :class:`~repro.net.stats.NetworkStats` when it applies the result, so
    totals are identical to the in-process run (both are order-insensitive
    sums).
    """

    __slots__ = ("provenance_bytes", "provenance_annotations")

    def __init__(self) -> None:
        self.provenance_bytes = 0
        self.provenance_annotations = 0

    def record_provenance(self, annotation_bytes: int, count: int = 1) -> None:
        self.provenance_bytes += annotation_bytes
        self.provenance_annotations += count

    def take(self):
        taken = (self.provenance_bytes, self.provenance_annotations)
        self.provenance_bytes = 0
        self.provenance_annotations = 0
        return taken


class WorkerNetwork:
    """The :class:`~repro.net.transport.Transport` a worker's nodes send through.

    ``send`` does no scheduling at all: it appends one outbox entry, and the
    coordinator — the only holder of the virtual clock — turns outbox entries
    back into queue events with the exact semantics of
    ``SimulatedNetwork.send``.

    A send to a node on another worker encodes its annotations through the
    store codec.  A send to a node on *this* worker keeps its updates, live,
    in :attr:`stash` under the next value of a per-incarnation send counter
    and ships ``len(updates)`` :class:`~repro.parallel.envelope.StashRef`
    placeholders instead; :meth:`unstash` swaps them back at delivery.  The
    counter restarts with every process, and WAL replay re-executes the
    logged commands in their original order, so a respawned worker
    regenerates exactly the tokens its predecessor handed out.

    It also serves :meth:`variable_rank` for the delivery being handled, from
    the serial ordinal the coordinator stamped on its command.
    """

    def __init__(self, node_count: int, store, wid: int, workers: int, tracer=None) -> None:
        self.node_count = node_count
        self._store = store
        self._wid = wid
        self._workers = workers
        self.stats = _WorkerStats()
        self.tracer = tracer
        #: Static process runs never change placement: epoch stays 0, exactly
        #: like a ``SimulatedNetwork`` without an epoch provider.
        self.current_epoch = 0
        self.outbox: List[tuple] = []
        #: token -> the updates of one same-worker send, awaiting delivery.
        self.stash: Dict[int, tuple] = {}
        self._tokens = itertools.count()
        #: Serial hand-out ordinal of the delivery being handled (``None``
        #: when the coordinator could not prove it) and how many variable
        #: ranks its handler has drawn.
        self._ordinal: Optional[int] = None
        self._ranks_drawn = 0

    def active_nodes(self) -> List[int]:
        return list(range(self.node_count))

    def begin_delivery(self, ordinal: Optional[int]) -> None:
        """Draw the next variable ranks from the delivery stamped ``ordinal``."""
        self._ordinal = ordinal
        self._ranks_drawn = 0

    def variable_rank(self) -> int:
        """``SimulatedNetwork.variable_rank`` for the delivery being handled.

        Without a stamped ordinal the rank could not match the serial
        engine's, so declaring a variable raises instead of guessing.
        """
        if self._ordinal is None:
            raise RuntimeError(
                "a BDD variable was declared in a delivery without a known "
                "serial ordinal; its rank would not match the serial engine's"
            )
        index = self._ranks_drawn
        self._ranks_drawn = index + 1
        return pack_rank(self._ordinal, index)

    def send(
        self,
        src: int,
        dst: int,
        port: str,
        updates: Sequence[Update],
        size_bytes: int,
        at_time: Optional[float] = None,
    ) -> None:
        if at_time is None:
            raise RuntimeError("worker-side sends must carry an explicit at_time")
        if dst % self._workers == self._wid:
            token = next(self._tokens)
            self.stash[token] = tuple(updates)
            wire = (StashRef(token),) * len(updates)
        else:
            wire = encode_updates(self._store, updates)
        self.outbox.append((src, dst, port, wire, size_bytes, at_time))

    def unstash(self, updates: Sequence) -> List:
        """A delivered batch with every stashed send's updates back in place.

        Coalescing concatenates whole messages, so each send's placeholders
        arrive as one contiguous run.
        """
        restored: List = []
        token = None
        for update in updates:
            if type(update) is StashRef:
                if update.token != token:
                    token = update.token
                    restored.extend(self.stash.pop(token))
            else:
                token = None
                restored.append(update)
        return restored

    def take_outbox(self) -> List[tuple]:
        taken = self.outbox
        self.outbox = []
        return taken


class _ResultChannel:
    """``put`` adapter over the worker's private result pipe.

    Results travel over a per-worker ``mp.Pipe`` rather than a shared
    ``mp.Queue``: queue writers share one cross-process lock and a feeder
    thread, so a chaos SIGKILL could freeze the lock mid-release and wedge
    every other worker.  ``Connection.send`` runs synchronously on this
    worker's own pipe — nothing shared, nothing to poison.
    """

    __slots__ = ("conn",)

    def __init__(self, conn) -> None:
        self.conn = conn

    def put(self, item) -> None:
        self.conn.send(item)


class Worker:
    """One worker process: a node slice plus its private engine substrate."""

    def __init__(self, init: WorkerInit, result_queue) -> None:
        self.init = init
        self.wid = init.wid
        self.result_queue = result_queue
        #: The worker's recorder: a full Tracer when the run is traced, a
        #: bounded FlightRecorder when the coordinator runs one, else None.
        #: Both share the recording surface the hot paths use.
        self.tracer = None
        self.flight = None
        recorder = None
        if init.traced:
            self.tracer = recorder = Tracer()
        elif init.flight:
            from repro.obs.flight import FlightRecorder

            self.flight = recorder = FlightRecorder()
        if recorder is not None:
            install_tracer(recorder)
        self._recorder = recorder
        self.store = init.strategy.create_store()
        self.routing_stats = RoutingStats()
        self.network = WorkerNetwork(
            init.node_count, self.store, init.wid, init.workers, tracer=recorder
        )
        self.nodes: Dict[int, ProcessorNode] = {
            node_id: ProcessorNode(
                node_id,
                init.plan,
                init.strategy,
                self.store,
                init.partitioner,
                self.network,
                batch_policy=init.batch_policy,
                routing_stats=self.routing_stats,
            )
            for node_id in init.owned_nodes()
        }
        self.deliveries = 0
        self.updates_handled = 0
        self.busy_seconds = 0.0
        self.wal = None
        if init.wal_path is not None:
            from repro.fault.worker_wal import CommandLog

            self.wal = CommandLog(init.wal_path)
        self.registry = self._build_registry()

    def _build_registry(self) -> MetricsRegistry:
        registry = MetricsRegistry()
        registry.register_probe(
            "kernel", lambda: self.store.kernel_stats() or {}
        )

        def fixpoint_probe():
            rollup = None
            for node in self.nodes.values():
                histogram = node.fixpoint.delta_histogram
                if rollup is None:
                    rollup = Histogram(histogram.name)
                rollup.merge(histogram)
            return rollup.as_flat() if rollup is not None else {}

        registry.register_probe("fixpoint", fixpoint_probe)
        registry.register_probe(
            "work",
            lambda: {
                "deliveries": self.deliveries,
                "updates": self.updates_handled,
                "busy_seconds": round(self.busy_seconds, 6),
                "nodes": len(self.nodes),
            },
        )
        if self.wal is not None:
            registry.register_probe("wal", lambda: {"appended": self.wal.appended})
        return registry

    # -- command execution -------------------------------------------------------
    def deliver(self, command, emit: bool = True, log: bool = True) -> None:
        """Run one handler; ship its outbox and telemetry back as the result."""
        _, delivery_id, node_id, port, updates, now, ordinal = command
        node = self.nodes[node_id]
        self.network.begin_delivery(ordinal)
        decoded = decode_updates(self.store, self.network.unstash(updates))
        tracer = self._recorder
        span = None
        if tracer is not None:
            span = tracer.begin(
                node_id, f"deliver:{port}", "net", sim_ts=now,
                args={"updates": len(decoded), "worker": self.wid},
            )
            tracer.set_node_context(node_id)
        wall_start = perf_counter()
        try:
            node.handle(port, decoded, now)
        finally:
            handler_seconds = perf_counter() - wall_start
            if tracer is not None:
                tracer.clear_node_context()
                tracer.end(span)
        self.deliveries += 1
        self.updates_handled += len(decoded)
        self.busy_seconds += handler_seconds
        outbox = self.network.take_outbox()
        prov_bytes, prov_count = self.network.stats.take()
        if log and self.wal is not None:
            self.wal.append(command)
        if emit:
            self.result_queue.put(
                ("result", delivery_id, self.wid, outbox,
                 handler_seconds, prov_bytes, prov_count)
            )

    def flush(self, command, emit: bool = True, log: bool = True) -> None:
        """Timer tick for every eager MinShip this worker hosts, in node order."""
        _, rpc_id, now = command
        segments = []
        released_total = 0
        wall_start = perf_counter()
        for node_id in sorted(self.nodes):
            node = self.nodes[node_id]
            if not (isinstance(node.ship, MinShipOperator) and node.ship.mode is ShipMode.EAGER):
                continue
            released = node.flush_ship(now)
            outbox = self.network.take_outbox()
            if outbox:
                segments.append((node_id, outbox))
            released_total += released
        self.busy_seconds += perf_counter() - wall_start
        prov_bytes, prov_count = self.network.stats.take()
        if log and self.wal is not None:
            self.wal.append(command)
        if emit:
            self.result_queue.put(
                ("rpc", rpc_id, self.wid,
                 (segments, released_total, prov_bytes, prov_count))
            )

    def clear_join_left(self, command, emit: bool = True, log: bool = True) -> None:
        _, rpc_id, node_id = command
        self.nodes[node_id].join.clear_left()
        if log and self.wal is not None:
            self.wal.append(command)
        if emit:
            self.result_queue.put(("rpc", rpc_id, self.wid, None))

    # -- quiescent reads -----------------------------------------------------------
    def views(self, rpc_id) -> None:
        payload = {
            node_id: frozenset(node.view_tuples()) for node_id, node in self.nodes.items()
        }
        self.result_queue.put(("rpc", rpc_id, self.wid, payload))

    def view_size(self, rpc_id) -> None:
        """How many view tuples this worker's nodes hold (one count, not the tuples)."""
        held = set()
        for node in self.nodes.values():
            held.update(node.view_tuples())
        self.result_queue.put(("rpc", rpc_id, self.wid, len(held)))

    def view_annotations(self, rpc_id) -> None:
        """Canonical (manager-independent) eager provenance of the local view slice."""
        from repro.provenance.tracker import canonical_annotation

        payload = {}
        for node in self.nodes.values():
            for tuple_, annotation in node.fixpoint.provenance.items():
                payload[tuple_] = canonical_annotation(self.store, annotation)
        self.result_queue.put(("rpc", rpc_id, self.wid, payload))

    def state_bytes(self, rpc_id) -> None:
        payload = {node_id: node.state_bytes() for node_id, node in self.nodes.items()}
        self.result_queue.put(("rpc", rpc_id, self.wid, payload))

    def kernel_stats(self, rpc_id) -> None:
        self.result_queue.put(("rpc", rpc_id, self.wid, self.store.kernel_stats()))

    def collect(self, rpc_id, force: bool) -> None:
        self.store.collect(force=force)
        self.result_queue.put(("rpc", rpc_id, self.wid, None))

    def metrics(self, rpc_id) -> None:
        self.result_queue.put(("rpc", rpc_id, self.wid, self.registry.materialize()))

    def routing(self, rpc_id) -> None:
        snapshot = self.routing_stats.snapshot(self.init.partitioner)
        self.result_queue.put(("rpc", rpc_id, self.wid, snapshot))

    def explain(self, rpc_id, target) -> None:
        """Canonical minimal products of one view tuple, if a local node holds it."""
        from repro.provenance.tracker import canonical_annotation

        payload = None
        for node in self.nodes.values():
            annotation = node.view_annotation(target)
            if annotation is not None:
                payload = canonical_annotation(self.store, annotation)
                break
        self.result_queue.put(("rpc", rpc_id, self.wid, payload))

    def flight_snapshot(self, rpc_id) -> None:
        """Non-destructive snapshot of the flight-recorder rings (post-mortem read)."""
        if self.flight is None:
            self.result_queue.put(("rpc", rpc_id, self.wid, None))
            return
        self.result_queue.put(
            ("rpc", rpc_id, self.wid,
             (self.flight.snapshot_records(), self.flight._t0, os.getpid()))
        )

    def trace(self, rpc_id) -> None:
        """Drain this worker's trace events (with clock origin and real pid)."""
        if self.tracer is None:
            self.result_queue.put(("rpc", rpc_id, self.wid, None))
            return
        events = self.tracer.events
        tracks = sorted(self.tracer._tracks)
        self.tracer.events = []
        self.result_queue.put(
            ("rpc", rpc_id, self.wid, (events, tracks, self.tracer._t0, os.getpid()))
        )

    def replay(self, rpc_id, unacked_deliveries, unacked_rpcs, doom_after=None) -> None:
        """Rebuild state from the command WAL after a respawn.

        Every logged command re-executes (handlers are deterministic, so the
        rebuilt state is bit-identical); results are suppressed except for
        logged-but-unacked commands — deliveries whose regenerated outboxes
        the coordinator is still waiting for, and the flush/clear RPC the
        worker died under (re-emitted with its original rpc id, exactly once).
        Replayed commands are not re-logged.

        ``doom_after`` is the chaos plane's double-fault hook: after replaying
        that many WAL entries (or at the end, for shorter WALs) the worker
        kills itself with SIGKILL *before* acknowledging the replay, so the
        coordinator observes a worker that died during recovery.  The suicide
        is self-inflicted rather than coordinator-sent so the death lands at
        a deterministic point between sends, never mid-``send`` — the result
        pipe is left whole, not torn.
        """
        found = set()
        replayed = 0
        for command in type(self.wal).replay(self.wal.path) if self.wal else ():
            op = command[0]
            if op == "deliver":
                delivery_id = command[1]
                emit = delivery_id in unacked_deliveries
                if emit:
                    found.add(delivery_id)
                self.deliver(command, emit=emit, log=False)
            elif op == "flush":
                emit = command[1] in unacked_rpcs
                if emit:
                    found.add(command[1])
                self.flush(command, emit=emit, log=False)
            elif op == "clear_join_left":
                emit = command[1] in unacked_rpcs
                if emit:
                    found.add(command[1])
                self.clear_join_left(command, emit=emit, log=False)
            replayed += 1
            if doom_after is not None and replayed >= doom_after:
                self._chaos_self_kill()
        if doom_after is not None:
            # The WAL was shorter than the doom point; die anyway — a doomed
            # attempt must never acknowledge the replay.
            self._chaos_self_kill()
        if os.environ.get("REPRO_CHAOS_DEBUG"):
            import sys

            print(
                f"[chaos-debug pid={os.getpid()}] worker {self.wid} replay done "
                f"rpc_id={rpc_id} replayed={replayed} found={len(found)}",
                file=sys.stderr,
                flush=True,
            )
        self.result_queue.put(("rpc", rpc_id, self.wid, found))

    def _chaos_self_kill(self) -> None:
        """Die by SIGKILL between sends — the private result pipe stays whole."""
        os.kill(os.getpid(), signal.SIGKILL)

    # -- dispatch ----------------------------------------------------------------
    def dispatch(self, command) -> bool:
        """Execute one command; returns False when the worker should exit."""
        op = command[0]
        if op == "deliver":
            self.deliver(command)
        elif op == "flush":
            self.flush(command)
        elif op == "clear_join_left":
            self.clear_join_left(command)
        elif op == "views":
            self.views(command[1])
        elif op == "view_size":
            self.view_size(command[1])
        elif op == "view_annotations":
            self.view_annotations(command[1])
        elif op == "state_bytes":
            self.state_bytes(command[1])
        elif op == "kernel_stats":
            self.kernel_stats(command[1])
        elif op == "collect":
            self.collect(command[1], command[2])
        elif op == "metrics":
            self.metrics(command[1])
        elif op == "routing":
            self.routing(command[1])
        elif op == "trace":
            self.trace(command[1])
        elif op == "explain":
            self.explain(command[1], command[2])
        elif op == "flight":
            self.flight_snapshot(command[1])
        elif op == "replay":
            self.replay(command[1], command[2], command[3], command[4])
        elif op == "shutdown":
            return False
        else:
            raise RuntimeError(f"unknown worker command {op!r}")
        return True


def worker_main(init: WorkerInit, command_queue, result_conn) -> None:
    """Entry point of a spawned worker process (must stay module-level picklable)."""
    result_queue = _ResultChannel(result_conn)
    try:
        worker = Worker(init, result_queue)
    except BaseException:
        result_queue.put(("error", None, init.wid, traceback.format_exc()))
        return
    if os.environ.get("REPRO_CHAOS_DEBUG"):
        import sys

        print(
            f"[chaos-debug pid={os.getpid()}] worker {init.wid} booted",
            file=sys.stderr,
            flush=True,
        )
    while True:
        command = command_queue.get()
        try:
            if not worker.dispatch(command):
                break
        except BaseException:
            ref_id = command[1] if len(command) > 1 else None
            result_queue.put(("error", ref_id, init.wid, traceback.format_exc()))
    if worker.wal is not None:
        worker.wal.close()
