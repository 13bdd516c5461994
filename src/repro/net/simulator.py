"""A deterministic, event-driven network simulator.

The simulator owns a priority queue of pending message deliveries in virtual
time.  Every processor node registers a handler; delivering a message invokes
the handler, which may send further messages (continuing the distributed
computation).  The run ends when the queue drains — exactly the distributed
quiescence/fixpoint condition the paper relies on — and the time of the last
processed event is the **convergence time** metric.

Modelled behaviour:

* **Reliable in-order delivery** per (src, dst) pair, as assumed in
  Section 3.1: a later message between the same pair is never delivered
  before an earlier one, even if latencies would allow it.
* **Per-update processing cost**: a node is busy for ``processing_cost``
  seconds per update it handles, so nodes with more tuples take longer and
  adding processors reduces convergence time (Figure 13).
* **Byte accounting** for every non-local message via
  :class:`~repro.net.stats.NetworkStats`.
* **Node churn**: :meth:`SimulatedNetwork.crash` and
  :meth:`SimulatedNetwork.recover` schedule failure events in virtual time.
  While a node is down it processes nothing; messages addressed to it are
  *held* by their reliable FIFO channels.  At the matching ``recover`` event
  the registered fault listener (see :class:`FaultListener`) first performs
  its recovery actions — restoring a checkpoint and replaying the update log,
  or purging the dead node's base tuples and reseeding it from its peers, the
  two policies implemented in :mod:`repro.fault.recovery` — and then each held
  message is redelivered (or dropped, if the listener's ``should_redeliver``
  declines it, which is how the provenance-purge policy models the teardown of
  the dead node's connections).
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.data.batch import BatchPolicy
from repro.data.update import Update
from repro.net.latency import LatencyModel, UniformLatencyModel
from repro.net.message import Message
from repro.net.stats import NetworkStats
from repro.obs.trace import CONTROL_PID

#: A node handler receives (port, updates, virtual time) and reacts by calling
#: :meth:`SimulatedNetwork.send` zero or more times.
NodeHandler = Callable[[str, Sequence[Update], float], None]

#: BDD variable ranks pack as ``ordinal * RANK_STRIDE + index`` (see
#: :func:`pack_rank`): an odd stride above any declaration count.
RANK_STRIDE = 0x9E3779B9


@dataclass(frozen=True)
class _FaultEvent:
    """A scheduled crash/recover control event (not a network message)."""

    kind: str  # "crash" | "recover"
    node: int


@dataclass(frozen=True)
class _ControlEvent:
    """A scheduled control-plane callback firing at a virtual time.

    Used by the elastic placement subsystem to scale the cluster or rebalance
    ownership *mid-run*: the callback executes between message deliveries, so
    messages already in flight genuinely straddle the change (and arrive
    stamped with the superseded placement epoch).
    """

    callback: Callable[[float], None]


@dataclass(frozen=True)
class _GhostDelivery:
    """A duplicated wire copy of ``message`` injected by the chaos plane.

    The reliable transport's receiver-side sequence-number dedup suppresses
    it at delivery: popping a ghost never advances the clock, never counts as
    a processed event, and never invokes a handler — it exists purely so
    duplication shows up in chaos accounting and traces.
    """

    message: Message


class FaultListener:
    """Hooks invoked by the network when failure events fire.

    The fault-tolerance subsystem registers one listener per run; the default
    implementation is a no-op (crashed nodes simply stop processing and every
    held message is redelivered verbatim on recovery).
    """

    def on_crash(self, node: int, now: float) -> None:
        """Called when ``node`` goes down at virtual time ``now``."""

    def on_recover(self, node: int, now: float) -> None:
        """Called when ``node`` comes back up, *before* held messages flow."""

    def should_redeliver(self, message: Message) -> bool:
        """Whether a message held during downtime is redelivered after recovery."""
        return True


class SimulationError(Exception):
    """Raised on misconfiguration (unknown node, missing handler) or runaway runs."""


class SimulationBudgetExceeded(SimulationError):
    """Raised when a run exceeds its event or wall-clock budget.

    This is how the harness reproduces the paper's "did not complete within 5
    minutes" data points (e.g. Relative Eager at high insertion ratios, Eager
    propagation on dense 800-link topologies) without actually waiting: the
    run is cut off and reported as not converged.
    """


def pack_rank(ordinal: int, index: int) -> int:
    """The BDD variable rank of declaration ``index`` in hand-out ``ordinal``.

    ``RANK_STRIDE`` exceeds any declaration count, so ranks order by event,
    then by declaration inside the handler.  The stride is odd (Knuth's
    multiplicative-hash constant), so ranks spread over the low bits dict and
    set probing start from; a power-of-two stride would give every event's
    first declaration the same low bits.  The BDD manager rejects a rank at
    or above its terminal level (``2**60``, an ordinal of about 4.3e8).
    """
    return ordinal * RANK_STRIDE + index


class SimulatedNetwork:
    """Virtual-time message-passing substrate for the distributed engine."""

    def __init__(
        self,
        node_count: int,
        latency_model: Optional[LatencyModel] = None,
        processing_cost: float = 0.00002,
        max_events: int = 20_000_000,
        max_wall_seconds: Optional[float] = None,
        batch_policy: Optional[BatchPolicy] = None,
    ) -> None:
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        self.node_count = node_count
        self.latency_model = latency_model or UniformLatencyModel()
        self.processing_cost = processing_cost
        self.max_events = max_events
        self.max_wall_seconds = max_wall_seconds
        self.batch_policy = batch_policy or BatchPolicy()
        #: Messages whose delivery was merged into an earlier same-channel
        #: delivery (diagnostics for the batching benchmark).
        self.coalesced_deliveries = 0
        self._wall_deadline: Optional[float] = None
        self.stats = NetworkStats(node_count=node_count)
        self._handlers: Dict[int, NodeHandler] = {}
        self._queue: List[Tuple[float, int, Message]] = []
        self._sequence = itertools.count()
        #: FIFO watermark: latest delivery time scheduled per (src, dst) pair.
        self._last_delivery: Dict[Tuple[int, int], float] = {}
        #: Time at which each node finishes its currently scheduled work.
        self._node_busy_until: Dict[int, float] = {node: 0.0 for node in range(node_count)}
        self._now = 0.0
        self._events_processed = 0
        #: Cumulative wall seconds spent inside node handlers (operator and
        #: routing work); the engine reports per-phase deltas of this next to
        #: the BDD kernel's own timer to split BDD vs routing vs net time.
        self.handler_seconds = 0.0
        #: Nodes currently crashed.
        self._down: Set[int] = set()
        #: Nodes decommissioned by the elastic placement subsystem.  They stay
        #: registered (in-flight messages addressed to them must still be
        #: delivered so the node can bounce them to the current owner) but
        #: receive no broadcasts and own no keys.
        self._inactive: Set[int] = set()
        #: Messages held by their channels while the destination is down.
        self._held: Dict[int, List[Message]] = {}
        self._fault_listener: Optional[FaultListener] = None
        self._dropped_messages = 0
        #: Supplies the current placement epoch stamped onto outgoing
        #: messages (installed by the elastic executor; static runs stay at 0).
        self._epoch_provider: Optional[Callable[[], int]] = None
        #: The active tracer, or ``None`` when tracing is off — the run loop
        #: pays exactly one ``is None`` check per delivery (see
        #: :mod:`repro.obs.trace` for the zero-overhead-off contract).
        self._tracer = None
        #: Flow ids of messages merged into the current coalesced delivery,
        #: landed inside the delivery span (traced runs only).
        self._coalesced_flows: List[int] = []
        #: The chaos interposer, or ``None`` when chaos is off — the send
        #: path pays exactly one ``is None`` check, same contract as tracing.
        self._chaos = None
        #: Serial hand-out ordinal of the event being handled (a delivery,
        #: fault or control event; 0 before the first) and how many variable
        #: ranks its handler has drawn — see :meth:`variable_rank`.
        self._handouts = 0
        self._ranks_drawn = 0

    # -- wiring -----------------------------------------------------------------
    def register(self, node: int, handler: NodeHandler) -> None:
        """Install the update handler for ``node``."""
        self._validate_node(node)
        self._handlers[node] = handler

    def _validate_node(self, node: int) -> None:
        if not 0 <= node < self.node_count:
            raise SimulationError(f"node {node} out of range (0..{self.node_count - 1})")

    def set_fault_listener(self, listener: Optional[FaultListener]) -> None:
        """Install the listener notified on crash/recover events."""
        self._fault_listener = listener

    def set_epoch_provider(self, provider: Optional[Callable[[], int]]) -> None:
        """Install the placement-epoch source stamped onto every sent message."""
        self._epoch_provider = provider

    def set_tracer(self, tracer) -> None:
        """Install the span tracer; disabled tracers are stored as ``None``
        so the delivery loop's only tracing cost is a pointer comparison."""
        self._tracer = tracer if tracer is not None and tracer.enabled else None

    @property
    def tracer(self):
        """The active tracer, or ``None`` when tracing is off."""
        return self._tracer

    def install_chaos(self, interposer) -> None:
        """Install the chaos interposer consulted on every remote send.

        The interposer adjusts arrival times *before* the per-channel FIFO
        clamp and may enqueue ghost duplicates — see
        :mod:`repro.chaos.interposer` for why neither breaks determinism.
        """
        self._chaos = interposer

    def _enqueue_ghost(self, message: Message, arrival: float) -> None:
        """Queue a duplicated wire copy, suppressed at delivery time."""
        heapq.heappush(self._queue, (arrival, next(self._sequence), _GhostDelivery(message)))

    @property
    def current_epoch(self) -> int:
        """The placement epoch messages are currently stamped with."""
        return self._epoch_provider() if self._epoch_provider is not None else 0

    # -- elastic membership -------------------------------------------------------
    def add_node(self) -> int:
        """Grow the cluster by one node; returns the new node's id.

        The caller must still :meth:`register` a handler before the node can
        receive anything.
        """
        node = self.node_count
        self.node_count += 1
        self._node_busy_until[node] = 0.0
        self.stats.node_count = self.node_count
        return node

    def deactivate(self, node: int) -> None:
        """Decommission ``node``: it keeps its handler (so stale in-flight
        messages can still be delivered and bounced) but drops out of
        :meth:`active_nodes` — broadcasts and future ownership skip it."""
        self._validate_node(node)
        self._inactive.add(node)

    def is_active(self, node: int) -> bool:
        """True while ``node`` is a live cluster member (not decommissioned)."""
        return 0 <= node < self.node_count and node not in self._inactive

    def active_nodes(self) -> List[int]:
        """Ids of the current live cluster members, in id order."""
        return [node for node in range(self.node_count) if node not in self._inactive]

    # -- failure injection --------------------------------------------------------
    def crash(self, node: int, at_time: Optional[float] = None) -> None:
        """Schedule ``node`` to crash at virtual time ``at_time`` (default: now)."""
        self._schedule_fault("crash", node, at_time)

    def recover(self, node: int, at_time: Optional[float] = None) -> None:
        """Schedule ``node`` to come back up at virtual time ``at_time``."""
        self._schedule_fault("recover", node, at_time)

    def _schedule_fault(self, kind: str, node: int, at_time: Optional[float]) -> None:
        self._validate_node(node)
        when = self._now if at_time is None else at_time
        heapq.heappush(self._queue, (when, next(self._sequence), _FaultEvent(kind, node)))

    def schedule_control(
        self, callback: Callable[[float], None], at_time: Optional[float] = None
    ) -> None:
        """Schedule a control-plane callback at ``at_time`` (default: now).

        The callback fires between deliveries while the event queue may still
        hold in-flight messages — this is how the elastic subsystem scales or
        rebalances a *running* cluster.
        """
        when = self._now if at_time is None else at_time
        heapq.heappush(self._queue, (when, next(self._sequence), _ControlEvent(callback)))

    def is_down(self, node: int) -> bool:
        """True while ``node`` is crashed."""
        return node in self._down

    def down_nodes(self) -> Tuple[int, ...]:
        """Ids of currently crashed nodes, sorted (placement-change guard)."""
        return tuple(sorted(self._down))

    def held_messages(self, node: int) -> int:
        """Messages currently held by channels towards a down node (tests/metrics)."""
        return len(self._held.get(node, []))

    @property
    def dropped_messages(self) -> int:
        """Held messages the fault listener declined to redeliver."""
        return self._dropped_messages

    def abandon_recovery(self, node: int) -> None:
        """Mark a recovering node as still down (called *during* a recover
        event by a supervised recovery whose retry budget is exhausted).
        The node's held messages stay held and it serves nothing until a
        later recovery succeeds or the executor degrades it."""
        self._validate_node(node)
        self._down.add(node)

    def postpone_node(self, node: int, delay: float) -> None:
        """Consume ``delay`` seconds of virtual time on ``node``.

        This is how supervised-recovery backoff spends time in the simulated
        world: the node's next scheduled work starts after the pause.
        """
        self._validate_node(node)
        if delay > 0.0:
            base = self._node_busy_until.get(node, 0.0)
            if self._now > base:
                base = self._now
            self._node_busy_until[node] = base + delay

    def _apply_fault_event(self, event: _FaultEvent, at_time: float) -> None:
        self._now = max(self._now, at_time)
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(event.node, event.kind, "fault", sim_ts=self._now)
        if event.kind == "crash":
            if event.node in self._down:
                raise SimulationError(f"node {event.node} is already down")
            self._down.add(event.node)
            if self._fault_listener is not None:
                self._fault_listener.on_crash(event.node, self._now)
            return
        if event.node not in self._down:
            raise SimulationError(f"node {event.node} is not down; cannot recover it")
        self._down.discard(event.node)
        # The node is up again *before* the listener runs, so recovery actions
        # (checkpoint restore, WAL replay, peer reseed) can address it.
        if self._fault_listener is not None:
            self._fault_listener.on_recover(event.node, self._now)
        if event.node in self._down:
            # A supervised recovery exhausted its retry budget and abandoned
            # the node (see abandon_recovery): it stays down and its held
            # messages stay held for a later recovery or degraded service.
            return
        for message in self._held.pop(event.node, []):
            if self._fault_listener is None or self._fault_listener.should_redeliver(message):
                heapq.heappush(self._queue, (self._now, next(self._sequence), message))
            else:
                self._dropped_messages += 1
                self.stats.dropped_messages += 1
                if tracer is not None:
                    tracer.instant(
                        event.node,
                        "held-message-dropped",
                        "fault",
                        sim_ts=self._now,
                        args={
                            "src": message.src,
                            "port": message.port,
                            "updates": len(message.updates),
                        },
                    )

    # -- clock -------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of messages delivered so far."""
        return self._events_processed

    def variable_rank(self) -> int:
        """The rank of the next BDD variable the event being handled declares.

        The loop numbers every delivery, fault event and control event as it
        hands it out; a rank is that ordinal followed by the declaration's
        index inside the handler, so ranks order exactly like this engine's
        declarations.  A declaration made between events continues the last
        event's sequence.
        """
        index = self._ranks_drawn
        self._ranks_drawn = index + 1
        return pack_rank(self._handouts, index)

    # -- sending ------------------------------------------------------------------
    def send(
        self,
        src: int,
        dst: int,
        port: str,
        updates: Sequence[Update],
        size_bytes: int,
        at_time: Optional[float] = None,
    ) -> Message:
        """Ship a batch of updates from ``src`` to ``dst``.

        Local sends (``src == dst``) are delivered after the processing delay
        only; remote sends additionally incur the latency-model delay and are
        counted as network traffic.  Delivery respects FIFO ordering per
        (src, dst) channel.
        """
        if not 0 <= src < self.node_count:
            self._validate_node(src)
        if not 0 <= dst < self.node_count:
            self._validate_node(dst)
        if src in self._down:
            raise SimulationError(f"node {src} is down and cannot send")
        if not updates:
            raise SimulationError("refusing to send an empty message")
        sent_at = self._now if at_time is None else at_time
        message = Message(
            src=src, dst=dst, port=port, updates=tuple(updates),
            size_bytes=size_bytes, sent_at=sent_at, epoch=self.current_epoch,
        )
        tracer = self._tracer
        if tracer is not None and src != dst:
            # Flow arrow from the sender's current span to the delivery span.
            message.trace_flow = tracer.flow_start(src, sim_ts=sent_at)
        self.stats.record_message(message)
        # The channel key and watermark probe are the send hot path: one tuple
        # allocation and one dict probe, no intermediate attribute lookups.
        arrival = sent_at + self.latency_model.latency(src, dst)
        if self._chaos is not None and src != dst:
            # Link faults (drop-retransmit, jitter, ghost duplicates) adjust
            # the arrival *before* the FIFO clamp below: the channel stays in
            # order no matter what the link does, which is exactly the
            # reliable-transport masking that keeps chaos runs bit-identical.
            arrival = self._chaos.apply(message, sent_at, arrival)
        last_delivery = self._last_delivery
        fifo_key = (src, dst)
        watermark = last_delivery.get(fifo_key, 0.0)
        if watermark > arrival:
            arrival = watermark
        last_delivery[fifo_key] = arrival
        heapq.heappush(self._queue, (arrival, next(self._sequence), message))
        return message

    def inject(
        self,
        dst: int,
        port: str,
        updates: Sequence[Update],
        at_time: float = 0.0,
        size_bytes: int = 0,
    ) -> None:
        """Inject external base-data updates at ``dst`` (not counted as traffic).

        This models data arriving from the node's own sub-network (sensors,
        local routing state) rather than from a peer query processor.
        """
        self._validate_node(dst)
        if not updates:
            return
        tracer = self._tracer
        if tracer is not None:
            tracer.instant(
                dst, f"inject:{port}", "inject", sim_ts=at_time,
                args={"updates": len(updates)},
            )
        message = Message(
            src=dst, dst=dst, port=port, updates=tuple(updates),
            size_bytes=size_bytes, sent_at=at_time, epoch=self.current_epoch,
        )
        heapq.heappush(self._queue, (at_time, next(self._sequence), message))

    # -- running --------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> NetworkStats:
        """Deliver events until the queue drains (or virtual time exceeds ``until``).

        Returns the accumulated statistics; the convergence-time watermark is
        the completion time of the last piece of work performed.
        """
        queue = self._queue
        pop = heapq.heappop
        down = self._down
        handlers_get = self._handlers.get
        busy_until = self._node_busy_until
        processing_cost = self.processing_cost
        max_events = self.max_events
        monotonic = time.monotonic
        perf_counter = time.perf_counter
        while queue:
            # Peek before popping: a too-late event must keep its original
            # sequence number.  Popping and re-pushing it with a fresh
            # ``next(self._sequence)`` would silently demote it behind any
            # same-arrival event pushed later, changing the delivery order of
            # a subsequent ``run`` — a determinism leak across the ``until``
            # boundary.
            if until is not None and queue[0][0] > until:
                break
            arrival, _, message = pop(queue)
            if not isinstance(message, Message):
                if isinstance(message, _GhostDelivery):
                    # A duplicated wire copy: receiver-side dedup suppresses
                    # it.  No clock advance, no handler, no event counted.
                    if self._chaos is not None:
                        self._chaos.on_ghost(message.message, arrival)
                    continue
                self._handouts += 1
                self._ranks_drawn = 0
                if isinstance(message, _FaultEvent):
                    self._apply_fault_event(message, arrival)
                else:
                    self._now = max(self._now, arrival)
                    if self._tracer is not None:
                        self._tracer.instant(
                            CONTROL_PID, "control-callback", "control", sim_ts=self._now
                        )
                    message.callback(self._now)
                continue
            dst = message.dst
            if dst in down:
                # The reliable channel holds the message until the destination
                # recovers (delivery order within the channel is preserved).
                self._held.setdefault(dst, []).append(message)
                continue
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationBudgetExceeded(
                    f"exceeded {max_events} events; the computation is not converging"
                )
            if (
                self._wall_deadline is not None
                and self._events_processed % 32 == 0
                and monotonic() > self._wall_deadline
            ):
                raise SimulationBudgetExceeded(
                    f"exceeded the wall-clock budget of {self.max_wall_seconds} seconds"
                )
            handler = handlers_get(dst)
            if handler is None:
                raise SimulationError(f"no handler registered for node {dst}")
            if message.epoch < self.current_epoch:
                self.stats.stale_epoch_messages += 1
            self._handouts += 1
            self._ranks_drawn = 0
            start = busy_until[dst]
            if arrival > start:
                start = arrival
            updates = self._coalesce_ready(message, start, until)
            completion = start + processing_cost * max(len(updates), 1)
            busy_until[dst] = completion
            self._now = completion
            self.stats.record_time(completion)
            tracer = self._tracer
            if tracer is None:
                wall_start = perf_counter()
                handler(message.port, updates, completion)
                self.handler_seconds += perf_counter() - wall_start
            else:
                self._deliver_traced(tracer, handler, message, updates, completion)
        return self.stats

    def _deliver_traced(
        self,
        tracer,
        handler: NodeHandler,
        message: Message,
        updates: Sequence[Update],
        completion: float,
    ) -> None:
        """Deliver one message under tracing: a ``net``-category delivery span
        on the destination's pipeline lane, incoming flow arrows landed inside
        it, and the node context set so kernel GC passes fired from within the
        handler attach to this node's track."""
        span = tracer.begin(
            message.dst,
            f"deliver:{message.port}",
            "net",
            sim_ts=completion,
            args={"src": message.src, "msg": message.message_id, "updates": len(updates)},
        )
        tracer.flow_finish(message.trace_flow, message.dst)
        coalesced = self._coalesced_flows
        if coalesced:
            for flow_id in coalesced:
                tracer.flow_finish(flow_id, message.dst)
            coalesced.clear()
        tracer.set_node_context(message.dst)
        wall_start = time.perf_counter()
        try:
            handler(message.port, updates, completion)
        finally:
            self.handler_seconds += time.perf_counter() - wall_start
            tracer.clear_node_context()
            tracer.end(span)

    def _coalesce_ready(
        self, message: Message, start: float, until: Optional[float]
    ) -> Sequence[Update]:
        """Merge queued messages for the same (destination, port) into one delivery.

        A message addressed to a busy node would sit in the destination's
        input queue anyway; a batch-first receiver drains that queue as one
        delta (messages from different senders included).  Only the *front*
        of the event queue is eligible — every coalesced message would have
        been the next event regardless — so per-channel FIFO order and
        inter-port ordering are preserved exactly.  Byte and message
        accounting happened at send time and is unaffected; the per-update
        processing cost is charged identically, so virtual time does not
        cheat.
        """
        policy = self.batch_policy
        if not policy.batches_port(message.port) or policy.max_batch <= 1:
            return message.updates
        queue = self._queue
        dst = message.dst
        port = message.port
        if queue:
            # Fast path: nothing coalescible at the queue front.
            arrival, _, head = queue[0]
            if (
                not isinstance(head, Message)
                or head.dst != dst
                or head.port != port
                or arrival > start
            ):
                return message.updates
        else:
            return message.updates
        pop = heapq.heappop
        max_batch = policy.max_batch
        max_events = self.max_events
        wall_deadline = self._wall_deadline
        monotonic = time.monotonic
        current_epoch = self.current_epoch
        tracer = self._tracer
        updates: List[Update] = list(message.updates)
        extend = updates.extend
        while queue and len(updates) < max_batch:
            arrival, _, head = queue[0]
            if (
                not isinstance(head, Message)
                or head.dst != dst
                or head.port != port
                or arrival > start
                or (until is not None and arrival > until)
            ):
                break
            self._events_processed += 1
            if self._events_processed > max_events:
                raise SimulationBudgetExceeded(
                    f"exceeded {max_events} events; the computation is not converging"
                )
            # The drain loop consumes events just like the outer run loop, so
            # it must honour the same wall-clock budget: a huge coalescible
            # queue would otherwise be drained (and its updates handed to one
            # arbitrarily long handler call) with the deadline never checked.
            if (
                wall_deadline is not None
                and self._events_processed % 32 == 0
                and monotonic() > wall_deadline
            ):
                raise SimulationBudgetExceeded(
                    f"exceeded the wall-clock budget of {self.max_wall_seconds} seconds"
                )
            pop(queue)
            if head.epoch < current_epoch:
                self.stats.stale_epoch_messages += 1
            if tracer is not None and head.trace_flow is not None:
                # Landed inside the delivery span about to open, so every
                # coalesced sender's arrow converges on the merged delivery.
                self._coalesced_flows.append(head.trace_flow)
            extend(head.updates)
            self.coalesced_deliveries += 1
        return updates

    def arm_wall_budget(self) -> None:
        """Start (or restart) the wall-clock budget for the current workload phase.

        The budget spans every ``run`` call until it is re-armed, so a phase
        that alternates between draining the queue and flushing ship buffers
        cannot exceed it by resetting the clock.
        """
        if self.max_wall_seconds is not None:
            self._wall_deadline = time.monotonic() + self.max_wall_seconds

    def pending_events(self) -> int:
        """Number of undelivered messages (useful in tests)."""
        return len(self._queue)

    def queue_depths(self) -> Dict[int, int]:
        """Pending message deliveries per destination node (live probe).

        Counts only real messages — fault and control events have no
        destination.  Held messages towards crashed nodes count too: they are
        queued work the destination will face on recovery.
        """
        depths: Dict[int, int] = {}
        for _, _, entry in self._queue:
            if isinstance(entry, Message):
                depths[entry.dst] = depths.get(entry.dst, 0) + 1
        for node, held in self._held.items():
            if held:
                depths[node] = depths.get(node, 0) + len(held)
        return depths

    def reset_stats(self) -> None:
        """Start a fresh statistics accumulator (e.g. between insert and delete phases)."""
        self.stats = NetworkStats(node_count=self.node_count)
        self.stats.record_time(self._now)
