"""The deterministic virtual-clock scheduler driving the worker pool.

:class:`ProcessCoordinator` subclasses :class:`~repro.net.simulator.SimulatedNetwork`
and keeps its entire scheduling state — the ``(arrival, seq)`` queue, per-node
``busy_until``, per-channel FIFO watermarks, the statistics accumulator — but
replaces the inline handler call with a **dispatch** to the worker process
hosting the destination node.

Bit-identity argument
---------------------

The single-process engine pops events in ``(arrival, seq)`` order and runs
each handler to completion before the next pop.  A handler's sends arrive no
earlier than its completion and take fresh sequence numbers, so every event
they create sorts after the popped one: the serial pop sequence is strictly
increasing in ``(arrival, seq)``.  The coordinator overlaps handlers and
keeps everything observable through three rules.

1. **Serial-order application.**  Dispatched-but-unapplied deliveries sit in
   a heap keyed by ``(arrival, seq)``, and results are applied strictly in
   that order — the serial pop order.  Everything the serial engine does
   after a pop happens at application time, in the same order: ``_now`` and
   the convergence watermark advance, due worker kills fire, and the
   handler's recorded sends are replayed through :meth:`_push_encoded` (the
   body of ``SimulatedNetwork.send``), so sequence numbers, FIFO watermarks,
   byte accounting and chaos decisions come out identical.

2. **Dispatch rule.**  Only the queue front is ever considered.  The front
   ``F`` (destination ``d``, ``start = max(busy_until[d], arrival)``) is
   dispatched at once when it precedes every unapplied delivery.  When some
   unapplied deliveries precede it, their results — and the events those
   results will create — are still unknown, so ``F`` is dispatched only if
   none of those events could come before it or join its delivery:

   * ``d`` has no preceding unapplied delivery.  (The rule's literal form
     is "``start`` is before the completion of every preceding unapplied
     delivery to ``d``"; ``busy_until[d]`` already covers every delivery
     dispatched to ``d``, so that only holds when there is none.)
   * ``start < c_min + L``, where ``c_min`` is the earliest completion of a
     preceding unapplied delivery and ``L`` the minimum latency between
     distinct nodes in the latency model (chaos and the FIFO clamp only add
     delay).  An unknown event can precede ``F`` only as a chain of
     zero-latency self-sends rooted at a preceding delivery — on that
     delivery's node, never on ``d`` — while any unknown event *to* ``d``
     crosses a link and arrives at ``>= c_min + L > start``.
   * ``F``'s coalescing drain absorbs no arrival at or after ``c_min``:
     every absorbed event must sort before every unknown event, or the
     serial drain might have been cut short by one.

   Every drain also stops at the key of the earliest *later* unapplied
   delivery, which in the serial run would still be queued there.  A chaos
   ghost is popped only when it is serially next.  Together, ``F`` sees the
   ``busy_until[d]``, the drain and the node state it sees serially, and no
   node ever has two unapplied deliveries; dispatching to a node whose
   unapplied delivery sorts *after* ``F`` would break that, so it raises
   :class:`SimulationError` instead of being assumed away.

3. **Variable ranks.**  Deliveries run on their worker in dispatch order,
   which differs from serial order where ``F`` overtook an unknown
   self-send chain on another node.  Nodes share nothing but their worker's
   BDD manager, and there only the *variable order* could show it (node
   counts — every byte metric — are canonical given the order).  It does
   not: every variable sits at a global rank, the serial hand-out ordinal of
   the delivery that declared it followed by the declaration's index in the
   handler (``SimulatedNetwork.variable_rank``), and a decoded annotation
   declares its names at the ranks it carries.  Each worker's order is thus
   a sub-order of the single-process manager's, in any dispatch order.

   The coordinator stamps each delivery with its ordinal at dispatch: the
   deliveries dispatched so far, minus the unapplied ones that sort after
   it.  The count is exact when ``F`` arrives no later than the earliest
   completion ``c_min`` of a preceding unapplied delivery: every event still
   unknown descends from an unapplied delivery, so it arrives at or after
   ``c_min`` with a fresh sequence number and sorts after ``F``, and no
   delivery sorting after ``F`` can have been applied yet (rule 1).  An
   ``F`` that may have overtaken something is dispatched without an
   ordinal, and declaring a variable in its handler raises instead of
   guessing.  Only base and seed handlers declare variables, and their
   events are injected at the phase's current time, ahead of every
   completion, so they always carry one.

Faults, control events and ``run(until=...)`` are not supported on this
backend (they need mid-run coordinator/worker state surgery); scheduling them
raises immediately rather than desynchronizing silently.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing
import multiprocessing.connection
import os
import pickle
import queue as queue_module
import signal
import time
from collections import deque
from typing import Callable, Dict, Iterable, List, Optional

from repro.net.message import Message
from repro.net.simulator import (
    SimulatedNetwork,
    SimulationBudgetExceeded,
    SimulationError,
    _GhostDelivery,
)
from repro.parallel.envelope import TRACE_PID_STRIDE, WorkerInit
from repro.parallel.worker import worker_main

#: How long one blocking wait on the result queue lasts before the coordinator
#: re-checks worker liveness and the wall-clock budget.
_POLL_SECONDS = 0.25


def _chaos_debug(message: str) -> None:
    if os.environ.get("REPRO_CHAOS_DEBUG"):
        import sys

        print(f"[chaos-debug pid={os.getpid()}] {message}", file=sys.stderr, flush=True)


class _WorkerDied(Exception):
    """Internal: a worker process exited while the coordinator awaited its RPC."""

    def __init__(self, wid: int, exitcode) -> None:
        super().__init__(f"worker {wid} died (exitcode {exitcode})")
        self.wid = wid
        self.exitcode = exitcode


class ProcessCoordinator(SimulatedNetwork):
    """A :class:`SimulatedNetwork` whose handlers run in worker processes."""

    def __init__(
        self,
        worker_init: WorkerInit,
        wal_dir=None,
        join_seconds: float = 5.0,
        **network_kwargs,
    ) -> None:
        super().__init__(node_count=worker_init.node_count, **network_kwargs)
        self.workers = worker_init.workers
        self._worker_init = worker_init
        self._wal_dir = wal_dir
        self._join_seconds = join_seconds
        self._ctx = multiprocessing.get_context("spawn")
        #: Per-worker result pipes (read ends), parallel to the command
        #: queues.  Results deliberately do NOT share one queue: a shared
        #: ``mp.Queue`` serialises every writer through one cross-process
        #: lock, and a chaos SIGKILL landing between a worker's last pipe
        #: write and its lock release (a wide window on a loaded box) would
        #: leave the lock held forever, wedging every surviving worker's
        #: next ``put``.  A private pipe per worker means a kill can only
        #: tear the victim's own channel, which recovery discards anyway.
        self._result_readers: List = []
        self._recv_backlog: deque = deque()
        self._command_queues: List = []
        self._processes: List = []
        self._delivery_ids = itertools.count(1)
        self._rpc_ids = itertools.count(1)
        #: Dispatched-but-unapplied deliveries: delivery_id -> (wid, command),
        #: in dispatch order (the order a worker executes them in).
        self._deliveries: Dict[int, tuple] = {}
        #: The same deliveries as a heap of (arrival, seq, completion,
        #: delivery_id, node): the application order.
        self._pending: List[tuple] = []
        latency = self.latency_model.latency
        nodes = range(self.node_count)
        #: L of the dispatch rule: the minimum latency between distinct nodes.
        self._min_remote_latency = min(
            (latency(src, dst) for src in nodes for dst in nodes if src != dst),
            default=float("inf"),
        )
        #: Results read off the pipes before their turn to be applied.
        self._results: Dict[int, tuple] = {}
        #: RPC replies that arrived while waiting for a different rpc id
        #: (only possible around worker recovery, when a replayed flush/clear
        #: re-emits its reply under the original id).
        self._rpc_replies: Dict[int, object] = {}
        self._closed = False
        #: Chaos plane: pending deterministic SIGKILLs as (virtual_time, wid),
        #: sorted; fired at application time when the clock passes them.
        self._pending_kills: List[tuple] = []
        self.worker_kills = 0
        self.worker_respawns = 0
        self.worker_respawn_retries = 0
        self._respawn_plan = None
        self._respawn_supervisor = None
        for wid in range(self.workers):
            self._spawn(wid)

    # -- worker lifecycle ---------------------------------------------------------
    def _worker_init_for(self, wid: int) -> WorkerInit:
        base = self._worker_init
        wal_path = None
        if self._wal_dir is not None:
            wal_path = os.path.join(str(self._wal_dir), f"worker{wid}.cmdlog")
        return WorkerInit(
            wid=wid,
            workers=base.workers,
            node_count=base.node_count,
            plan=base.plan,
            strategy=base.strategy,
            batch_policy=base.batch_policy,
            partitioner=base.partitioner,
            traced=base.traced,
            flight=base.flight,
            wal_path=wal_path,
        )

    def _spawn(self, wid: int) -> None:
        command_queue = self._ctx.Queue()
        reader, writer = self._ctx.Pipe(duplex=False)
        process = self._ctx.Process(
            target=worker_main,
            args=(self._worker_init_for(wid), command_queue, writer),
            name=f"repro-worker-{wid}",
            daemon=True,
        )
        process.start()
        # Drop our copy of the write end: the child now holds the only one,
        # so a dead worker's pipe reads EOF instead of blocking forever.
        writer.close()
        if wid < len(self._command_queues):
            old_reader = self._result_readers[wid]
            if old_reader is not None:
                try:
                    old_reader.close()
                except OSError:  # pragma: no cover - already closed
                    pass
            self._command_queues[wid] = command_queue
            self._result_readers[wid] = reader
            self._processes[wid] = process
        else:
            self._command_queues.append(command_queue)
            self._result_readers.append(reader)
            self._processes.append(process)

    def worker_for(self, node: int) -> int:
        return node % self.workers

    def worker_pids(self) -> List[int]:
        """OS pids of the live worker processes."""
        return [process.pid for process in self._processes]

    # -- chaos plane: deterministic worker kills + supervised respawn -----------------
    def schedule_worker_kill(self, at_time: float, wid: int) -> None:
        """SIGKILL worker ``wid`` when the virtual clock first passes ``at_time``.

        The kill point is a *virtual-time* coordinate, so a seeded chaos plan
        reproduces the same kill at the same logical point on every run; the
        per-worker command WAL then makes the respawn invisible to results.
        """
        if self._wal_dir is None:
            raise SimulationError(
                "worker kill injection needs wal_dir (a killed worker without "
                "a command WAL is unrecoverable)"
            )
        if not 0 <= wid < self.workers:
            raise SimulationError(f"no worker {wid} (pool size {self.workers})")
        heapq.heappush(self._pending_kills, (at_time, wid))

    def set_respawn_chaos(self, plan, supervisor_policy=None) -> None:
        """Install respawn fault injection + a bounded supervised retry budget.

        ``plan`` is a :class:`~repro.chaos.plan.ChaosPlan`; its ``respawn``
        spec dooms a worker's first N respawn attempts (the fresh process is
        SIGKILLed while replaying its WAL).  Retries back off with
        deterministic jitter and are bounded by the policy's ``max_attempts``.
        """
        from repro.chaos.supervisor import RetryPolicy, Supervisor

        self._respawn_plan = plan
        self._respawn_supervisor = Supervisor(
            policy=supervisor_policy or RetryPolicy(),
            seed=plan.seed if plan is not None else 0,
        )

    def _fire_due_kills(self) -> None:
        """Deliver every scheduled SIGKILL whose virtual time has arrived.

        A kill only fires while its victim has no dispatched-but-unapplied
        delivery.  The victim is then blocked reading its command queue,
        between two commands: its WAL holds exactly the commands whose
        results were applied, and its private result pipe holds no
        half-written reply.  A kill due while the victim is busy stays
        pending and fires at the first application after the victim's last
        result — still a deterministic point, because dispatch decisions and
        application order depend only on virtual time, never on which reply
        happens to arrive first.
        """
        while self._pending_kills and self._pending_kills[0][0] <= self._now:
            at_time, wid = self._pending_kills[0]
            if any(owner == wid for owner, _ in self._deliveries.values()):
                break
            heapq.heappop(self._pending_kills)
            process = self._processes[wid]
            if process.pid is None or not process.is_alive():
                continue
            try:
                os.kill(process.pid, signal.SIGKILL)
            except ProcessLookupError:  # pragma: no cover - lost the race
                continue
            self.worker_kills += 1
            _chaos_debug(f"kill fired wid={wid} victim_pid={process.pid} now={self._now}")
            if self.tracer is not None:
                from repro.obs.trace import CONTROL_PID

                self.tracer.instant(
                    CONTROL_PID,
                    f"kill-worker:{wid}",
                    "chaos",
                    sim_ts=self._now,
                    args={"scheduled_at": at_time, "os_pid": process.pid},
                )

    # -- unsupported control surface -----------------------------------------------
    def _schedule_fault(self, kind: str, node: int, at_time) -> None:
        raise SimulationError(
            "crash/recover events are not supported by the process backend "
            "(worker death recovery goes through the per-worker command WAL)"
        )

    def schedule_control(self, callback: Callable[[float], None], at_time=None) -> None:
        raise SimulationError("control events are not supported by the process backend")

    # -- the run loop ---------------------------------------------------------------
    def run(self, until: Optional[float] = None):
        if until is not None:
            raise SimulationError("the process backend runs to quiescence only")
        while True:
            self._dispatch()
            # With nothing unapplied the front is always dispatchable, so an
            # empty heap here means an empty queue: quiescence.
            if not self._pending:
                return self.stats
            self._apply_next()

    def _dispatch(self) -> None:
        """Pop and dispatch queue fronts while the dispatch rule allows it."""
        queue = self._queue
        pending = self._pending
        busy_until = self._node_busy_until
        remote_latency = self._min_remote_latency
        while queue:
            entry = queue[0]
            arrival, seq, message = entry
            key = (arrival, seq)
            if not isinstance(message, Message):
                if not isinstance(message, _GhostDelivery):
                    raise SimulationError(
                        f"unsupported event {type(message).__name__} on the process backend"
                    )
                if pending and pending[0][:2] < key:
                    return
                # A chaos-injected duplicate wire copy: suppressed at
                # delivery, exactly like the in-process engine — no clock
                # advance, no event count, no handler dispatch.
                heapq.heappop(queue)
                if self._chaos is not None:
                    self._chaos.on_ghost(message.message, arrival)
                continue
            dst = message.dst
            horizon = None  # earliest completion of a preceding unapplied delivery
            stop = None  # key of the earliest later unapplied delivery
            later = 0  # unapplied deliveries that sort after the front
            for p_arrival, p_seq, p_completion, _, p_node in pending:
                p_key = (p_arrival, p_seq)
                if p_node == dst:
                    if p_key > key:
                        raise SimulationError(
                            f"node {dst} already has a later delivery {p_key} in flight "
                            f"ahead of {key}: dispatch order broke"
                        )
                    return  # the same node's predecessor must be applied first
                if p_key < key:
                    if horizon is None or p_completion < horizon:
                        horizon = p_completion
                else:
                    later += 1
                    if stop is None or p_key < stop:
                        stop = p_key
            start = busy_until[dst]
            if arrival > start:
                start = arrival
            if horizon is not None and start >= horizon + remote_latency:
                return
            heapq.heappop(queue)
            absorbed = self._drain(message, start, stop, horizon)
            if absorbed is None:
                heapq.heappush(queue, entry)
                return
            updates = message.updates
            self._count_event(message)
            if absorbed:
                updates = list(updates)
                for _, _, head in absorbed:
                    self._count_event(head)
                    updates.extend(head.updates)
                self.coalesced_deliveries += len(absorbed)
            completion = start + self.processing_cost * max(len(updates), 1)
            busy_until[dst] = completion
            self._handouts += 1
            # The front's serial hand-out ordinal, when provable (rule 3).
            ordinal = None
            if horizon is None or arrival <= horizon:
                ordinal = self._handouts - later
            delivery_id = next(self._delivery_ids)
            wid = dst % self.workers
            command = (
                "deliver", delivery_id, dst, message.port, tuple(updates), completion, ordinal
            )
            self._deliveries[delivery_id] = (wid, command)
            heapq.heappush(pending, (arrival, seq, completion, delivery_id, dst))
            self._command_queues[wid].put(command)

    def _drain(self, message: Message, start: float, stop, horizon) -> Optional[list]:
        """Pop the queue entries ``message``'s delivery coalesces with.

        ``SimulatedNetwork._coalesce_ready``'s rule — the contiguous front
        run for the same (destination, port) arriving by ``start``, up to
        ``max_batch`` updates — cut at ``stop``, the key of the earliest
        later unapplied delivery.  Returns ``None``, with the queue as it
        was, when the drain would absorb an arrival at or after ``horizon``:
        the delivery must then wait (see the module docstring).
        """
        policy = self.batch_policy
        if not policy.batches_port(message.port) or policy.max_batch <= 1:
            return []
        queue = self._queue
        dst = message.dst
        port = message.port
        size = len(message.updates)
        absorbed = []
        while queue and size < policy.max_batch:
            entry = queue[0]
            arrival, seq, head = entry
            if (
                not isinstance(head, Message)
                or head.dst != dst
                or head.port != port
                or arrival > start
                or (stop is not None and (arrival, seq) > stop)
            ):
                break
            if horizon is not None and arrival >= horizon:
                for taken in absorbed:
                    heapq.heappush(queue, taken)
                return None
            heapq.heappop(queue)
            absorbed.append(entry)
            size += len(head.updates)
        return absorbed

    def _count_event(self, message: Message) -> None:
        """The serial loop's per-event bookkeeping and budget checks."""
        self._events_processed += 1
        if self._events_processed > self.max_events:
            raise SimulationBudgetExceeded(
                f"exceeded {self.max_events} events; the computation is not converging"
            )
        if (
            self._wall_deadline is not None
            and self._events_processed % 32 == 0
            and time.monotonic() > self._wall_deadline
        ):
            raise SimulationBudgetExceeded(
                f"exceeded the wall-clock budget of {self.max_wall_seconds} seconds"
            )
        if message.epoch < self.current_epoch:
            self.stats.stale_epoch_messages += 1

    def _apply_next(self) -> None:
        """Wait for the earliest-keyed unapplied delivery's result and apply it."""
        _, _, completion, delivery_id, _ = self._pending[0]
        result = self._await_result(delivery_id)
        heapq.heappop(self._pending)
        del self._deliveries[delivery_id]
        self._now = completion
        self.stats.record_time(completion)
        if self._pending_kills:
            self._fire_due_kills()
        _, _, _, outbox, handler_seconds, prov_bytes, prov_count = result
        self.handler_seconds += handler_seconds
        if prov_count:
            self.stats.record_provenance(prov_bytes, prov_count)
        for src, dst, port, updates, size_bytes, sent_at in outbox:
            self._push_encoded(src, dst, port, updates, size_bytes, sent_at)

    def _await_result(self, delivery_id: int) -> tuple:
        """Block until ``delivery_id``'s result is in; park everyone else's."""
        while True:
            # Re-check the parked results every pass: a worker-death recovery
            # triggered from ``_next_result_item`` drains the result pipes
            # into ``self._results``, so the result being waited on here can
            # appear in the dict without ever coming back as a fresh item.
            result = self._results.pop(delivery_id, None)
            if result is not None:
                return result
            item = self._next_result_item()
            if item is None:
                continue
            kind = item[0]
            if kind == "result":
                if item[1] == delivery_id:
                    return item
                self._results[item[1]] = item
            elif kind == "error":
                raise SimulationError(f"worker {item[2]} failed:\n{item[3]}")
            else:
                raise SimulationError(f"unexpected {kind!r} reply during a run")

    def _queue_get(self, timeout: float):
        """One item from any worker's result pipe; ``Empty`` on timeout.

        Drains one item per ready pipe into a backlog so no worker starves.
        A pipe that reads EOF (dead worker, fully drained) or a torn pickle
        (killed mid-``send``) is closed and dropped here; the caller's
        liveness checks notice the death itself and trigger recovery, which
        installs the respawned incarnation's fresh pipe.
        """
        if self._recv_backlog:
            return self._recv_backlog.popleft()
        readers = [
            reader
            for reader in self._result_readers
            if reader is not None and not reader.closed
        ]
        ready = multiprocessing.connection.wait(readers, timeout) if readers else ()
        for reader in ready:
            try:
                self._recv_backlog.append(reader.recv())
            except (EOFError, OSError, pickle.UnpicklingError):
                wid = self._result_readers.index(reader)
                try:
                    reader.close()
                except OSError:  # pragma: no cover - already closed
                    pass
                self._result_readers[wid] = None
        if not self._recv_backlog:
            raise queue_module.Empty
        return self._recv_backlog.popleft()

    def _next_result_item(self):
        """One blocking read of the result pipes, with liveness checks.

        Returns ``None`` after recovering a dead worker: the recovery drains
        the pipes into ``self._results``, so the result the caller waits for
        may be parked there already with no fresh item ever to follow —
        the caller must look again instead of polling on.
        """
        polls = 0
        while True:
            try:
                return self._queue_get(_POLL_SECONDS)
            except queue_module.Empty:
                polls += 1
                if polls % 20 == 0 and os.environ.get("REPRO_CHAOS_DEBUG"):
                    _chaos_debug(
                        "stalled: unapplied="
                        + repr(
                            [
                                (did, owner)
                                for did, (owner, _) in self._deliveries.items()
                            ][:8]
                        )
                        + f" results={sorted(self._results)[:8]}"
                        + f" rpc_replies={sorted(self._rpc_replies)[:8]}"
                        + f" backlog={len(self._recv_backlog)}"
                        + " readers="
                        + repr(
                            [
                                None if r is None else ("closed" if r.closed else r.fileno())
                                for r in self._result_readers
                            ]
                        )
                        + f" alive={[p.is_alive() for p in self._processes]}"
                    )
                if (
                    self._wall_deadline is not None
                    and time.monotonic() > self._wall_deadline
                ):
                    raise SimulationBudgetExceeded(
                        f"exceeded the wall-clock budget of {self.max_wall_seconds} "
                        "seconds while waiting on workers"
                    )
                dead = [
                    wid for wid, process in enumerate(self._processes) if not process.is_alive()
                ]
                for wid in dead:
                    self._recover_worker(wid)
                if dead:
                    return None

    def _push_encoded(self, src, dst, port, updates, size_bytes, sent_at) -> None:
        """Replay one worker-recorded send — the body of ``SimulatedNetwork.send``.

        Same message construction, byte accounting, FIFO watermark update and
        sequence-number assignment; no flow arrows (the matching handler span
        lives in a worker's trace, not here).
        """
        if not updates:
            raise SimulationError("refusing to send an empty message")
        message = Message(
            src=src, dst=dst, port=port, updates=tuple(updates),
            size_bytes=size_bytes, sent_at=sent_at, epoch=self.current_epoch,
        )
        self.stats.record_message(message)
        arrival = sent_at + self.latency_model.latency(src, dst)
        if self._chaos is not None and src != dst:
            # Same hook point as ``SimulatedNetwork.send``: after latency,
            # before the FIFO clamp — sends replay here in the serial order,
            # so the per-channel decision streams line up across backends.
            arrival = self._chaos.apply(message, sent_at, arrival)
        fifo_key = (src, dst)
        watermark = self._last_delivery.get(fifo_key, 0.0)
        if watermark > arrival:
            arrival = watermark
        self._last_delivery[fifo_key] = arrival
        heapq.heappush(self._queue, (arrival, next(self._sequence), message))

    # -- worker death recovery -------------------------------------------------------
    def _recover_worker(self, wid: int, pending_rpc=None) -> None:
        """Respawn a dead worker and rebuild its state from the command WAL.

        ``pending_rpc`` is the ``(rpc_id, command)`` the coordinator was
        awaiting when the death was noticed (``None`` on the delivery path).
        If the dying worker logged that command, the replay re-emits its reply
        under the original id; otherwise the command is re-issued — exactly
        one reply per rpc id either way.
        """
        process = self._processes[wid]
        exitcode = process.exitcode
        _chaos_debug(
            f"recover wid={wid} dead_pid={process.pid} exitcode={exitcode} "
            f"pending_rpc={pending_rpc[0] if pending_rpc else None}"
        )
        if self._wal_dir is None:
            raise SimulationError(
                f"worker {wid} died (exitcode {exitcode}) and no wal_dir is "
                "configured; state is unrecoverable"
            )
        # Results the dead worker already shipped are still sitting in the
        # result pipes; pull them in before deciding what is unacknowledged.
        while True:
            try:
                item = self._queue_get(0)
            except queue_module.Empty:
                break
            if item[0] == "result":
                self._results[item[1]] = item
            elif item[0] == "rpc":
                self._rpc_replies[item[1]] = item[3]
            elif item[0] == "error":
                raise SimulationError(f"worker {item[2]} failed:\n{item[3]}")
        process.join(timeout=self._join_seconds)
        unacked = [
            (delivery_id, command)
            for delivery_id, (owner, command) in self._deliveries.items()
            if owner == wid and delivery_id not in self._results
        ]
        unacked_rpcs = frozenset()
        if pending_rpc is not None and pending_rpc[0] not in self._rpc_replies:
            unacked_rpcs = frozenset({pending_rpc[0]})
        recovered = self._supervised_respawn(wid, unacked, unacked_rpcs)
        self.worker_respawns += 1
        for delivery_id, command in unacked:
            if delivery_id not in recovered:
                self._command_queues[wid].put(command)
                _chaos_debug(f"re-put delivery {delivery_id} -> wid={wid}")
        if (
            pending_rpc is not None
            and pending_rpc[0] not in recovered
            and pending_rpc[0] not in self._rpc_replies
        ):
            # The command never reached the WAL (a read, or a flush/clear
            # that died pre-log); RPCs are quiescent-point idempotent, so
            # re-issue it verbatim.
            self._command_queues[wid].put(pending_rpc[1])

    def _supervised_respawn(self, wid: int, unacked, unacked_rpcs):
        """Respawn ``wid`` and run its WAL replay, retrying under a budget.

        Each attempt spawns a fresh process and asks it to replay; the chaos
        plan may doom the first N attempts by SIGKILLing the fresh process
        while the replay runs (the satellite double fault).  Replay restarts
        are safe — the WAL is only read, replies are re-emitted under their
        original ids, and duplicate result items are keyed by delivery id —
        so a retry reruns the whole replay idempotently.  Exhausting the
        budget raises ``SimulationError`` (bounded: never an infinite respawn
        loop).
        """
        plan = self._respawn_plan
        supervisor = self._respawn_supervisor
        forced = plan.forced_respawn_failures(wid) if plan is not None else 0
        max_attempts = supervisor.policy.max_attempts if supervisor is not None else 1
        attempt = 0
        while True:
            attempt += 1
            self._spawn(wid)
            replay_id = next(self._rpc_ids)
            # A doomed attempt carries the fault in the replay command itself:
            # the fresh worker self-SIGKILLs after replaying one WAL entry,
            # at a deterministic point between sends.  A coordinator-side
            # SIGKILL here would race the worker's replay progress and could
            # tear the result pipe mid-``send``.
            self._command_queues[wid].put(
                (
                    "replay",
                    replay_id,
                    frozenset(delivery_id for delivery_id, _ in unacked),
                    unacked_rpcs,
                    1 if attempt <= forced else None,
                )
            )
            _chaos_debug(
                f"respawn wid={wid} attempt={attempt} new_pid={self._processes[wid].pid} "
                f"replay_id={replay_id} unacked={len(unacked)} doom={attempt <= forced}"
            )
            try:
                recovered = self._wait_rpc(replay_id, wid)
                _chaos_debug(f"replay acked wid={wid} replay_id={replay_id}")
                return recovered
            except _WorkerDied as died:
                if attempt >= max_attempts:
                    raise SimulationError(
                        f"worker {wid} died again during WAL replay (exitcode "
                        f"{died.exitcode}) and the respawn budget "
                        f"({max_attempts} attempts) is exhausted; state is "
                        "unrecoverable"
                    ) from None
                self.worker_respawn_retries += 1
                self._processes[wid].join(timeout=self._join_seconds)
                delay = supervisor.backoff(f"respawn:{wid}", attempt)
                time.sleep(min(delay, 0.2))

    # -- RPCs (quiescent points only) --------------------------------------------------
    def _wait_rpc(self, rpc_id: int, wid: int):
        while True:
            # Checked every pass, not just on entry: recovery drains can park
            # the awaited reply in ``self._rpc_replies`` mid-wait.
            if rpc_id in self._rpc_replies:
                return self._rpc_replies.pop(rpc_id)
            try:
                item = self._queue_get(_POLL_SECONDS)
            except queue_module.Empty:
                if not self._processes[wid].is_alive():
                    raise _WorkerDied(wid, self._processes[wid].exitcode)
                continue
            kind = item[0]
            if kind == "rpc":
                if item[1] == rpc_id:
                    return item[3]
                self._rpc_replies[item[1]] = item[3]
            elif kind == "result":
                # Replayed deliveries re-emitted during WAL recovery.
                self._results[item[1]] = item
            elif kind == "error":
                raise SimulationError(f"worker {item[2]} failed:\n{item[3]}")
            else:
                raise SimulationError(f"unexpected {kind!r} reply to rpc {rpc_id}")

    def rpc(self, workers: Iterable[int], op: str, *payload) -> List:
        """One quiescent-point request/response exchange with each of ``workers``.

        Every request is sent before any reply is awaited, so the workers
        serve them concurrently; replies come back in ``workers`` order.
        """
        if self._pending:
            raise SimulationError(f"rpc {op!r} attempted with deliveries in flight")
        requests = []
        for wid in workers:
            rpc_id = next(self._rpc_ids)
            command = (op, rpc_id) + payload
            self._command_queues[wid].put(command)
            requests.append((wid, rpc_id, command))
        replies = []
        for wid, rpc_id, command in requests:
            while True:
                try:
                    replies.append(self._wait_rpc(rpc_id, wid))
                    break
                except _WorkerDied:
                    self._recover_worker(wid, pending_rpc=(rpc_id, command))
        return replies

    def broadcast(self, op: str, *payload) -> List:
        """The same RPC to every worker; replies ordered by worker id."""
        return self.rpc(range(self.workers), op, *payload)

    # -- eager-flush protocol ------------------------------------------------------------
    def flush_eager_ships(self) -> int:
        """One cluster-wide MinShip timer tick at a quiescent point.

        Workers flush their nodes and return per-node outbox segments; the
        segments are applied **sorted by node id across all workers**, because
        that is the order the in-process engine's flush loop visits nodes in —
        and sequence numbers are assigned at send time.
        """
        segments = []
        released = 0
        for reply in self.broadcast("flush", self._now):
            worker_segments, worker_released, prov_bytes, prov_count = reply
            segments.extend(worker_segments)
            released += worker_released
            if prov_count:
                self.stats.record_provenance(prov_bytes, prov_count)
        segments.sort(key=lambda segment: segment[0])
        for _, outbox in segments:
            for src, dst, port, updates, size_bytes, sent_at in outbox:
                self._push_encoded(src, dst, port, updates, size_bytes, sent_at)
        return released

    # -- post-mortem flight-ring collection ----------------------------------------------
    def collect_flight_rings(self, recorder, timeout: float = 2.0) -> int:
        """Best-effort collection of the workers' flight-recorder rings.

        Called when a run is already aborting (phase failure, budget overrun),
        so the quiescent-RPC discipline is deliberately relaxed: requests go to
        every *live* worker, replies are drained until ``timeout`` with
        unrelated queue items dropped, dead or silent workers are skipped, and
        nothing here ever raises.  Collected records are absorbed into
        ``recorder`` with the same per-worker pid stride the traced path uses,
        so the dump renders like a merged trace.  Returns the number of
        workers whose rings were absorbed.
        """
        pending: Dict[int, int] = {}
        try:
            for wid, process in enumerate(self._processes):
                if not process.is_alive():
                    continue
                rpc_id = next(self._rpc_ids)
                try:
                    self._command_queues[wid].put(("flight", rpc_id))
                except (ValueError, OSError):
                    continue
                pending[rpc_id] = wid
        except Exception:
            return 0
        collected = 0
        deadline = time.monotonic() + timeout
        while pending and time.monotonic() < deadline:
            try:
                item = self._queue_get(0.1)
            except (queue_module.Empty, ValueError, OSError):
                continue
            try:
                if item[0] != "rpc" or item[1] not in pending:
                    continue
                wid = pending.pop(item[1])
                payload = item[3]
                if payload is None:
                    continue
                records, t0, os_pid = payload
                recorder.absorb_records(
                    records,
                    t0,
                    pid_offset=(wid + 1) * TRACE_PID_STRIDE,
                    label=f"worker {wid}, pid {os_pid}",
                )
                collected += 1
            except Exception:
                continue
        return collected

    # -- shutdown -----------------------------------------------------------------------
    def close(self) -> None:
        """Stop the worker pool (idempotent; also wired to executor close)."""
        if self._closed:
            return
        self._closed = True
        for command_queue in self._command_queues:
            try:
                command_queue.put(("shutdown",))
            except (ValueError, OSError):
                pass
        for process in self._processes:
            process.join(timeout=self._join_seconds)
            if process.is_alive():
                process.terminate()
        for command_queue in self._command_queues:
            command_queue.close()
            command_queue.cancel_join_thread()
        for reader in self._result_readers:
            if reader is None:
                continue
            try:
                reader.close()
            except OSError:
                pass

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass
