"""Span-based tracing of the distributed engine (wall + simulated clocks).

One :class:`Tracer` records the full batch lifecycle — inject, route, admit,
operator work, kernel time, GC pauses, ship and delivery — on **per-node
tracks**, with flow events linking a message's send to its delivery and
instant events for the control plane (crash, recover, placement changes,
migrations).  :meth:`Tracer.write` renders the records as Chrome trace-event
JSON (loadable in Perfetto or ``about://tracing``) or as a JSONL structured
log.

**Two stores.**  ``Tracer()`` keeps every record (``--trace``).
``Tracer(capacity=N)`` keeps only the last ``N`` records per pid in a ring —
constant memory, cheap enough to leave on (the harness's flight recorder).
On failure — a crash-purge, a degraded node, a worker process dying, a
wall/event budget overrun, or any harness exception — :func:`maybe_dump_flight`
writes the installed tracer out through :meth:`Tracer.dump` if it has a
``dump_path``.  The process backend first folds every live worker's store into
the coordinator's (see
:meth:`repro.parallel.scheduler.ProcessCoordinator.collect_flight_rings`), so
the post-mortem covers the whole cluster.

**Records.**  Both stores hold one record shape, a list
``[ph, pid, tid, ts_us, dur_us, flow_id, name, cat, sim, args]``.  A span
enters its store when it begins (``dur_us`` is ``None`` until it ends and is
rendered as ending "now" while open), so on every track recording order is
timestamp order.  Chrome events are built only at export.

**Track layout.**  Every processor node is one trace *process* (``pid`` =
node id) with three lanes:

* ``pipeline`` (tid 1) — delivery spans and their nested admit / routing /
  operator children, exactly the four phase-time buckets the per-phase
  telemetry reports (``net``/``routing``/``operator`` categories);
* ``kernel`` (tid 2) — one aggregate span per delivery covering the wall
  time the delivery spent inside the BDD kernel loops (category ``kernel``);
* ``gc`` (tid 3) — annotation-kernel collection passes that fired while this
  node's handler was running (category ``gc``).

Three synthetic processes carry everything that is not a node:
``cluster-control`` (placement changes, migrations, injected workload),
``bdd-kernel`` (GC passes outside any handler) and ``harness`` (experiment
phases and per-run markers).

**Zero overhead off.**  With tracing off :func:`current_tracer` is ``None``;
instrumented hot paths hold that ``None`` and pay exactly one pointer
comparison per delivered batch (see
:meth:`repro.net.simulator.SimulatedNetwork.set_tracer` and
:class:`repro.engine.runtime.ProcessorNode`).  ``benchmarks/test_obs_overhead.py``
gates this.

**Clocks.**  The primary timestamp of every event is the wall clock
(microseconds since the tracer was created — what Perfetto lays out), and the
simulated clock rides along in every event's ``args`` as ``sim``, so a trace
answers both "where did the wall time go" and "when in virtual time did this
happen".
"""

from __future__ import annotations

import itertools
import json
from collections import deque
from operator import itemgetter
from time import perf_counter
from typing import Any, Dict, List, Optional

#: Per-node lanes (Chrome ``tid``).
PIPELINE_TID = 1
KERNEL_TID = 2
GC_TID = 3

#: Synthetic processes (Chrome ``pid``) for non-node tracks.  Far above any
#: plausible node id so the two namespaces never collide.
CONTROL_PID = 1 << 20
KERNEL_PID = (1 << 20) + 1
HARNESS_PID = (1 << 20) + 2

_SYNTHETIC_NAMES = {
    CONTROL_PID: "cluster-control",
    KERNEL_PID: "bdd-kernel",
    HARNESS_PID: "harness",
}

_LANE_NAMES = {PIPELINE_TID: "pipeline", KERNEL_TID: "kernel", GC_TID: "gc"}

#: Records a flight recorder retains per pid. 256 spans cover several phases
#: of context on a node while keeping a 12-node cluster's rings under ~4k
#: records.
DEFAULT_RING_CAPACITY = 256

#: The active tracer; :func:`install_tracer` swaps it, everything else reads it.
_ACTIVE: Optional["Tracer"] = None


def install_tracer(tracer: Optional["Tracer"]) -> Optional["Tracer"]:
    """Install ``tracer`` as the process-wide active tracer; returns the previous one.

    ``None`` turns tracing off.  Executors pick the active tracer up at
    construction, so install it *before* building the executor whose run
    should be traced.
    """
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = tracer
    return previous


def current_tracer() -> Optional["Tracer"]:
    """The process-wide active tracer, or ``None`` when tracing is off."""
    return _ACTIVE


class Tracer:
    """Records spans, instants and flow links into an unbounded or ring store.

    ``capacity=None`` keeps every record; a positive ``capacity`` keeps the
    last ``capacity`` records per pid.  ``dump_path`` is where
    :func:`maybe_dump_flight` writes on failure (``None`` = never dump).
    """

    def __init__(
        self, capacity: Optional[int] = None, dump_path: Optional[Any] = None
    ) -> None:
        self._t0 = perf_counter()
        self.capacity = capacity
        self.dump_path = dump_path
        self._records: List[list] = []
        #: pid -> ring of records (bounded store only).
        self._rings: Dict[int, deque] = {}
        self._evicted = 0
        self._put = self._records.append if capacity is None else self._put_ring
        #: Spans begun and not yet ended, innermost last.
        self._open: List[list] = []
        self._flow_ids = itertools.count(1)
        #: Node whose handler is currently running (for attributing GC passes
        #: fired from inside kernel operations to the right node track).
        self._context_pid: Optional[int] = None
        #: Per-pid display-name overrides (process backend: "node 3 [worker 0, pid 71002]").
        self._process_labels: Dict[int, str] = {}

    def _now_us(self) -> float:
        return (perf_counter() - self._t0) * 1e6

    def _put_ring(self, record: list) -> None:
        ring = self._rings.get(record[1])
        if ring is None:
            ring = self._rings[record[1]] = deque(maxlen=self.capacity)
        elif len(ring) == self.capacity:
            self._evicted += 1
        ring.append(record)

    # -- spans -------------------------------------------------------------------
    def begin(
        self,
        pid: int,
        name: str,
        cat: str,
        tid: int = PIPELINE_TID,
        sim_ts: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> list:
        """Open a span; returns the record to pass to :meth:`end`."""
        record = ["X", pid, tid, self._now_us(), None, None, name, cat, sim_ts, args]
        self._put(record)
        self._open.append(record)
        return record

    def end(
        self,
        span: Optional[list],
        args: Optional[Dict[str, Any]] = None,
        sim_ts: Optional[float] = None,
    ) -> None:
        """Close a span opened by :meth:`begin` (None tokens are ignored)."""
        if span is None:
            return
        span[4] = self._now_us() - span[3]
        if args or sim_ts is not None:
            merged = dict(span[9]) if span[9] else {}
            if args:
                merged.update(args)
            if sim_ts is not None:
                merged["sim_end"] = sim_ts
            span[9] = merged
        open_spans = self._open
        if open_spans and open_spans[-1] is span:
            open_spans.pop()
        else:  # out-of-order close (identity, not list equality)
            for index, record in enumerate(open_spans):
                if record is span:
                    del open_spans[index]
                    break

    def instant(
        self,
        pid: int,
        name: str,
        cat: str,
        tid: int = PIPELINE_TID,
        sim_ts: Optional[float] = None,
        args: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Record a point-in-time event (crash, recover, placement change...)."""
        self._put(["i", pid, tid, self._now_us(), None, None, name, cat, sim_ts, args])

    # -- flows (message causality) --------------------------------------------------
    def flow_start(self, pid: int, sim_ts: Optional[float] = None) -> int:
        """Open a flow arrow at the sender (inside the sender's current span)."""
        flow_id = next(self._flow_ids)
        self._put(
            ["s", pid, PIPELINE_TID, self._now_us(), None, flow_id, "msg", "flow", sim_ts, None]
        )
        return flow_id

    def flow_finish(self, flow_id: Optional[int], pid: int) -> None:
        """Land a flow arrow at the receiver (inside the delivery span)."""
        if flow_id is None:
            return
        self._put(
            ["f", pid, PIPELINE_TID, self._now_us(), None, flow_id, "msg", "flow", None, None]
        )

    # -- aggregate kernel lane ---------------------------------------------------------
    def kernel_slice(
        self, pid: int, seconds: float, sim_ts: Optional[float] = None, name: str = "kernel"
    ) -> None:
        """One aggregate kernel-time span for the delivery that just finished.

        Placed on the node's ``kernel`` lane covering the last ``seconds`` of
        wall clock: the kernel loops' cumulative share of the delivery, ending
        now.  Kept on its own lane because the kernel time interleaves with
        the operator spans on the pipeline lane (it accrues *inside* them).
        """
        if seconds <= 0.0:
            return
        duration = seconds * 1e6
        self._put(
            ["X", pid, KERNEL_TID, self._now_us() - duration, duration, None,
             name, "kernel", sim_ts, None]
        )

    # -- node context (GC attribution) ------------------------------------------------
    def set_node_context(self, pid: int) -> None:
        """Mark ``pid`` as the node whose handler is currently executing."""
        self._context_pid = pid

    def clear_node_context(self) -> None:
        self._context_pid = None

    def context_pid(self, default: int) -> int:
        """The current node context, or ``default`` outside any handler."""
        return self._context_pid if self._context_pid is not None else default

    # -- store introspection ---------------------------------------------------------
    def open_span_count(self) -> int:
        """Spans currently open (should be 0 at any quiescent point)."""
        return len(self._open)

    def finish(self) -> None:
        """Close any dangling spans (defensive; a clean run leaves none)."""
        while self._open:
            self.end(self._open[-1])

    def retained_records(self) -> int:
        """Records the store holds now."""
        if self.capacity is None:
            return len(self._records)
        return sum(len(ring) for ring in self._rings.values())

    def evicted_records(self) -> int:
        """Records a ring dropped to stay within its capacity (0 when unbounded)."""
        return self._evicted

    # -- multi-process merge --------------------------------------------------------
    def take_records(self) -> List[list]:
        """The retained records, picklable as-is, for a coordinator's :meth:`absorb`.

        Drains an unbounded store (each phase-end merge ships only what is
        new) and snapshots a ring (a post-mortem reader may ask again).
        """
        if self.capacity is None:
            records = list(self._records)
            self._records.clear()  # in place: ``_put`` is this list's append
            return records
        return [record for pid in sorted(self._rings) for record in self._rings[pid]]

    def absorb(
        self,
        records: List[list],
        t0: float,
        pid_offset: int = 0,
        label: Optional[str] = None,
    ) -> None:
        """Fold a worker tracer's :meth:`take_records` into this (coordinator) tracer.

        ``t0`` is the worker tracer's ``perf_counter`` origin; both sides of a
        process pool read ``CLOCK_MONOTONIC``, so shifting every timestamp by
        ``(t0 - self._t0)`` lands the worker's spans on the coordinator's wall
        clock.  Synthetic pids (>= :data:`CONTROL_PID` — the shared
        ``bdd-kernel``/``cluster-control`` lanes) are remapped by
        ``pid_offset`` so two workers' GC spans never interleave on one track
        and break its nesting tree; node pids are globally unique already and
        pass through untouched.  ``label`` names the absorbed tracks
        (e.g. ``"bdd-kernel [worker 1, pid 71002]"``).

        Flow ids get the same treatment: every worker tracer counts its own
        flows from 1, so two workers' arrows would collide in the merged
        timeline (Perfetto pairs ``s``/``f`` events by id — a collision draws
        arrows between unrelated deliveries).  Shifting each worker's ids by
        ``pid_offset << 32`` keeps them disjoint from every other worker's
        and from the coordinator's own counter.
        """
        offset_us = (t0 - self._t0) * 1e6
        flow_offset = pid_offset << 32
        for record in records:
            record = list(record)
            pid = record[1]
            if pid >= CONTROL_PID:
                record[1] += pid_offset
            if label is not None and record[1] not in self._process_labels:
                base = _SYNTHETIC_NAMES.get(pid) if pid >= CONTROL_PID else f"node {pid}"
                self._process_labels[record[1]] = f"{base} [{label}]"
            record[3] += offset_us
            if record[5] is not None:
                record[5] += flow_offset
            self._put(record)

    # -- export ------------------------------------------------------------------------
    def events(self) -> List[Dict[str, Any]]:
        """The retained records as Chrome events (open spans end now).

        An unbounded store renders in recording order, so a per-track
        timestamp regression in the file means interleaved writers.  Rings
        evict per pid on their own schedules: they render merged by
        timestamp, keeping only the flows both of whose halves survived.
        """
        now = self._now_us()
        if self.capacity is None:
            records = self._records
        else:
            records = sorted(
                (record for ring in self._rings.values() for record in ring),
                key=itemgetter(3),
            )
            starts = {record[5] for record in records if record[0] == "s"}
            finishes = {record[5] for record in records if record[0] == "f"}
            paired = starts & finishes
            records = [
                record for record in records if record[5] is None or record[5] in paired
            ]
        return [_event(record, now) for record in records]

    def chrome_events(self) -> List[Dict[str, Any]]:
        """:meth:`events` behind the track-naming metadata, ready for JSON export."""
        events = self.events()
        tracks = sorted({(event["pid"], event["tid"]) for event in events})
        metadata: List[Dict[str, Any]] = []
        for pid in sorted({pid for pid, _ in tracks}):
            name = self._process_labels.get(pid) or _SYNTHETIC_NAMES.get(pid, f"node {pid}")
            metadata.append(
                {"ph": "M", "pid": pid, "tid": 0, "name": "process_name", "args": {"name": name}}
            )
            metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": 0,
                    "name": "process_sort_index",
                    "args": {"sort_index": pid},
                }
            )
        for pid, tid in tracks:
            metadata.append(
                {
                    "ph": "M",
                    "pid": pid,
                    "tid": tid,
                    "name": "thread_name",
                    "args": {"name": _LANE_NAMES.get(tid, f"lane {tid}")},
                }
            )
        return metadata + events

    def write(self, path: Any) -> str:
        """Write the trace to ``path`` — JSONL when it ends in ``.jsonl``, Chrome
        trace-event JSON otherwise; returns the path."""
        events = self.chrome_events()
        path = str(path)
        with open(path, "w", encoding="utf-8") as handle:
            if path.endswith(".jsonl"):
                for event in events:
                    handle.write(json.dumps(event, sort_keys=True))
                    handle.write("\n")
            else:
                document = {
                    "traceEvents": events,
                    "displayTimeUnit": "ms",
                    "otherData": {
                        "producer": "repro.obs",
                        "clock": "wall-us (sim time in args)",
                    },
                }
                json.dump(document, handle)
        return path

    def dump(self, path: Any, reason: str) -> str:
        """:meth:`write` behind a ``flight-dump`` mark on the harness track.

        The mark carries the failure ``reason``, the eviction count (how much
        history the rings dropped) and the ring capacity — so a post-mortem
        reader knows both *why* the dump exists and *how far back* it sees.
        """
        self.instant(
            HARNESS_PID,
            "flight-dump",
            "flight",
            args={
                "reason": reason,
                "evicted": self._evicted,
                "ring_capacity": self.capacity,
            },
        )
        return self.write(path)

    def __repr__(self) -> str:
        store = "unbounded" if self.capacity is None else f"ring {self.capacity}/pid"
        return (
            f"Tracer({store}, {self.retained_records()} retained, "
            f"{self._evicted} evicted)"
        )


def _event(record: list, now: float) -> Dict[str, Any]:
    """One record as a Chrome trace event dict."""
    ph, pid, tid, ts, dur, flow_id, name, cat, sim, args = record
    event: Dict[str, Any] = {
        "ph": ph, "pid": pid, "tid": tid, "name": name, "cat": cat, "ts": ts
    }
    if ph == "X":
        event["dur"] = now - ts if dur is None else dur
    elif ph == "i":
        event["s"] = "t"
    else:
        event["id"] = flow_id
        if ph == "f":
            event["bp"] = "e"
    if sim is not None or args:
        event_args = dict(args) if args else {}
        if sim is not None:
            event_args["sim"] = sim
        event["args"] = event_args
    return event


def maybe_dump_flight(reason: str, path: Optional[Any] = None) -> Optional[str]:
    """Dump the installed tracer, if there is one with somewhere to dump.

    The single post-mortem entry point every failure path calls (phase
    failures, crash-purges, degradation, harness exceptions): a no-op unless
    a tracer is installed with a ``dump_path`` (or an explicit ``path`` is
    given).  Returns the written path, or ``None``.
    """
    tracer = _ACTIVE
    if tracer is None:
        return None
    target = path if path is not None else tracer.dump_path
    if target is None:
        return None
    return tracer.dump(target, reason)
