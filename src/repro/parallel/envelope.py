"""Wire protocol between the coordinator and its worker processes.

Everything that crosses a queue is a plain tuple whose first element names the
operation, so the protocol stays picklable and versionless:

Commands (coordinator → worker)::

    ("deliver", delivery_id, node, port, updates, now, ordinal)  # run one handler
    ("flush",   rpc_id, now)                             # eager MinShip tick
    ("clear_join_left", rpc_id, node)                    # DRed re-derivation
    ("views" | "view_size" | "view_annotations" | "state_bytes"
            | "kernel_stats" | "metrics" | "routing" | "trace", rpc_id)  # quiescent reads
    ("explain", rpc_id, view_tuple)                      # one tuple's canonical products
    ("flight",  rpc_id)                                  # flight-recorder ring snapshot
    ("collect", rpc_id, force)                           # kernel GC pass
    ("replay",  rpc_id, unacked_delivery_ids, unacked_rpc_ids, doom_after)  # WAL recovery
    ("shutdown",)

Results (worker → coordinator, one private pipe per worker)::

    ("result", delivery_id, wid, outbox, handler_seconds, prov_bytes, prov_count)
    ("rpc",    rpc_id, wid, payload)
    ("error",  ref_id, wid, traceback_text)

``ordinal`` is the delivery's serial hand-out ordinal, from which its
handler's BDD variable ranks derive, or ``None`` when the coordinator cannot
prove it (see :mod:`repro.parallel.scheduler`, rule 3).

``outbox`` entries are ``(src, dst, port, wire_updates, size_bytes,
sent_at)`` — every ``network.send`` the handler performed, in call order.
A send to a node on another worker carries its annotations through the
store codec
(:meth:`~repro.provenance.tracker.ProvenanceStore.encode_annotation`), so
they are manager-independent.  A send to a node on the *same* worker never
leaves it: the updates stay in the worker's stash as live handles and the
wire carries one :class:`StashRef` per update.  The coordinator replays the
entries into its own event queue in exactly the order the single-process
engine would have, which is what makes sequence-number assignment (and
therefore the whole run) bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.data.update import Update

#: Synthetic-pid stride per worker when merging traces or flight rings: every
#: worker's synthetic tracks (bdd-kernel, cluster-control) shift by
#: ``(wid + 1) * TRACE_PID_STRIDE`` so no two processes interleave spans on
#: one track (flow ids shift by the same offset ``<< 32``).  Lives here —
#: the protocol layer — because both the coordinator-side scheduler and the
#: executor-side backend need it without importing each other.
TRACE_PID_STRIDE = 8


@dataclass(frozen=True)
class WorkerInit:
    """Everything a worker needs to rebuild its slice of the cluster.

    Shipped once at spawn (pickled by ``multiprocessing``); must therefore
    contain only picklable engine configuration — which is exactly the
    executor's own constructor surface.
    """

    wid: int
    workers: int
    node_count: int
    plan: Any
    strategy: Any
    batch_policy: Any
    partitioner: Any
    traced: bool = False
    #: Run a bounded flight recorder in the worker instead of a full tracer
    #: (mutually exclusive with ``traced``; rings are collected post-mortem).
    flight: bool = False
    wal_path: Optional[str] = None

    def owned_nodes(self) -> List[int]:
        """The node ids this worker hosts (round-robin by id)."""
        return [node for node in range(self.node_count) if node % self.workers == self.wid]


def encode_updates(store, updates: Sequence[Update]) -> Tuple[Update, ...]:
    """Make a batch manager-independent: annotations through the store codec.

    ``None`` provenance (injections, DRed set semantics) and value-typed
    annotations (purge variable keys, counting vectors) pass through the codec
    unchanged; only kernel-backed annotations (BDD handles) are serialized.
    """
    encoded = []
    for update in updates:
        provenance = update.provenance
        if provenance is not None:
            wire = store.encode_annotation(provenance)
            if wire is not provenance:
                update = update.with_provenance(wire)
        encoded.append(update)
    return tuple(encoded)


def decode_updates(store, updates: Sequence[Update]) -> List[Update]:
    """Rebuild a wire batch against the receiving process's own store/manager."""
    decoded = []
    for update in updates:
        provenance = update.provenance
        if provenance is not None:
            local = store.decode_annotation(provenance)
            if local is not provenance:
                update = update.with_provenance(local)
        decoded.append(update)
    return decoded


class StashRef:
    """Stands in, on the wire, for one update of a same-worker send.

    The sending worker keeps the send's updates under ``token`` (see
    ``WorkerNetwork.send``); the message carries ``len(updates)`` references
    to one ``StashRef``, so update counts, coalescing and processing costs
    see the real batch size, and the delivering worker swaps the stashed
    updates back in.
    """

    __slots__ = ("token",)

    def __init__(self, token: int) -> None:
        self.token = token

    def __reduce__(self):
        return StashRef, (self.token,)
