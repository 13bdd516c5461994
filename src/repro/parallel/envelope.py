"""Wire protocol between the coordinator and its worker processes.

Everything that crosses a pipe is a plain tuple whose first element names the
operation, so the protocol stays picklable and versionless.  Each worker has
two private pipes, one per direction; nothing is shared between workers, so
no cross-process lock or feeder thread sits on either path.

Commands (coordinator → worker, the worker's private command pipe)::

    ("deliver", delivery_id, node, port, updates, now, ordinal)  # run one handler
    ("flush",   rpc_id, now)                             # eager MinShip tick
    ("clear_join_left", rpc_id, node)                    # DRed re-derivation
    ("views" | "view_size" | "view_annotations" | "state_bytes"
            | "kernel_stats" | "metrics" | "routing", rpc_id)  # quiescent reads
    ("trace",   rpc_id)                                  # tracer records (drain / ring snapshot)
    ("explain", rpc_id, view_tuple)                      # one tuple's canonical products
    ("census",  rpc_id)                                  # kernel GC census (traced runs)
    ("replay",  rpc_id, unacked_delivery_ids, unacked_rpc_ids, doom_after)  # WAL recovery

The coordinator writes commands without ever blocking: what does not fit in
the pipe waits in a per-worker buffer and is flushed from the same poll that
reads results, so a worker blocked writing a large result can never wedge a
coordinator blocked writing it a command.  There is no shutdown command: a
worker exits when its command pipe reads EOF.

Results (worker → coordinator, the worker's private result pipe)::

    ("result", delivery_id, wid, outbox, handler_seconds, prov_bytes, prov_count)
    ("rpc",    rpc_id, wid, payload)
    ("error",  ref_id, wid, traceback_text)

``ordinal`` is the delivery's serial hand-out ordinal, from which its
handler's BDD variable ranks derive, or ``None`` when the coordinator cannot
prove it (see :mod:`repro.parallel.scheduler`, rule 3).

``outbox`` entries are ``(src, dst, port, wire_updates, size_bytes,
sent_at)`` — every ``network.send`` the handler performed, in call order.
The coordinator never looks inside ``wire_updates``; it only counts them:

* A send to a node on another worker encodes its annotations through the
  store codec
  (:meth:`~repro.provenance.tracker.ProvenanceStore.encode_annotation`), so
  they are manager-independent, and pickles the encoded batch once into one
  :class:`Payload`.  The wire carries ``len(updates)`` references to it, and
  the coordinator forwards its bytes without rebuilding an update or tuple.
* A send to a node on the *same* worker never leaves it: the updates stay in
  the worker's stash as live handles and the wire carries one
  :class:`StashRef` per update.

The coordinator replays the entries into its own event queue in exactly the
order the single-process engine would have, which is what makes
sequence-number assignment (and therefore the whole run) bit-identical.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.data.update import Update

#: Synthetic-pid stride per worker when merging worker trace records: every
#: worker's synthetic tracks (bdd-kernel, cluster-control) shift by
#: ``(wid + 1) * TRACE_PID_STRIDE`` so no two processes interleave spans on
#: one track (flow ids shift by the same offset ``<< 32``).
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
    #: The worker tracer's ``capacity`` (``None`` = unbounded store, N = ring
    #: of N records per pid), or ``0`` for no tracer: a store that keeps
    #: nothing is no store.
    trace_capacity: Optional[int] = 0
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


class Payload:
    """Stands in, on the wire, for one update of a cross-worker send.

    The sending worker pickles the send's encoded updates once into ``data``
    (see ``WorkerNetwork.send``); like :class:`StashRef`, the message carries
    ``len(updates)`` references to one ``Payload``, so update counts,
    coalescing and processing costs see the real batch size.  The coordinator
    only moves the bytes, and the delivering worker expands them with one
    :meth:`updates`.
    """

    __slots__ = ("data",)

    def __init__(self, data: bytes) -> None:
        self.data = data

    @classmethod
    def pack(cls, updates: Sequence[Update]) -> "Payload":
        return cls(pickle.dumps(tuple(updates), pickle.HIGHEST_PROTOCOL))

    def updates(self) -> Tuple[Update, ...]:
        return pickle.loads(self.data)

    def __reduce__(self):
        return Payload, (self.data,)
