"""Recovery policies: how a crashed processor node rejoins the computation.

Two policies are implemented, matching the two halves of the paper's story:

**Checkpoint + replay** (``RecoveryPolicy.CHECKPOINT_REPLAY``).  The node's
state is restored from its latest durable checkpoint and brought forward by
replaying the write-ahead log suffix (every update batch delivered after the
checkpoint).  Messages that arrived during downtime were held by their
reliable channels and are redelivered afterwards.  Replay re-emits messages
the node already sent before crashing; that is safe because the maintenance
algebra is *idempotent* — a receiver disjoins the duplicate derivation into
provenance it already holds, notices nothing changed, and suppresses it.

**Provenance purge** (``RecoveryPolicy.PROVENANCE_PURGE``).  The node is
declared dead: its live base tuples are absorbed cluster-wide as base-tuple
deletions — exactly the paper's zero-out-the-variable path, driven through
the normal ``purge`` port — and held messages towards it are dropped
(connection teardown), except externally injected base data, which the node's
own sub-network redelivers.  On recovery the node restarts *cold*: the
recovery manager installs fresh incarnation versions for the purged base
tuples (their old variables are tombstoned everywhere), re-injects the node's
live base relation from the log, and asks every surviving peer to reseed the
restarted partition — re-routing the live edge copies and base-case tuples it
owned (:meth:`~repro.engine.runtime.ProcessorNode.reseed_base_into`) and
re-shipping everything their MinShips had already sent it
(:meth:`~repro.engine.runtime.ProcessorNode.reship_sent_to`).

The purge broadcast and the failure detection itself are control-plane
actions (injected, not metered); all reseed traffic flows through the normal
ship path and is therefore counted in the bytes-shipped metric, which is what
the churn benchmark compares across policies.
"""

from __future__ import annotations

import enum
import weakref
from typing import TYPE_CHECKING, Dict, List, Optional

from repro.data.batch import UpdateBatch
from repro.data.update import Update, UpdateType
from repro.engine.runtime import PORT_BASE, PORT_PURGE, PORT_SEED
from repro.net.message import Message
from repro.net.simulator import FaultListener

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.fault.executor import FaultTolerantExecutor


class RecoveryPolicy(enum.Enum):
    """How a crashed node's state is reconstructed."""

    CHECKPOINT_REPLAY = "checkpoint-replay"
    PROVENANCE_PURGE = "provenance-purge"

    @staticmethod
    def by_name(name: str) -> "RecoveryPolicy":
        """Look up a policy by its CLI label."""
        normalised = name.strip().lower().replace("_", "-").replace(" ", "-")
        for policy in RecoveryPolicy:
            if policy.value == normalised:
                return policy
        raise ValueError(f"unknown recovery policy: {name!r}")


class RecoveryManager(FaultListener):
    """The failure detector + recovery coordinator for one executor run."""

    def __init__(self, executor: "FaultTolerantExecutor", policy: RecoveryPolicy) -> None:
        #: Weak: the executor owns this manager, and a strong back-reference
        #: would leave a closed run to CPython's cyclic collector.
        self.executor = weakref.proxy(executor)
        self.policy = policy
        self.crash_count = 0
        self.recovery_count = 0
        #: Variable keys retired by purge-policy failure handling (tombstones).
        self._purged_variables: set = set()
        #: Per-node pending version bumps installed on the next cold restart.
        self._pending_versions: Dict[int, Dict[object, int]] = {}
        #: Diagnostics: one record per recovery, consumed by tests/harness.
        self.recovery_log: List[Dict[str, object]] = []

    def _span(self, node_id: int, name: str, now: float):
        """Open a ``fault``-category span on the node's track (None when untraced).

        The network already emits the crash/recover *instants*; these spans
        cover the recovery *work* — purge fan-out, checkpoint restore, WAL
        replay, peer reseed — so a trace shows where recovery time goes.
        """
        tracer = self.executor.network.tracer
        if tracer is None:
            return None, None
        return tracer, tracer.begin(
            node_id, name, "fault", sim_ts=now, args={"policy": self.policy.value}
        )

    # -- FaultListener protocol ------------------------------------------------------
    def on_crash(self, node_id: int, now: float) -> None:
        self.crash_count += 1
        if self.policy is RecoveryPolicy.PROVENANCE_PURGE:
            tracer, span = self._span(node_id, "crash-purge", now)
            self._purge_dead_base(node_id, now)
            if tracer is not None:
                tracer.end(span)
            from repro.obs.trace import maybe_dump_flight

            maybe_dump_flight(f"crash-purge node {node_id}")

    def on_recover(self, node_id: int, now: float) -> None:
        self.recovery_count += 1
        tracer, span = self._span(node_id, "recovery", now)
        if self.policy is RecoveryPolicy.CHECKPOINT_REPLAY:
            self._restore_and_replay(node_id, now)
        else:
            self._cold_restart(node_id, now)
        if tracer is not None:
            tracer.end(span)

    def should_redeliver(self, message: Message) -> bool:
        if self.policy is RecoveryPolicy.CHECKPOINT_REPLAY:
            return True
        # Provenance purge tears down peer channels to the dead node; only the
        # node's own sub-network (externally injected base data) redelivers.
        return message.src == message.dst and message.port in (PORT_BASE, PORT_SEED)

    # -- provenance-purge policy -------------------------------------------------------
    def _purge_dead_base(self, node_id: int, now: float) -> None:
        """Absorb the dead node's live base tuples as deletions, cluster-wide."""
        executor = self.executor
        live_edges, live_seeds, versions = executor.wal.live_base_state(node_id)
        dead_tuples = list(live_edges) + list(live_seeds)
        purges: List[Update] = []
        bumped: Dict[object, int] = dict(versions)
        for tuple_ in dead_tuples:
            version = versions.get(tuple_.key, 0)
            variable_key = (tuple_.key, version)
            self._purged_variables.add(variable_key)
            bumped[tuple_.key] = version + 1
            purges.append(
                Update(UpdateType.DEL, tuple_, provenance=variable_key, timestamp=now)
            )
        executor.wal.note_incarnation_bump(node_id, (t.key for t in dead_tuples))
        self._pending_versions[node_id] = bumped
        if not purges:
            return
        for peer in executor.nodes:
            if peer.node_id == node_id or executor.network.is_down(peer.node_id):
                continue
            executor.network.inject(peer.node_id, PORT_PURGE, purges, at_time=now)

    def _cold_restart(self, node_id: int, now: float) -> None:
        """Provenance-purge recovery: fresh node, fresh incarnations, peer reseed."""
        executor = self.executor
        node = executor.rebuild_node(node_id)
        node.set_base_versions(self._pending_versions.pop(node_id, {}))
        # Tombstone resync: the restarted node missed every purge broadcast
        # during its downtime; the union of the survivors' tombstones (plus
        # the purges this manager issued) is exactly what it must know about.
        tombstones = set(self._purged_variables)
        for peer in executor.nodes:
            if peer.node_id != node_id and not executor.network.is_down(peer.node_id):
                tombstones.update(peer.deletion_tombstones())
        node.add_deletion_tombstones(tombstones)

        reseeded = 0
        for peer in executor.nodes:
            if peer.node_id == node_id or executor.network.is_down(peer.node_id):
                continue
            peer_edges, peer_seeds, _ = executor.wal.live_base_state(peer.node_id)
            reseeded += peer.reseed_base_into(node_id, peer_edges, peer_seeds, now)
            reseeded += peer.reship_sent_to(node_id, now)

        # The node's own sub-network re-pushes its live base data (as of the
        # crash) with the bumped incarnation versions; data that arrived
        # during downtime follows as held injections.  Reinjection uses the
        # executor's batch policy, same as the normal workload path.
        live_edges, live_seeds, _ = executor.wal.live_base_state(node_id)
        replayed = 0
        for port, tuples in ((PORT_BASE, live_edges), (PORT_SEED, live_seeds)):
            if not tuples:
                continue
            batch = UpdateBatch(Update(UpdateType.INS, t, timestamp=now) for t in tuples)
            for chunk in batch.chunks(executor.batch_policy.injection_chunk(port)):
                executor.network.inject(node_id, port, chunk, at_time=now)
            replayed += len(batch)
        self.recovery_log.append(
            {
                "node": node_id,
                "policy": self.policy.value,
                "time": now,
                "reseeded_updates": reseeded,
                "reinjected_base": replayed,
            }
        )

    # -- checkpoint+replay policy ----------------------------------------------------
    def _restore_and_replay(
        self, node_id: int, now: float, replay_limit: Optional[int] = None
    ) -> None:
        """Restore the latest checkpoint and replay the WAL suffix through the node.

        ``replay_limit`` truncates the replay after that many entries — the
        chaos plane's model of the node dying *mid-replay*.  A later attempt
        is safe because recovery always starts from ``rebuild_node``: the
        partial state is discarded and the full restore+replay reruns from
        the durable checkpoint, exactly once.
        """
        executor = self.executor
        node = executor.rebuild_node(node_id)
        snapshot = executor.checkpoints.latest(node_id)
        restored_sequence = 0
        if snapshot is not None:
            node.restore_state(snapshot.state)
            restored_sequence = snapshot.wal_sequence
        replayed = 0
        for entry in executor.wal.replay(node_id, after_sequence=restored_sequence):
            if replay_limit is not None and replayed >= replay_limit:
                break
            # Replay bypasses the durability shim: the entries are already
            # logged, and their re-emitted outputs are absorbed downstream.
            node.handle(entry.port, entry.updates, now)
            replayed += 1
        self.recovery_log.append(
            {
                "node": node_id,
                "policy": self.policy.value,
                "time": now,
                "checkpoint_sequence": restored_sequence,
                "replayed_entries": replayed,
            }
        )
