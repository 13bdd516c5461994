"""Partitioner protocol and the consistent-hash ring with virtual nodes.

The paper's deployment maps keys to processors through a FreePastry DHT; the
seed reproduction replaced that with a stable hash *modulo the processor
count* (:class:`~repro.net.partition.HashPartitioner`).  Modulo hashing is
fine for a frozen cluster but catastrophic for an elastic one: changing the
node count remaps almost every key, so growing a cluster by one node would
migrate nearly all operator state.

:class:`ConsistentHashRing` restores the DHT's key property: each node owns
the arcs ending at its *virtual nodes* on a hash ring, so adding a node only
steals ≈ ``1/(N+1)`` of the key space (always from existing nodes, never
shuffling keys between them) and removing a node only re-homes the keys it
owned.  Virtual-node counts double as per-node *weights*, which is the lever
the load-aware rebalancer pulls: shrinking a hot node's weight sheds a
proportional share of its arcs onto its peers.

Both partitioners implement the :class:`Partitioner` protocol consumed by the
engine, so a :class:`~repro.placement.map.PlacementMap` can wrap either.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Protocol,
    Sequence,
    Tuple as PyTuple,
)

from repro.data.relation import stable_hash

_MASK64 = 0xFFFFFFFFFFFFFFFF


def ring_hash(value: Any) -> int:
    """Position of ``value`` on the 64-bit hash ring.

    ``stable_hash`` (FNV-1a) alone is unsuitable for ring placement: inputs
    differing only in their final bytes land within a narrow band of each
    other (the last byte contributes at most ``255 * FNV_prime`` ≈ 2^48 of
    spread), so structurally similar keys would move between nodes in blocks.
    A splitmix64-style finalizer diffuses every input bit across the word,
    which is what gives the ring its ≈ 1/(N+1) minimal-disruption property.
    """
    acc = stable_hash(value)
    acc = ((acc ^ (acc >> 33)) * 0xFF51AFD7ED558CCD) & _MASK64
    acc = ((acc ^ (acc >> 33)) * 0xC4CEB9FE1A85EC53) & _MASK64
    return acc ^ (acc >> 33)


class Partitioner(Protocol):
    """Maps partition-key values to processor node ids.

    Implemented by :class:`~repro.net.partition.HashPartitioner` (stable hash
    modulo a frozen node count) and :class:`ConsistentHashRing` (virtual-node
    consistent hashing, mutable membership).
    """

    @property
    def node_count(self) -> int:
        """Number of member nodes."""
        ...  # pragma: no cover - protocol

    @property
    def nodes(self) -> PyTuple[int, ...]:
        """The member node ids."""
        ...  # pragma: no cover - protocol

    def node_for(self, key: Any) -> int:
        """Processor node responsible for ``key``."""
        ...  # pragma: no cover - protocol

    def nodes_for_many(self, keys: Sequence[Any]) -> List[int]:
        """Owners of a key column, positionally parallel to ``keys``."""
        ...  # pragma: no cover - protocol


class RingError(ValueError):
    """Raised on invalid ring mutations (duplicate add, removing the last node)."""


class ConsistentHashRing:
    """Consistent hashing over virtual nodes, with per-node weights.

    Each member node contributes ``weight`` points (virtual nodes) to the
    ring; a key belongs to the node owning the first ring point clockwise of
    the key's hash.  Explicit ``overrides`` pin individual keys to nodes, for
    parity with :class:`~repro.net.partition.HashPartitioner` (the worked
    example's "node A stores src = A" convention).
    """

    def __init__(
        self,
        nodes: Iterable[int] = (),
        virtual_nodes: int = 64,
        weights: Optional[Dict[int, int]] = None,
        overrides: Optional[Dict[Any, int]] = None,
    ) -> None:
        if virtual_nodes <= 0:
            raise RingError("virtual_nodes must be positive")
        self.virtual_nodes = virtual_nodes
        self._weights: Dict[int, int] = {}
        self._overrides = dict(overrides or {})
        self._points: List[int] = []
        self._owners: List[int] = []
        weights = weights or {}
        for node in nodes:
            self._set_membership(node, weights.get(node, virtual_nodes))
        self._rebuild()

    # -- membership ----------------------------------------------------------------
    def _set_membership(self, node: int, weight: int) -> None:
        if node < 0:
            raise RingError("node ids must be non-negative")
        if weight <= 0:
            raise RingError("weight must be positive")
        self._weights[node] = weight

    def _rebuild(self) -> None:
        points: List[PyTuple[int, int]] = []
        for node, weight in self._weights.items():
            for replica in range(weight):
                points.append((ring_hash(("vnode", node, replica)), node))
        points.sort()
        self._points = [point for point, _ in points]
        self._owners = [owner for _, owner in points]

    def add_node(self, node: int, weight: Optional[int] = None) -> None:
        """Join ``node`` with ``weight`` virtual nodes (default: the ring's)."""
        if node in self._weights:
            raise RingError(f"node {node} is already on the ring")
        self._set_membership(node, self.virtual_nodes if weight is None else weight)
        self._rebuild()

    def remove_node(self, node: int) -> None:
        """Leave the ring; the node's arcs fall to its clockwise successors."""
        if node not in self._weights:
            raise RingError(f"node {node} is not on the ring")
        if len(self._weights) == 1:
            raise RingError("cannot remove the last node from the ring")
        del self._weights[node]
        self._overrides = {
            key: owner for key, owner in self._overrides.items() if owner != node
        }
        self._rebuild()

    def set_weight(self, node: int, weight: int) -> None:
        """Change a member's virtual-node count (load-aware rebalancing)."""
        if node not in self._weights:
            raise RingError(f"node {node} is not on the ring")
        self._set_membership(node, weight)
        self._rebuild()

    def weights(self) -> Dict[int, int]:
        """Current per-node virtual-node counts."""
        return dict(self._weights)

    # -- Partitioner protocol --------------------------------------------------------
    @property
    def node_count(self) -> int:
        """Number of member nodes."""
        return len(self._weights)

    @property
    def nodes(self) -> PyTuple[int, ...]:
        """The member node ids, sorted."""
        return tuple(sorted(self._weights))

    def node_for(self, key: Any) -> int:
        """Processor node responsible for ``key``."""
        if key in self._overrides:
            return self._overrides[key]
        if not self._points:
            raise RingError("the ring has no nodes")
        index = bisect_right(self._points, ring_hash(key)) % len(self._points)
        return self._owners[index]

    def nodes_for_many(self, keys: Sequence[Any]) -> List[int]:
        """Owners of a whole key column in one bulk pass (columnar routing).

        Binds the ring arrays, the override table and the hash/bisect calls
        once per batch; the result list is positionally parallel to ``keys``.
        """
        if not self._points:
            raise RingError("the ring has no nodes")
        points = self._points
        owners = self._owners
        size = len(points)
        overrides_get = self._overrides.get if self._overrides else None
        bisect = bisect_right
        hash_ = ring_hash
        result: List[int] = []
        append = result.append
        for key in keys:
            if overrides_get is not None:
                pinned = overrides_get(key)
                if pinned is not None:
                    append(pinned)
                    continue
            append(owners[bisect(points, hash_(key)) % size])
        return result

    def __call__(self, key: Any) -> int:
        return self.node_for(key)

    def assign(self, key: Any, node: int) -> None:
        """Pin ``key`` to an explicit member node."""
        if node not in self._weights:
            raise RingError(f"node {node} is not on the ring")
        self._overrides[key] = node

    def __repr__(self) -> str:
        return (
            f"ConsistentHashRing({self.node_count} nodes, "
            f"{len(self._points)} virtual nodes)"
        )
