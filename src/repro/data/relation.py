"""Set-semantics relations and horizontally partitioned relations.

The paper assumes *set* relations (Section 3.1): duplicates are eliminated,
and recursive evaluation stops at fixpoint.  :class:`Relation` is the
centralized building block used by the Datalog substrate and by ground-truth
baselines; :class:`PartitionedRelation` models the horizontal partitioning by
key attribute used by the distributed engine (the paper's convention is to
partition on the first attribute, e.g. ``link(src, dst)`` lives at ``src``).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple as PyTuple

from repro.data.tuples import Schema, Tuple
from repro.data.update import Update, UpdateType


class Relation:
    """A mutable set of tuples sharing one schema."""

    def __init__(self, schema: Schema, tuples: Optional[Iterable[Tuple]] = None) -> None:
        self.schema = schema
        self._tuples: Set[Tuple] = set()
        if tuples:
            for tuple_ in tuples:
                self.add(tuple_)

    # -- mutation ------------------------------------------------------------
    def add(self, tuple_: Tuple) -> bool:
        """Insert a tuple; returns True if it was new."""
        self._validate(tuple_)
        if tuple_ in self._tuples:
            return False
        self._tuples.add(tuple_)
        return True

    def discard(self, tuple_: Tuple) -> bool:
        """Remove a tuple; returns True if it was present."""
        if tuple_ in self._tuples:
            self._tuples.remove(tuple_)
            return True
        return False

    def apply(self, update: Update) -> bool:
        """Apply an INS/DEL update; returns True if the relation changed."""
        if update.type is UpdateType.INS:
            return self.add(update.tuple)
        return self.discard(update.tuple)

    def clear(self) -> None:
        """Remove every tuple."""
        self._tuples.clear()

    # -- queries ---------------------------------------------------------------
    def __contains__(self, tuple_: Tuple) -> bool:
        return tuple_ in self._tuples

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples)

    def __len__(self) -> int:
        return len(self._tuples)

    def tuples(self) -> PyTuple[Tuple, ...]:
        """A stable snapshot of the current contents (sorted for determinism)."""
        return tuple(sorted(self._tuples, key=lambda t: tuple(map(_sort_key, t.values))))

    def select(self, predicate: Callable[[Tuple], bool]) -> "Relation":
        """New relation containing the tuples satisfying ``predicate``."""
        return Relation(self.schema, (t for t in self._tuples if predicate(t)))

    def values(self, attribute: str) -> Set[Any]:
        """Set of values taken by ``attribute`` across the relation."""
        return {tuple_[attribute] for tuple_ in self._tuples}

    def as_value_set(self) -> Set[PyTuple[Any, ...]]:
        """Set of raw value tuples (useful for comparisons against baselines)."""
        return {tuple_.values for tuple_ in self._tuples}

    def _validate(self, tuple_: Tuple) -> None:
        if tuple_.schema.relation != self.schema.relation or tuple_.schema.attributes != self.schema.attributes:
            raise ValueError(
                f"tuple of relation {tuple_.relation!r} does not match schema {self.schema.relation!r}"
            )

    def __repr__(self) -> str:
        return f"Relation({self.schema.relation}, {len(self._tuples)} tuples)"


def _sort_key(value: Any) -> Any:
    """Total order over heterogeneous attribute values (for deterministic snapshots)."""
    return (str(type(value).__name__), str(value))


class PartitionedRelation:
    """A relation horizontally partitioned across ``node_count`` processor nodes.

    ``placement`` maps a tuple to the node responsible for it; by default this
    hashes the schema's partition attribute, which models the DHT-style
    key-based partitioning of the paper's implementation.
    """

    def __init__(
        self,
        schema: Schema,
        node_count: int,
        placement: Optional[Callable[[Tuple], int]] = None,
    ) -> None:
        if node_count <= 0:
            raise ValueError("node_count must be positive")
        self.schema = schema
        self.node_count = node_count
        self._placement = placement or self._default_placement
        self._partitions: Dict[int, Relation] = {
            node: Relation(schema) for node in range(node_count)
        }

    def _default_placement(self, tuple_: Tuple) -> int:
        return stable_hash(tuple_.partition_value) % self.node_count

    # -- placement ----------------------------------------------------------
    def node_for(self, tuple_: Tuple) -> int:
        """Node id responsible for ``tuple_``."""
        return self._placement(tuple_)

    # -- mutation ---------------------------------------------------------------
    def add(self, tuple_: Tuple) -> bool:
        """Insert a tuple into its home partition; True if new."""
        return self._partitions[self.node_for(tuple_)].add(tuple_)

    def discard(self, tuple_: Tuple) -> bool:
        """Delete a tuple from its home partition; True if present."""
        return self._partitions[self.node_for(tuple_)].discard(tuple_)

    def apply(self, update: Update) -> bool:
        """Apply an update to the owning partition."""
        if update.type is UpdateType.INS:
            return self.add(update.tuple)
        return self.discard(update.tuple)

    # -- queries ------------------------------------------------------------------
    def partition(self, node: int) -> Relation:
        """The partition stored at ``node``."""
        return self._partitions[node]

    def __contains__(self, tuple_: Tuple) -> bool:
        return tuple_ in self._partitions[self.node_for(tuple_)]

    def __len__(self) -> int:
        return sum(len(partition) for partition in self._partitions.values())

    def __iter__(self) -> Iterator[Tuple]:
        for node in range(self.node_count):
            yield from self._partitions[node]

    def tuples(self) -> PyTuple[Tuple, ...]:
        """Deterministic snapshot of the whole relation."""
        merged = Relation(self.schema, iter(self))
        return merged.tuples()

    def partition_sizes(self) -> List[int]:
        """Number of tuples per node (load-balance diagnostics)."""
        return [len(self._partitions[node]) for node in range(self.node_count)]

    def __repr__(self) -> str:
        return (
            f"PartitionedRelation({self.schema.relation}, {len(self)} tuples, "
            f"{self.node_count} nodes)"
        )


def stable_hash(value: Any) -> int:
    """A deterministic, process-independent hash for partition placement.

    Python's builtin ``hash`` for strings is salted per process, which would
    make experiment runs non-reproducible; this uses FNV-1a over the repr.
    """
    data = repr(value).encode("utf-8")
    acc = 0xCBF29CE484222325
    for byte in data:
        acc ^= byte
        acc = (acc * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return acc
