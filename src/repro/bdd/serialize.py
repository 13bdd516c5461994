"""Compact, manager-independent serialization of BDDs.

A :class:`~repro.bdd.manager.BDD` handle is only meaningful inside the manager
that hash-consed it, so provenance annotations cannot be checkpointed (or
shipped to another process) as-is.  This module flattens a BDD into a
self-contained :class:`SerializedBDD` — the reachable decision nodes in
bottom-up order, packed as ``(variable, low, high)`` triples into one
``array('I')`` buffer, over *variable names* rather than manager-local node
ids, with each name's *rank* (its level in the source manager) alongside.
The buffers pickle as bytes objects.

Levels are global ranks, not creation order (see
:class:`~repro.bdd.manager.BDDManager`): every manager of a run puts a shared
name at the same level.  Deserialization is therefore a relabel.  Unknown
names are declared at their carried ranks, and every node is hash-consed
directly with ``NodeTable.make``, already reduced and ordered in the target;
no apply operation runs.  A known name at another level, or a node whose
variable does not sit above both rebuilt children, means the two managers
disagree on the order, and raises :class:`~repro.bdd.manager.BDDError`.
Checkpoint restore, migration slices, cross-worker messages and worker-WAL
replay all decode through this one path.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Hashable, List, Tuple as PyTuple

from repro.bdd.manager import BDD, BDDError, BDDManager
from repro.bdd.node import FALSE, TRUE


@dataclass(frozen=True)
class SerializedBDD:
    """A manager-independent description of a Boolean function.

    ``nodes`` holds the decision nodes in bottom-up (children-first) order,
    three entries per node: ``name_ref, low_ref, high_ref``.  Node references
    use a uniform encoding: ``0`` is the FALSE terminal, ``1`` the TRUE
    terminal, and ``i + 2`` refers to the ``i``-th node.  ``names`` is the
    table of variable names in level order and ``ranks`` their levels;
    ``name_ref`` indexes both.
    """

    names: PyTuple[Hashable, ...]
    ranks: array
    nodes: array
    root: int

    @property
    def node_count(self) -> int:
        """Number of decision nodes in the serialized function."""
        return len(self.nodes) // 3

    def __hash__(self) -> int:
        return hash((self.names, self.ranks.tobytes(), self.nodes.tobytes(), self.root))


def serialize_bdd(bdd: BDD) -> SerializedBDD:
    """Flatten ``bdd`` into a :class:`SerializedBDD` (shared subgraphs kept shared).

    The traversal holds raw node ids, which is safe because it performs no
    kernel operations: the manager's compacting GC only runs at the end of a
    public operation, so the table cannot be renumbered mid-walk.  The node
    order is a low-first post-order of the graph, so equal functions over the
    same levels serialize equal.
    """
    root = bdd.node
    if root <= TRUE:
        return SerializedBDD((), array("Q"), array("I"), root)
    manager = bdd.manager
    table = manager._table
    var_arr = table._var
    low_arr = table._low
    high_arr = table._high
    refs = {FALSE: FALSE, TRUE: TRUE}  # manager node id -> serialized reference
    flat: List[int] = []  # (level, low_ref, high_ref) per node
    # The stack is always a path from the root, so no node is pushed twice.
    stack = [root]
    while stack:
        node = stack[-1]
        low_ref = refs.get(low_arr[node])
        if low_ref is None:
            stack.append(low_arr[node])
            continue
        high_ref = refs.get(high_arr[node])
        if high_ref is None:
            stack.append(high_arr[node])
            continue
        stack.pop()
        refs[node] = len(flat) // 3 + 2
        flat += (var_arr[node], low_ref, high_ref)
    levels = sorted(set(flat[0::3]))
    position = {level: index for index, level in enumerate(levels)}
    flat[0::3] = [position[level] for level in flat[0::3]]
    names = tuple(manager.name_of(level) for level in levels)
    return SerializedBDD(names, array("Q", levels), array("I", flat), refs[root])


def deserialize_bdd(serialized: SerializedBDD, manager: BDDManager) -> BDD:
    """Rebuild the serialized function inside ``manager``: a relabel, no apply.

    Unknown variable names are declared at their carried ranks; known names
    must already sit there, so annotations restored after a restart keep
    referring to the same base tuples at the same place in the order.

    The rebuild works on raw node ids with automatic collection deferred, so
    no compaction can renumber them mid-rebuild; only the root is wrapped in a
    handle, before the deferral ends.
    """
    root = serialized.root
    if root <= TRUE:
        return manager.true if root == TRUE else manager.false
    levels = serialized.ranks.tolist()
    nodes = serialized.nodes
    with manager.defer_gc():
        level_of = manager._index_by_name.get
        for name, rank in zip(serialized.names, levels):
            level = level_of(name)
            if level is None:
                manager.variable(name, rank)
            elif level != rank:
                raise BDDError(
                    f"variable {name!r} sits at level {level} here "
                    f"but was encoded at rank {rank}"
                )
        table = manager._table
        var_arr = table._var
        make = table.make
        built = [FALSE, TRUE]
        append = built.append
        for index in range(0, len(nodes), 3):
            var = levels[nodes[index]]
            low = built[nodes[index + 1]]
            high = built[nodes[index + 2]]
            if var >= var_arr[low] or var >= var_arr[high]:
                raise BDDError(f"encoded node at rank {var} is not above its children")
            append(make(var, low, high))
        return BDD(manager, built[root])
