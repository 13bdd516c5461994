"""Compact, manager-independent serialization of BDDs.

A :class:`~repro.bdd.manager.BDD` handle is only meaningful inside the manager
that hash-consed it, so provenance annotations cannot be checkpointed (or
shipped to another process) as-is.  This module flattens a BDD into a
self-contained :class:`SerializedBDD` — the reachable decision nodes in
bottom-up order, packed as ``(variable, low, high)`` triples into one
``array('I')`` buffer, over *variable names* rather than manager-local
indices.  The buffer pickles as a single bytes object.

Deserialization rebuilds the function bottom-up.  A node whose variable sits
above both rebuilt children in the target manager's order is already reduced
and ordered there, so it is hash-consed directly with ``NodeTable.make``;
any other node is composed as ``ite(var, high, low)`` through the apply
machinery.  That keeps round-trips safe even when the target manager declares
its variables in a different order than the source manager did (the node ids
differ, but the function — and therefore the absorption-provenance semantics —
is identical).
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from typing import Hashable, List, Tuple as PyTuple

from repro.bdd.manager import BDD, BDDManager
from repro.bdd.node import FALSE, TRUE


@dataclass(frozen=True)
class SerializedBDD:
    """A manager-independent description of a Boolean function.

    ``nodes`` holds the decision nodes in bottom-up (children-first) order,
    three entries per node: ``name_ref, low_ref, high_ref``.  Node references
    use a uniform encoding: ``0`` is the FALSE terminal, ``1`` the TRUE
    terminal, and ``i + 2`` refers to the ``i``-th node.  ``names`` is the
    table of variable names in the source manager's order; ``name_ref``
    indexes it.
    """

    names: PyTuple[Hashable, ...]
    nodes: array
    root: int

    @property
    def node_count(self) -> int:
        """Number of decision nodes in the serialized function."""
        return len(self.nodes) // 3

    def __hash__(self) -> int:
        return hash((self.names, self.nodes.tobytes(), self.root))


def serialize_bdd(bdd: BDD) -> SerializedBDD:
    """Flatten ``bdd`` into a :class:`SerializedBDD` (shared subgraphs kept shared).

    The traversal holds raw node ids, which is safe because it performs no
    kernel operations: the manager's compacting GC only runs at the end of a
    public operation, so the table cannot be renumbered mid-walk.  The node
    order is a low-first post-order of the graph, so equal functions in
    managers with the same variable order serialize equal.

    The name table is emitted in the *source manager's variable order* (not
    traversal-discovery order), so deserialization into a fresh manager
    declares the variables in the same relative order and every node takes
    the direct ``make`` path.
    """
    root = bdd.node
    if root <= TRUE:
        return SerializedBDD((), array("I"), root)
    manager = bdd.manager
    table = manager._table
    var_arr = table._var
    low_arr = table._low
    high_arr = table._high
    refs = {FALSE: FALSE, TRUE: TRUE}  # manager node id -> serialized reference
    flat: List[int] = []  # (var index, low_ref, high_ref) per node
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
    ordered = sorted(set(flat[0::3]))
    position = {var: index for index, var in enumerate(ordered)}
    flat[0::3] = [position[var] for var in flat[0::3]]
    names = tuple(manager.name_of(var) for var in ordered)
    return SerializedBDD(names, array("I", flat), refs[root])


def deserialize_bdd(serialized: SerializedBDD, manager: BDDManager) -> BDD:
    """Rebuild the serialized function inside ``manager``.

    Unknown variable names are declared on the fly, in name-table order;
    known names reuse the manager's existing variables, so annotations
    restored after a restart keep referring to the same base tuples.

    The rebuild works on raw node ids with automatic collection deferred, so
    no compaction can renumber them mid-rebuild; only the root is wrapped in a
    handle, before the deferral ends.
    """
    root = serialized.root
    if root <= TRUE:
        return manager.true if root == TRUE else manager.false
    nodes = serialized.nodes
    with manager.defer_gc():
        variables = [manager.variable(name).node for name in serialized.names]
        table = manager._table
        var_arr = table._var
        make = table.make
        ite = manager._ite
        built = [FALSE, TRUE]
        append = built.append
        for index in range(0, len(nodes), 3):
            var_node = variables[nodes[index]]
            low = built[nodes[index + 1]]
            high = built[nodes[index + 2]]
            var = var_arr[var_node]
            if var < var_arr[low] and var < var_arr[high]:
                append(make(var, low, high))
            else:
                append(ite(var_node, high, low))
        return BDD(manager, built[root])
