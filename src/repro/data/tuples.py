"""Schemas and immutable named tuples.

Tuples are the unit of data exchanged between operators and nodes.  They are
immutable and hashable so that they can be used directly as keys in the
provenance hash tables of the Fixpoint / join / MinShip operators
(Algorithms 1-4 in the paper), and they know how to estimate their own wire
size so the harness can report communication overhead in bytes.

Tuples are hash-consed, as BDD nodes are in :class:`~repro.bdd.node.NodeTable`:
:meth:`Schema.tuple` returns one shared instance per distinct
``(schema, values)``, so a delta stream that re-derives the same tuple many
times pays for its hash, key and wire size once.  The executor empties the
table when it closes (:func:`clear_interned_tuples`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, Iterator, Mapping, Sequence, Tuple as PyTuple


class SchemaError(Exception):
    """Raised when a tuple does not match its relation schema."""


@dataclass(frozen=True)
class Schema:
    """An ordered list of attribute names for a named relation.

    The paper's convention (Section 2) is that a relation is horizontally
    partitioned on its *first* attribute unless stated otherwise;
    ``partition_attribute`` records which attribute that is.
    """

    relation: str
    attributes: PyTuple[str, ...]
    partition_attribute: str = ""

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError(f"schema for {self.relation!r} has no attributes")
        if len(set(self.attributes)) != len(self.attributes):
            raise SchemaError(f"schema for {self.relation!r} has duplicate attributes")
        partition = self.partition_attribute or self.attributes[0]
        if partition not in self.attributes:
            raise SchemaError(
                f"partition attribute {partition!r} not in schema of {self.relation!r}"
            )
        object.__setattr__(self, "partition_attribute", partition)
        # Attribute positions, precomputed: tuple field access is the hottest
        # lookup in the engine (join keys, partition values, group keys).
        object.__setattr__(
            self, "_index", {attribute: i for i, attribute in enumerate(self.attributes)}
        )
        object.__setattr__(self, "_tuples", _INTERNED.setdefault(self, {}))

    def __getstate__(self):
        return (self.relation, self.attributes, self.partition_attribute)

    def __setstate__(self, state):
        relation, attributes, partition = state
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "attributes", attributes)
        object.__setattr__(self, "partition_attribute", partition)
        object.__setattr__(
            self, "_index", {attribute: i for i, attribute in enumerate(attributes)}
        )
        object.__setattr__(self, "_tuples", _INTERNED.setdefault(self, {}))

    @property
    def arity(self) -> int:
        """Number of attributes."""
        return len(self.attributes)

    def index_of(self, attribute: str) -> int:
        """Position of ``attribute`` in the schema (raises SchemaError if absent)."""
        try:
            return self._index[attribute]
        except KeyError as exc:
            raise SchemaError(
                f"attribute {attribute!r} not in schema of {self.relation!r}"
            ) from exc

    def tuple(self, *values: Any, **named: Any) -> "Tuple":
        """The interned :class:`Tuple` of this schema with these values.

        Positional or named values; the first call for a ``values`` builds
        the tuple, later ones return that same instance.  The table is one
        per process, shared by every executor in it, and closing any executor
        empties it (:func:`clear_interned_tuples`): tuples already handed out
        stay valid and equal to the ones built later, they are just no longer
        shared.  Values that compare equal (``1``, ``1.0``, ``True``) share
        the instance built first in the process, so a tuple's value types,
        and with them its wire size and ``repr``, are those of that first
        build: keep an attribute's type consistent within a process.
        """
        if named:
            if values:
                raise SchemaError("pass either positional or named values, not both")
            try:
                values = tuple(named[attribute] for attribute in self.attributes)
            except KeyError as exc:
                raise SchemaError(f"missing attribute {exc.args[0]!r}") from exc
        table = self._tuples
        interned = table.get(values)
        if interned is None:
            if len(values) != len(self.attributes):
                raise SchemaError(
                    f"{self.relation!r} expects {self.arity} values, got {len(values)}"
                )
            interned = table[values] = Tuple(self, values)
        return interned


#: The tuple intern table: one ``values -> Tuple`` dict per distinct schema.
#: Keyed by schema *value*, so a schema unpickled in another process shares
#: the dict of its original, and two schemas that differ in any field (a
#: shared relation name included) never share one.  Each schema caches its
#: dict at construction, which keeps :meth:`Schema.tuple` to one probe.
_INTERNED: Dict[Schema, Dict[PyTuple[Any, ...], "Tuple"]] = {}


def clear_interned_tuples() -> None:
    """Empty the process's intern table; tuples already handed out stay valid."""
    for table in _INTERNED.values():
        table.clear()


def _interned(schema: Schema, values: PyTuple[Any, ...]) -> "Tuple":
    """Unpickling hook: the receiving process's instance for ``(schema, values)``."""
    return schema.tuple(*values)


def _value_size(value: Any) -> int:
    """Estimated wire size of a single attribute value in bytes.

    A string costs its UTF-8 length; an ASCII one, such as a node name, is
    measured without encoding it.
    """
    if isinstance(value, str):
        return len(value) if value.isascii() else len(value.encode("utf-8"))
    if value is None or isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 8
    if isinstance(value, (tuple, list, frozenset, set)):
        return 4 + sum(map(_value_size, value))
    return 16


class Tuple:
    """An immutable tuple of a given :class:`Schema`.

    Tuples are the engine's universal dictionary key (``P`` tables, join
    indexes, MinShip buffers), so their identity operations are hot paths: a
    plain ``__slots__`` class, the hash computed once in the constructor,
    attribute access through the schema's precomputed position table, and
    the ``key``/wire-size values memoised on first use (``None`` until then).

    Build tuples with :meth:`Schema.tuple`, which interns them: one instance
    per distinct ``(schema, values)``, so equality is mostly an ``is`` test
    and the hash, key and size are computed once per distinct tuple.
    Unpickling interns too, in the receiving process.  A ``Tuple(schema,
    values)`` built directly is not interned but equal to, and hashed like,
    the interned one: the hash is ``hash((relation, values))`` either way.
    Values must be hashable; treat instances as immutable.
    """

    __slots__ = ("schema", "values", "_hash", "_key", "_size")

    def __init__(self, schema: Schema, values: PyTuple[Any, ...]) -> None:
        self.schema = schema
        self.values = values
        self._hash = hash((schema.relation, values))
        self._key = None
        self._size = None

    def __getitem__(self, attribute: str) -> Any:
        try:
            return self.values[self.schema._index[attribute]]
        except KeyError as exc:
            raise SchemaError(
                f"attribute {attribute!r} not in schema of {self.relation!r}"
            ) from exc

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Tuple):
            return NotImplemented
        return self.values == other.values and (
            self.schema is other.schema or self.schema == other.schema
        )

    def get(self, attribute: str, default: Any = None) -> Any:
        """Value of ``attribute``, or ``default`` if the schema lacks it."""
        if attribute in self.schema._index:
            return self[attribute]
        return default

    @property
    def relation(self) -> str:
        """Name of the relation this tuple belongs to."""
        return self.schema.relation

    @property
    def key(self) -> PyTuple[Any, ...]:
        """Hashable identity used in provenance hash tables: (relation, values)."""
        key = self._key
        if key is None:
            key = self._key = (self.schema.relation,) + self.values
        return key

    @property
    def partition_value(self) -> Any:
        """Value of the schema's partition attribute (where the tuple lives)."""
        return self[self.schema.partition_attribute]

    def project(self, schema: Schema, attributes: Sequence[str]) -> "Tuple":
        """Project this tuple onto ``attributes`` producing a tuple of ``schema``."""
        return schema.tuple(*(self[attribute] for attribute in attributes))

    def as_dict(self) -> Dict[str, Any]:
        """Attribute-name -> value mapping."""
        return dict(zip(self.schema.attributes, self.values))

    def replace(self, **changes: Any) -> "Tuple":
        """Return a copy with some attribute values replaced."""
        mapping = self.as_dict()
        for attribute, value in changes.items():
            if attribute not in mapping:
                raise SchemaError(
                    f"attribute {attribute!r} not in schema of {self.relation!r}"
                )
            mapping[attribute] = value
        return self.schema.tuple(**mapping)

    def size_bytes(self) -> int:
        """Estimated wire size of the tuple payload (no provenance), memoised."""
        size = self._size
        if size is None:
            size = self._size = 4 + sum(map(_value_size, self.values))
        return size

    def __reduce__(self):
        return (_interned, (self.schema, self.values))

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __repr__(self) -> str:
        rendered = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({rendered})"


def make_schema(relation: str, attributes: Iterable[str], partition_attribute: str = "") -> Schema:
    """Convenience function mirroring the paper's ``relation(attr, ...)`` notation."""
    return Schema(relation, tuple(attributes), partition_attribute)
