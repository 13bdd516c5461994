"""Schemas and immutable named tuples.

Tuples are the unit of data exchanged between operators and nodes.  They are
immutable and hashable so that they can be used directly as keys in the
provenance hash tables of the Fixpoint / join / MinShip operators
(Algorithms 1-4 in the paper), and they know how to estimate their own wire
size so the harness can report communication overhead in bytes.
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
        """Build a :class:`Tuple` of this schema from positional or named values."""
        if named:
            if values:
                raise SchemaError("pass either positional or named values, not both")
            try:
                values = tuple(named[attribute] for attribute in self.attributes)
            except KeyError as exc:
                raise SchemaError(f"missing attribute {exc.args[0]!r}") from exc
        if len(values) != len(self.attributes):
            raise SchemaError(
                f"{self.relation!r} expects {self.arity} values, got {len(values)}"
            )
        return Tuple(self, values)


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
    plain ``__slots__`` class (constructed once per derived delta), the hash
    computed once in the constructor, attribute access through the schema's
    precomputed position table, and the ``key``/wire-size values memoised on
    first use (``None`` until then).  Values must be hashable; treat
    instances as immutable.
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
        values = tuple(self[attribute] for attribute in attributes)
        return Tuple(schema, values)

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

    def __getstate__(self):
        return (self.schema, self.values)

    def __setstate__(self, state):
        self.__init__(*state)

    def __iter__(self) -> Iterator[Any]:
        return iter(self.values)

    def __repr__(self) -> str:
        rendered = ", ".join(repr(value) for value in self.values)
        return f"{self.relation}({rendered})"


def make_schema(relation: str, attributes: Iterable[str], partition_attribute: str = "") -> Schema:
    """Convenience function mirroring the paper's ``relation(attr, ...)`` notation."""
    return Schema(relation, tuple(attributes), partition_attribute)
