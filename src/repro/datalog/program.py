"""Datalog programs: rule collections with EDB/IDB classification."""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Set, Tuple

from repro.datalog.ast import Rule

#: A database maps predicate names to sets of fact value-tuples.
Database = Dict[str, Set[Tuple]]


class Program:
    """An ordered collection of rules."""

    def __init__(self, rules: Iterable[Rule]) -> None:
        self.rules: Tuple[Rule, ...] = tuple(rules)

    # -- predicate classification ---------------------------------------------------
    @property
    def idb_predicates(self) -> FrozenSet[str]:
        """Predicates defined by some rule head (intensional)."""
        return frozenset(rule.head.predicate for rule in self.rules)

    @property
    def edb_predicates(self) -> FrozenSet[str]:
        """Predicates that only appear in rule bodies (extensional / base data)."""
        heads = self.idb_predicates
        body_preds: Set[str] = set()
        for rule in self.rules:
            body_preds.update(rule.body_predicates())
        return frozenset(body_preds - heads)

    @property
    def predicates(self) -> FrozenSet[str]:
        """Every predicate mentioned anywhere in the program."""
        return self.idb_predicates | self.edb_predicates

    def is_recursive(self) -> bool:
        """True when some predicate (transitively) depends on itself."""
        from repro.datalog.stratify import dependency_graph, recursive_predicates

        return bool(recursive_predicates(dependency_graph(self)))

    def extend(self, rules: Iterable[Rule]) -> "Program":
        """A new program with additional rules appended."""
        return Program(self.rules + tuple(rules))

    def __iter__(self):
        return iter(self.rules)

    def __len__(self) -> int:
        return len(self.rules)

    def __repr__(self) -> str:
        return f"Program({len(self.rules)} rules, idb={sorted(self.idb_predicates)})"


def empty_database(program: Program) -> Database:
    """A database with an empty fact set for every predicate of the program."""
    return {predicate: set() for predicate in program.predicates}


def copy_database(database: Database) -> Database:
    """Deep-ish copy (new sets, shared immutable fact tuples)."""
    return {predicate: set(facts) for predicate, facts in database.items()}
