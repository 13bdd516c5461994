"""Insertion / deletion schedules for the experiments.

The experiments of Section 7 are parameterised by an *insertion ratio* (what
fraction of the base tuples has been inserted so far — Figures 7, 9, 11) and a
*deletion ratio* (what fraction of the inserted tuples is subsequently deleted
— Figures 8, 10, 12).  These helpers derive deterministic, seeded prefixes and
samples from a base-tuple list so every scheme sees exactly the same workload.
The schedules work on any item sequence: the region figures stage sensor ids
and turn each batch into base tuples with the sensor workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, List, Sequence, Tuple as PyTuple

from repro.data.tuples import Tuple


def insertion_prefix(tuples: Sequence[Tuple], ratio: float) -> List[Tuple]:
    """The first ``ratio`` fraction of ``tuples`` (the insertion workload)."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("insertion ratio must be in [0, 1]")
    count = round(len(tuples) * ratio)
    return list(tuples[:count])


def deletion_sample(tuples: Sequence[Tuple], ratio: float, seed: int = 13) -> List[Tuple]:
    """A deterministic random sample of ``ratio`` of ``tuples`` (the deletion workload)."""
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("deletion ratio must be in [0, 1]")
    count = round(len(tuples) * ratio)
    rng = random.Random(seed)
    indexes = sorted(rng.sample(range(len(tuples)), count))
    return [tuples[index] for index in indexes]


@dataclass(frozen=True)
class UpdateSchedule:
    """A full experiment schedule: insertions followed by deletion batches.

    ``insert_batches`` and ``delete_batches`` are lists of tuple batches; the
    harness applies each batch as one phase and records its metrics, which is
    how the paper's per-ratio data points are produced.
    """

    insert_batches: PyTuple[PyTuple[Tuple, ...], ...]
    delete_batches: PyTuple[PyTuple[Tuple, ...], ...]

    @staticmethod
    def staged_insertions(tuples: Sequence[Tuple], ratios: Iterable[float]) -> "UpdateSchedule":
        """Insert growing prefixes: each batch adds the tuples new at that ratio."""
        return UpdateSchedule(insert_batches=_prefix_batches(tuples, ratios), delete_batches=())

    @staticmethod
    def staged_deletions(tuples: Sequence[Tuple], ratios: Iterable[float]) -> "UpdateSchedule":
        """Delete growing prefixes of already-inserted ``tuples``, in their order."""
        return UpdateSchedule(insert_batches=(), delete_batches=_prefix_batches(tuples, ratios))

    @staticmethod
    def insert_then_delete(
        tuples: Sequence[Tuple],
        insertion_ratio: float,
        deletion_ratios: Iterable[float],
        seed: int = 13,
    ) -> "UpdateSchedule":
        """Insert a prefix, then delete growing fractions of it batch by batch."""
        inserted = insertion_prefix(tuples, insertion_ratio)
        delete_batches: List[PyTuple[Tuple, ...]] = []
        already: set = set()
        for ratio in deletion_ratios:
            target = deletion_sample(inserted, ratio, seed=seed)
            new = tuple(t for t in target if t not in already)
            already.update(new)
            delete_batches.append(new)
        return UpdateSchedule(
            insert_batches=(tuple(inserted),), delete_batches=tuple(delete_batches)
        )

    @property
    def total_insertions(self) -> int:
        """Total number of tuples inserted across batches."""
        return sum(len(batch) for batch in self.insert_batches)

    @property
    def total_deletions(self) -> int:
        """Total number of tuples deleted across batches."""
        return sum(len(batch) for batch in self.delete_batches)


def _prefix_batches(
    tuples: Sequence[Tuple], ratios: Iterable[float]
) -> PyTuple[PyTuple[Tuple, ...], ...]:
    """The tuples new at each ratio when growing prefixes of ``tuples``."""
    batches: List[PyTuple[Tuple, ...]] = []
    previous = 0
    for ratio in ratios:
        count = round(len(tuples) * ratio)
        if count < previous:
            raise ValueError("schedule ratios must be non-decreasing")
        batches.append(tuple(tuples[previous:count]))
        previous = count
    return tuple(batches)
