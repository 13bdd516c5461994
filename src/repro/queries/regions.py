"""Query 3 — contiguous triggered sensor regions (the "largest region" query).

Datalog, as in Section 2 of the paper::

    activeRegion(rid, x) :- sensor(x, posx), mainSensorInRegion(rid, x), isTriggered(x).
    activeRegion(rid, y) :- sensor(x, posx), sensor(y, posy), isTriggered(x),
                            activeRegion(rid, x), distance(posx, posy) < k.
    regionSizes(rid, count<x>) :- activeRegion(rid, x).
    largestRegion(max<size>)   :- regionSizes(rid, size).
    largestRegions(rid)        :- regionSizes(rid, size), largestRegion(size).

For distributed execution we factor the recursion the same way the paper's
engine does: the non-recursive subgoals (``sensor`` positions, trigger state,
the ``distance < k`` predicate) collapse into a **proximity** base relation
whose tuples ``proximity(src, dst)`` say "``src`` is triggered and ``dst`` is
within ``k`` metres of it", and the seeds (``mainSensorInRegion`` of triggered
reference sensors) enter the view directly.  Trigger / untrigger events on a
sensor become insertions / deletions of its incident proximity edges and seed
tuples (see :mod:`repro.workloads.sensors`), so region membership is
maintained incrementally like any other recursive view.

The final aggregates (``regionSizes``, ``largestRegion``, ``largestRegions``)
are provided as helpers over the materialised view.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, Iterable, List, Optional, Set

from repro.data.tuples import Tuple, make_schema
from repro.engine.plan import RecursiveViewPlan

#: ``proximity(src, dst)`` — ``src`` is a triggered sensor and ``dst`` lies
#: within ``k`` metres of it; partitioned by ``src``.
PROXIMITY_SCHEMA = make_schema("proximity", ["src", "dst"])
#: ``activeRegion(sensor, region)`` — sensor membership in a contiguous
#: region, partitioned by ``sensor`` (the recursive join attribute).
ACTIVE_REGION_SCHEMA = make_schema("activeRegion", ["sensor", "region"])


def proximity(src: Any, dst: Any) -> Tuple:
    """Build a proximity edge tuple."""
    return PROXIMITY_SCHEMA.tuple(src, dst)


def active_region(sensor: Any, region: Any) -> Tuple:
    """Build an ``activeRegion`` membership tuple."""
    return ACTIVE_REGION_SCHEMA.tuple(sensor, region)


def _recursive_case(edge: Tuple, view: Tuple) -> Optional[Tuple]:
    """``activeRegion(rid, y) :- proximity(x, y), activeRegion(rid, x)``."""
    return active_region(edge["dst"], view["region"])


def region_plan() -> RecursiveViewPlan:
    """The distributed plan for Query 3.

    The base case is provided by *seed* tuples (triggered reference sensors)
    inserted directly into the view via
    :meth:`repro.engine.executor.DistributedViewExecutor.insert_seeds`, so the
    plan itself has no edge-derived base case.
    """
    return RecursiveViewPlan(
        name="activeRegion",
        edge_schema=PROXIMITY_SCHEMA,
        result_schema=ACTIVE_REGION_SCHEMA,
        edge_join_attribute="src",
        result_join_attribute="sensor",
        make_base=None,
        combine=_recursive_case,
    )


# -- final aggregates over the materialised view --------------------------------------

def region_sizes(memberships: Iterable[Tuple]) -> Dict[Any, int]:
    """``regionSizes(rid, count(sensor))``: number of member sensors per region."""
    members: Dict[Any, Set[Any]] = defaultdict(set)
    for membership in memberships:
        members[membership["region"]].add(membership["sensor"])
    return {region: len(sensors) for region, sensors in members.items()}


def largest_regions(memberships: Iterable[Tuple]) -> List[Any]:
    """``largestRegions(rid)``: every region achieving the maximum size."""
    memberships = list(memberships)
    sizes = region_sizes(memberships)
    if not sizes:
        return []
    maximum = max(sizes.values())
    return sorted((region for region, size in sizes.items() if size == maximum), key=str)


def members_of(memberships: Iterable[Tuple], region: Any) -> Set[Any]:
    """The set of sensors currently in ``region``."""
    return {m["sensor"] for m in memberships if m["region"] == region}
