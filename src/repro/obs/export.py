"""Trace loading and validation, and the metrics writer.

:meth:`~repro.obs.trace.Tracer.write` produces the two trace formats:

* **Chrome trace-event JSON** (the default, any other extension): the object
  form ``{"traceEvents": [...]}`` that Perfetto (https://ui.perfetto.dev) and
  ``about://tracing`` load directly;
* **JSONL structured event log** (``*.jsonl``): one JSON event per line, for
  ``jq``/pandas-style post-processing without loading the whole trace.

:func:`load_trace_events` reads either back.  :func:`validate_chrome_trace`
is the shared validity check used by the tests and by
``scripts/validate_trace.py`` in CI: the JSON must parse, every complete
event needs a non-negative duration, spans within a track must nest properly
(a proper tree — no partial overlap), and required categories and per-node
tracks must be present.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Optional, Sequence

#: Tolerance (microseconds) for float jitter in nesting comparisons.
_NEST_EPSILON_US = 0.5


def write_metrics_json(log: Any, path: Any) -> None:
    """Write a :class:`~repro.obs.metrics.MetricsLog` as one JSON document."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"snapshots": log.records}, handle, indent=2, sort_keys=True)


def load_trace_events(path: Any) -> List[Dict[str, Any]]:
    """Load events back from either export format."""
    if str(path).endswith(".jsonl"):
        with open(path, "r", encoding="utf-8") as handle:
            return [json.loads(line) for line in handle if line.strip()]
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, dict):
        events = data.get("traceEvents")
        if not isinstance(events, list):
            raise ValueError("trace object has no traceEvents list")
        return events
    if isinstance(data, list):  # bare array form is also legal chrome format
        return data
    raise ValueError(f"unrecognised trace JSON shape: {type(data).__name__}")


def validate_span_nesting(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Check that complete events nest properly within each (pid, tid) track.

    Spans on one track must form a proper tree: sorted by start (ties broken
    longest-first), every span either starts after the enclosing span ends or
    lies entirely inside it.  Partial overlap — a span crossing another's end
    boundary — is a recording bug and is reported.  Returns a list of
    human-readable violations (empty means valid).
    """
    errors: List[str] = []
    tracks: Dict[tuple, List[Dict[str, Any]]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        duration = event.get("dur")
        if duration is None or duration < 0:
            errors.append(f"complete event without non-negative dur: {event.get('name')}")
            continue
        tracks.setdefault((event.get("pid"), event.get("tid")), []).append(event)
    for (pid, tid), spans in tracks.items():
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack: List[Dict[str, Any]] = []
        for span in spans:
            start, end = span["ts"], span["ts"] + span["dur"]
            while stack and start >= stack[-1]["ts"] + stack[-1]["dur"] - _NEST_EPSILON_US:
                stack.pop()
            if stack:
                parent_end = stack[-1]["ts"] + stack[-1]["dur"]
                if end > parent_end + _NEST_EPSILON_US:
                    errors.append(
                        f"track ({pid}, {tid}): span {span['name']!r} "
                        f"[{start:.1f}, {end:.1f}]us overlaps end of "
                        f"{stack[-1]['name']!r} [{stack[-1]['ts']:.1f}, {parent_end:.1f}]us"
                    )
                    continue
            stack.append(span)
    return errors


def validate_flow_balance(events: Iterable[Dict[str, Any]]) -> List[str]:
    """Check that flow events pair up: unique starts, finishes after starts.

    On a merged multi-process trace this is the corruption detector for the
    worker-merge id remap: two workers both counting flows from 1 collide on
    merge, which shows up here as a duplicate start id.  Also reported:
    finishes without a start, finishes that precede their start, and starts
    that never finish (a dangling arrow — legal mid-run, a leak in a complete
    phase-quiescent trace).  Returns human-readable violations (empty = valid).
    """
    errors: List[str] = []
    starts: Dict[Any, Dict[str, Any]] = {}
    finished = set()
    for event in events:
        phase = event.get("ph")
        if phase == "s":
            flow_id = event.get("id")
            if flow_id in starts:
                errors.append(
                    f"flow id {flow_id!r} started twice "
                    "(unremapped worker-merge collision?)"
                )
            else:
                starts[flow_id] = event
        elif phase == "f":
            flow_id = event.get("id")
            start = starts.get(flow_id)
            if start is None:
                errors.append(f"flow id {flow_id!r} finished without a start")
                continue
            finished.add(flow_id)
            if event.get("ts", 0.0) < start.get("ts", 0.0) - _NEST_EPSILON_US:
                errors.append(
                    f"flow id {flow_id!r} finishes at {event.get('ts'):.1f}us, "
                    f"before its start at {start.get('ts'):.1f}us"
                )
    dangling = len(starts) - len(finished)
    if dangling:
        errors.append(f"{dangling} flow start(s) never finished")
    return errors


#: Tolerance (microseconds) for per-track timestamp regressions.  Larger than
#: the nesting epsilon: merged traces shift worker clocks by a float origin
#: difference, so adjacent events legitimately jitter by float rounding.
_MONOTONIC_EPSILON_US = 1.0


def validate_track_monotonicity(
    events: Iterable[Dict[str, Any]], tolerance_us: float = _MONOTONIC_EPSILON_US
) -> List[str]:
    """Check that each (pid, tid) track's timestamps never run backwards.

    Every track has a single writer appending in real time (workers included —
    a merged trace shifts a whole worker's clock uniformly and remaps shared
    synthetic tracks to per-worker pids), so within one track, file order must
    be timestamp order.  A regression beyond ``tolerance_us`` means two
    processes' events were interleaved onto one track — exactly the corruption
    an unremapped pid collision produces.  One error per offending track.
    """
    errors: List[str] = []
    last_ts: Dict[tuple, float] = {}
    flagged = set()
    for event in events:
        if event.get("ph") == "M":
            continue
        track = (event.get("pid"), event.get("tid"))
        ts = event.get("ts")
        if ts is None:
            continue
        previous = last_ts.get(track)
        if previous is not None and ts < previous - tolerance_us and track not in flagged:
            flagged.add(track)
            errors.append(
                f"track {track}: timestamp runs backwards "
                f"({previous:.1f}us -> {ts:.1f}us; interleaved writers?)"
            )
        if previous is None or ts > previous:
            last_ts[track] = ts
    return errors


def trace_summary(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """Shape overview of an event list: counts, categories, tracks, flows."""
    categories: Dict[str, int] = {}
    node_pids = set()
    tracks = set()
    spans = instants = flow_starts = flow_finishes = 0
    for event in events:
        phase = event.get("ph")
        if phase == "M":
            continue
        cat = event.get("cat")
        if cat:
            categories[cat] = categories.get(cat, 0) + 1
        tracks.add((event.get("pid"), event.get("tid")))
        if phase == "X":
            spans += 1
        elif phase == "i":
            instants += 1
        elif phase == "s":
            flow_starts += 1
        elif phase == "f":
            flow_finishes += 1
        pid = event.get("pid", 0)
        if isinstance(pid, int) and pid < (1 << 20):
            node_pids.add(pid)
    return {
        "events": len(events),
        "spans": spans,
        "instants": instants,
        "flow_starts": flow_starts,
        "flow_finishes": flow_finishes,
        "categories": categories,
        "tracks": len(tracks),
        "node_pids": sorted(node_pids),
    }


def validate_chrome_trace(
    path: Any,
    require_categories: Optional[Sequence[str]] = None,
    require_node_tracks: int = 1,
) -> Dict[str, Any]:
    """Full validity check of an exported trace file; returns its summary.

    Raises :class:`ValueError` describing every problem found: unparseable
    JSON shape, negative durations, nesting violations, missing required
    span categories, or fewer per-node tracks than ``require_node_tracks``.
    """
    events = load_trace_events(path)
    problems = validate_span_nesting(events)
    summary = trace_summary(events)
    if require_categories:
        span_categories = {
            event.get("cat") for event in events if event.get("ph") == "X"
        }
        missing = [cat for cat in require_categories if cat not in span_categories]
        if missing:
            problems.append(f"missing span categories: {', '.join(missing)}")
    if len(summary["node_pids"]) < require_node_tracks:
        problems.append(
            f"expected ≥{require_node_tracks} per-node tracks, "
            f"found {len(summary['node_pids'])}"
        )
    if problems:
        raise ValueError("; ".join(problems))
    return summary
