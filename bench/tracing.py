"""Span tracing installed from the benchmark, around the layers' public entry points.

The engine has its own Chrome-trace tracer (:mod:`repro.obs.trace`); this one
exists because a per-layer *time budget* needs spans with a parent link at
every layer boundary, recorded by code the benchmark owns — spans inside the
program are a later change.  :func:`install` swaps the public methods of the
``net`` / ``engine`` / ``operators`` / ``provenance`` / ``parallel`` classes
for recording wrappers **at class level, before the executor is built**
(nodes capture bound methods at construction).  Spans stay in memory as
``(id, name, start, end, parent)`` and are written out once, at the end.

A span's *self time* is its duration minus the part its child spans cover;
summing self times over a run therefore never counts a second twice.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from itertools import count
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Tuple

#: ``ProvenanceStore`` algebra and codec methods.  Left alone: telemetry and
#: lifecycle hooks (kernel_stats, collect, gc_paused ...), which are not
#: annotation work, and the constant-time accessors zero / one / is_zero /
#: equals — 0.7 M calls per run whose spans would time the wrapper, not them.
_STORE_METHODS = (
    "base_annotation", "conjoin", "disjoin", "conjoin_many", "disjoin_many",
    "remove_base", "base_restrictor", "size_bytes", "difference",
    "encode_annotation", "decode_annotation",
)
#: Spans shorter than this stay out of the written trace (never out of the
#: totals): 99 % of the rows are microsecond store calls nobody reads one by one.
MIN_WRITTEN_SPAN_S = 20e-6


class Recorder:
    """In-memory span log for one process (the engine is single-threaded).

    With ``only_inside_span`` the wrappers record only inside a
    :meth:`span` block — the benchmark's timed phases — so set-up, oracle
    reads and telemetry snapshots leave no spans.
    """

    def __init__(self, only_inside_span: bool = False) -> None:
        #: ``(id, name, start, end, parent id)``, appended when a span *ends*;
        #: ids are handed out at span start, ``-1`` is "no parent".
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self._stack = [-1]
        self._ids = count()
        self._idle_depth = 1 if only_inside_span else 0

    def wrap(self, fn: Callable, name: str) -> Callable:
        """``fn`` recording one span called ``name`` per call."""
        stack = self._stack
        next_id = self._ids.__next__
        record = self.spans.append
        idle_depth = self._idle_depth

        def traced(*args, **kwargs):
            if len(stack) == idle_depth:
                return fn(*args, **kwargs)
            span_id = next_id()
            parent = stack[-1]
            stack.append(span_id)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                record((span_id, name, start, end, parent))

        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code (phase roots)."""
        span_id = next(self._ids)
        parent = self._stack[-1]
        self._stack.append(span_id)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent))

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``dur_s`` of outermost spans, ``self_s`` of all.

        "Outermost" skips a span nested directly in one of the same name
        (``join.process_batch`` delegating to ``process_left_batch``), so
        neither calls nor duration are counted twice.
        """
        name_of: Dict[int, str] = {-1: ""}
        covered: Dict[int, float] = {}
        for span_id, name, start, end, parent in self.spans:
            name_of[span_id] = name
            covered[parent] = covered.get(parent, 0.0) + (end - start)
        result: Dict[str, Dict[str, float]] = {}
        for span_id, name, start, end, parent in self.spans:
            entry = result.setdefault(name, {"calls": 0, "dur_s": 0.0, "self_s": 0.0})
            duration = end - start
            entry["self_s"] += duration - covered.get(span_id, 0.0)
            if name_of[parent] != name:
                entry["calls"] += 1
                entry["dur_s"] += duration
        return result

    def flat_totals(self) -> Dict[str, float]:
        """:meth:`totals` as one flat name→number dict (a metrics-registry probe)."""
        return {
            f"{name}.{field}": value
            for name, entry in self.totals().items()
            for field, value in entry.items()
        }

    def dump(self, path: str, extra: Dict[str, object]) -> None:
        """Write the span log: ``names`` table + ``[name index, start µs, end µs, parent]``.

        Rows are in span-start order and ``parent`` is a row index (-1 for a
        root), times are microseconds since the first span started.  A span
        at least ``MIN_WRITTEN_SPAN_S`` long has a parent at least as long,
        so the written rows still form complete trees.
        """
        spans = sorted(span for span in self.spans if span[3] - span[2] >= MIN_WRITTEN_SPAN_S)
        origin = min((span[2] for span in spans), default=0.0)
        names: Dict[str, int] = {}
        row_of = {span[0]: row for row, span in enumerate(spans)}
        rows = [
            [
                names.setdefault(name, len(names)),
                round((start - origin) * 1e6, 1),
                round((end - origin) * 1e6, 1),
                row_of.get(parent, -1),
            ]
            for _, name, start, end, parent in spans
        ]
        with open(path, "w") as handle:
            json.dump(
                {
                    "names": list(names),
                    "spans": rows,
                    "min_span_us": MIN_WRITTEN_SPAN_S * 1e6,
                    "spans_recorded": len(self.spans),
                    **extra,
                },
                handle,
            )
            handle.write("\n")


def merge_totals(
    target: Dict[str, Dict[str, float]], flat: Dict[str, float], prefix: str
) -> None:
    """Add the ``<prefix><name>.<field>`` entries of a registry snapshot into ``target``."""
    for key, value in flat.items():
        if not key.startswith(prefix):
            continue
        name, _, field = key[len(prefix):].rpartition(".")
        if field in ("calls", "dur_s", "self_s"):
            entry = target.setdefault(name, {"calls": 0, "dur_s": 0.0, "self_s": 0.0})
            entry[field] += value


def _targets() -> Iterable[Tuple[type, str, str]]:
    """``(class, public method, span name)`` for every layer boundary."""
    from repro.engine.dred import DRedCoordinator
    from repro.engine.executor import DistributedViewExecutor
    from repro.engine.routing import BatchRouter
    from repro.engine.runtime import ProcessorNode
    from repro.net.simulator import SimulatedNetwork
    from repro.operators.fixpoint import FixpointOperator
    from repro.operators.join import PipelinedHashJoin
    from repro.operators.ship import MinShipOperator, ShipOperator
    from repro.parallel.backend import ProcessExecutor
    from repro.parallel.scheduler import ProcessCoordinator
    from repro.provenance.absorption import AbsorptionProvenanceStore
    from repro.provenance.tracker import NullProvenanceStore, ProvenanceStore

    yield SimulatedNetwork, "run", "net.run"
    yield ProcessCoordinator, "run", "net.run"
    yield ProcessCoordinator, "rpc", "parallel.rpc"
    yield SimulatedNetwork, "send", "net.send"
    yield ProcessorNode, "handle", "engine.handle"
    yield ProcessorNode, "flush_ship", "engine.handle"  # the eager MinShip timer tick
    for method in ("keys_of", "resolve", "owners_of", "group"):
        yield BatchRouter, method, "engine.router"
    for method in ("inject_deletions", "rederive"):
        yield DRedCoordinator, method, "engine.dred"
    for executor in (DistributedViewExecutor, ProcessExecutor):
        yield executor, "view", "engine.view"
        yield executor, "state_bytes", "engine.state_bytes"
    for method in ("process_batch", "process_left_batch", "process_right_batch", "purge_base"):
        yield PipelinedHashJoin, method, "operators.join"
    for method in ("process_batch", "purge_base"):
        yield FixpointOperator, method, "operators.fixpoint"
    for method in ("process_batch", "flush", "purge_base"):
        yield MinShipOperator, method, "operators.ship"
    yield ShipOperator, "process_batch", "operators.ship"
    for store in (ProvenanceStore, AbsorptionProvenanceStore, NullProvenanceStore):
        for method in _STORE_METHODS:
            defined = store.__dict__.get(method)
            if defined is not None and not getattr(defined, "__isabstractmethod__", False):
                yield store, method, f"provenance.{method}"


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary at class level; returns the function that undoes it."""
    originals = []
    for cls, method, name in _targets():
        original = cls.__dict__[method]
        originals.append((cls, method, original))
        if method == "base_restrictor":
            # The prepared restrictor does the kernel work when *called*, not
            # when built: trace the returned closure as the removal it is.
            setattr(cls, method, _tracing_restrictor(recorder, original))
        else:
            setattr(cls, method, recorder.wrap(original, name))

    def uninstall() -> None:
        for cls, method, original in originals:
            setattr(cls, method, original)

    return uninstall


def _tracing_restrictor(recorder: Recorder, base_restrictor: Callable) -> Callable:
    def traced(self, base_keys):
        return recorder.wrap(base_restrictor(self, base_keys), "provenance.remove_base")

    return traced


def install_in_worker() -> None:
    """Trace one worker process of the process backend, for its whole life.

    Runs at import of the spawned worker's ``__mp_main__`` (see ``child.py``):
    the handlers, operators and the envelope codec execute *here*, not in the
    coordinator, so this is the only place their spans can be taken.  Totals
    travel back through the engine's public metrics path — a ``bench`` probe on
    the worker registry, which the coordinator merges under ``workers.*``.
    """
    from repro.parallel import worker as worker_module

    recorder = Recorder()
    install(recorder)
    worker_module.encode_updates = recorder.wrap(
        worker_module.encode_updates, "parallel.encode"
    )
    worker_module.decode_updates = recorder.wrap(
        worker_module.decode_updates, "parallel.decode"
    )
    construct = worker_module.Worker.__init__

    def traced_construct(self, *args, **kwargs):
        construct(self, *args, **kwargs)

        def probe() -> Dict[str, float]:
            flat = recorder.flat_totals()
            flat.update(cache_counters(self.store))
            return flat

        self.registry.register_probe("bench", probe)

    worker_module.Worker.__init__ = traced_construct


def cache_counters(store) -> Dict[str, int]:
    """The BDD work/memo counters of ``store`` (empty for kernel-less stores)."""
    cache_stats = getattr(store, "cache_stats", None)
    if cache_stats is None:
        return {}
    stats = cache_stats()
    return {
        "apply_calls": stats["apply_calls"],
        "restrict_calls": stats["restrict_calls"],
        "apply_hits": stats["apply"]["hits"],
        "apply_misses": stats["apply"]["misses"],
        "cache_evictions": sum(
            stats[cache]["evictions"]
            for cache in ("apply", "negate", "restrict", "support", "size")
        ),
    }
