"""Property-based tests for the tracer's span discipline.

For any interleaving of begin/end/instant/kernel-slice operations (across
multiple tracks, including unbalanced sequences), the tracer — with either
store — must
(1) keep accurate open-span accounting, (2) close everything on ``finish``,
and (3) emit an event list whose complete events nest as a proper tree on
every (pid, tid) track — the invariant :func:`validate_span_nesting` checks
and CI enforces on real traces.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.export import trace_summary, validate_span_nesting
from repro.obs.trace import Tracer

#: One scripted tracer operation:
#:   kind 0 = begin, 1 = end (most recent open span, if any), 2 = instant,
#:   3 = kernel_slice, 4 = flow start/finish pair.
_STEPS = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=3),  # pid (node id)
        st.sampled_from(["net", "routing", "operator", "fault"]),
    ),
    min_size=1,
    max_size=60,
)


#: Both stores: unbounded, and rings small enough that scripts evict.
STORES = pytest.mark.parametrize("capacity", [None, 8], ids=["unbounded", "ring"])


def _run_script(steps, capacity=None):
    tracer = Tracer(capacity)
    open_spans = []
    flows = []
    for kind, pid, cat in steps:
        if kind == 0:
            open_spans.append(tracer.begin(pid, f"span-{cat}", cat, sim_ts=0.1))
        elif kind == 1 and open_spans:
            tracer.end(open_spans.pop())
        elif kind == 2:
            tracer.instant(pid, "mark", cat)
        elif kind == 3:
            tracer.kernel_slice(pid, 1e-6)
        elif kind == 4:
            flows.append(tracer.flow_start(pid))
    for flow_id in flows:
        tracer.flow_finish(flow_id, 0)
    return tracer, open_spans


@STORES
@settings(max_examples=60, deadline=None)
@given(_STEPS)
def test_open_span_accounting(capacity, steps):
    tracer, still_open = _run_script(steps, capacity)
    assert tracer.open_span_count() == len(still_open)


@STORES
@settings(max_examples=60, deadline=None)
@given(_STEPS)
def test_finish_closes_everything_and_nesting_holds(capacity, steps):
    tracer, _ = _run_script(steps, capacity)
    tracer.finish()
    assert tracer.open_span_count() == 0
    events = tracer.chrome_events()
    assert all(e["dur"] >= 0 for e in events if e.get("ph") == "X")
    assert validate_span_nesting(events) == []


@STORES
@settings(max_examples=60, deadline=None)
@given(_STEPS)
def test_flow_events_balance(capacity, steps):
    tracer, _ = _run_script(steps, capacity)
    tracer.finish()
    summary = trace_summary(tracer.events())
    assert summary["flow_starts"] == summary["flow_finishes"]


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.floats(min_value=1e-7, max_value=1e-3, allow_nan=False),
        min_size=1,
        max_size=20,
    )
)
def test_kernel_slices_on_one_lane_never_overlap(durations):
    """Sequential kernel slices on a node's kernel lane form disjoint spans.

    The engine emits one slice per delivery with ``seconds`` bounded by the
    wall time since the previous slice, so successive slices cannot overlap;
    here the bound holds trivially (each slice is emitted after the previous
    call returned and is shorter than the elapsed gap cannot shrink below).
    """
    tracer = Tracer()
    for seconds in durations:
        start = tracer._now_us()
        # Burn wall clock until the slice we are about to emit fits entirely
        # after the previous one (mirrors the engine's seconds <= elapsed
        # guarantee).
        while tracer._now_us() - start < seconds * 1e6:
            pass
        tracer.kernel_slice(0, seconds)
    assert validate_span_nesting(tracer.events()) == []
    spans = sorted(
        (e for e in tracer.events() if e.get("ph") == "X"), key=lambda e: e["ts"]
    )
    for earlier, later in zip(spans, spans[1:]):
        assert later["ts"] >= earlier["ts"] + earlier["dur"] - 0.5
