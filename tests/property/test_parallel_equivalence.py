"""Property tests: the process backend equals the simulator on any workload.

For arbitrary insert/delete mixes cut into arbitrary phases, running the
engine across real worker processes — at any worker count — must yield
*bit-identical* results to the single-process simulator: the same view, the
same canonical per-tuple absorbed provenance, the same event/message counts,
the same virtual-clock convergence and the same per-phase byte telemetry
(BDD node counts, equal because every worker orders variables by global rank).  Worker counts 1, 2 and 4 cover the
degenerate pool, the split-cluster case and more-workers-than-busy-nodes.

Process pools are expensive to spawn, so the example budget is small; the
deterministic ``@example`` cases pin the regressions that matter (a pure
insert phase, a full insert-then-delete cycle, interleaved phases).
"""

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from repro.queries import build_executor, link, reachability_plan

NODES = ["n0", "n1", "n2", "n3"]
ALL_LINKS = [(a, b) for a in NODES for b in NODES if a != b]

WORKER_COUNTS = (1, 2, 4)


def _phases():
    operation = st.tuples(st.sampled_from(["ins", "del"]), st.sampled_from(ALL_LINKS))
    return st.lists(st.lists(operation, min_size=1, max_size=6), min_size=1, max_size=3)


def _normalise(phases):
    """Set-semantics cleanup: drop deletes of dead tuples and duplicate inserts."""
    live = set()
    result = []
    for phase in phases:
        inserts, deletes = [], []
        for action, pair in phase:
            if action == "ins" and pair not in live and pair not in inserts:
                inserts.append(pair)
            elif action == "del" and (pair in live or pair in inserts):
                if pair in inserts:
                    inserts.remove(pair)
                elif pair not in deletes:
                    deletes.append(pair)
        live.update(inserts)
        live.difference_update(deletes)
        result.append((inserts, deletes))
    return result


def _fingerprint(phases, scheme, backend, workers=None):
    executor = build_executor(
        reachability_plan(), scheme, node_count=4, backend=backend, workers=workers
    )
    try:
        messages = shipped = 0
        convergence = []
        byte_telemetry = []
        for inserts, deletes in phases:
            phase = executor.apply_mixed(
                edge_inserts=[link(a, b) for a, b in inserts],
                edge_deletes=[link(a, b) for a, b in deletes],
            )
            messages += phase.messages
            shipped += phase.updates_shipped
            convergence.append(phase.convergence_time_s)
            byte_telemetry.append(
                (phase.communication_mb, phase.state_mb, phase.per_tuple_provenance_bytes)
            )
        return {
            "view": executor.view(),
            "annotations": executor.view_annotations(),
            "events": executor.network.events_processed,
            "messages": messages,
            "shipped": shipped,
            "convergence": convergence,
            "bytes": byte_telemetry,
        }
    finally:
        executor.close()


@pytest.mark.parametrize("scheme", ["Absorption Eager", "DRed"])
@settings(
    max_examples=3,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(phases=_phases())
@example(phases=[[("ins", ("n0", "n1")), ("ins", ("n1", "n2")), ("ins", ("n2", "n3"))]])
@example(
    phases=[
        [("ins", ("n0", "n1")), ("ins", ("n1", "n2")), ("ins", ("n1", "n3"))],
        [("del", ("n1", "n2")), ("ins", ("n3", "n2"))],
    ]
)
def test_process_backend_equals_simulator(scheme, phases):
    normalised = _normalise(phases)
    reference = _fingerprint(normalised, scheme, "sim")
    for workers in WORKER_COUNTS:
        assert _fingerprint(normalised, scheme, "process", workers=workers) == reference
