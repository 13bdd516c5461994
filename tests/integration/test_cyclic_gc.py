"""The data plane makes no reference cycles, so a phase may pause CPython's collector.

Both backends run their unit of data-plane work under
:func:`~repro.engine.runtime.cyclic_gc_paused`: the coordinator's phase and
the worker's command.  That is only safe while reference counting frees
everything a phase drops.  These tests run every strategy the harness
reaches, a crash/recover run and an elastic migration run with the collector
off and ``gc.DEBUG_SAVEALL`` set, and assert after each phase that a
collection finds nothing unreachable.  They also pin the pause itself and
what :meth:`~repro.engine.executor.DistributedViewExecutor.close` frees with
the collector off.
"""

import gc
import sys
import weakref
from collections import Counter

import pytest

from repro.baselines.networkx_ref import reachable_pairs
from repro.chaos import ChaosPlan
from repro.chaos.executor import chaos_executor
from repro.chaos.parity import run_reference
from repro.data.batch import BatchPolicy
from repro.data.tuples import _INTERNED
from repro.engine.runtime import cyclic_gc_paused
from repro.engine.strategy import ExecutionStrategy
from repro.fault import fault_tolerant_executor
from repro.net.partition import HashPartitioner
from repro.obs.trace import Tracer, install_tracer
from repro.parallel.envelope import WorkerInit
from repro.parallel.worker import worker_main
from repro.placement import elastic_executor
from repro.queries import build_executor, reachability_plan, region_plan
from repro.queries.shortest_path import AGGSEL_MULTI, AGGSEL_SINGLE, shortest_path_plan
from repro.workloads import TransitStubConfig, generate_topology
from repro.workloads.chaos import generate_chaos_workload
from repro.workloads.sensors import SensorField, SensorWorkload

NODE_COUNT = 4


@pytest.fixture(scope="module")
def topology():
    return generate_topology(TransitStubConfig(nodes_per_stub=2, stubs_per_transit=2, seed=7))


@pytest.fixture(scope="module")
def links(topology):
    return topology.link_tuples()


def _free_saved(flags: int) -> None:
    """Really free what a DEBUG_SAVEALL collection kept, then keep saving."""
    del gc.garbage[:]
    gc.set_debug(flags)
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)


@pytest.fixture()
def no_cycles():
    """Collector off, unreachable objects saved; yields ``check(label, action)``.

    ``check`` frees whatever is already unreachable (an executor's own
    construction, the previous phase's leftovers), runs ``action``, and fails
    listing the object types if a collection then finds anything.  Teardown
    restores the debug flags and the collector's state.
    """
    was_enabled = gc.isenabled()
    flags = gc.get_debug()
    gc.disable()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)

    def check(label, action):
        _free_saved(flags)
        result = action()
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage).most_common(12)
        _free_saved(flags)
        assert found == 0, f"{label}: {found} objects left in reference cycles: {kinds}"
        return result

    yield check
    del gc.garbage[:]
    gc.set_debug(flags)
    gc.collect()
    if was_enabled:
        gc.enable()


def _reach_phases(executor, links):
    return [
        ("insert", lambda: executor.insert_edges(links)),
        ("delete", lambda: executor.delete_edges(links[::3])),
        ("reinsert", lambda: executor.insert_edges(links[::3])),
        ("close", executor.close),
    ]


@pytest.mark.parametrize(
    "scheme", ["Absorption Lazy", "Absorption Eager", "DRed", "Relative Lazy"]
)
def test_reachability_phases_make_no_cycles(no_cycles, links, scheme):
    executor = build_executor(reachability_plan(), scheme, node_count=NODE_COUNT)
    for label, action in _reach_phases(executor, links):
        no_cycles(f"{scheme} {label}", action)


def test_traced_phases_make_no_cycles(no_cycles, links):
    previous = install_tracer(Tracer(1000))
    try:
        executor = build_executor(reachability_plan(), "Absorption Eager", node_count=NODE_COUNT)
    finally:
        install_tracer(previous)
    for label, action in _reach_phases(executor, links):
        no_cycles(f"traced {label}", action)


def test_region_phases_make_no_cycles(no_cycles):
    workload = SensorWorkload(
        SensorField.grid(
            side_metres=30.0, spacing_metres=10.0, proximity_radius=15.0,
            seed_groups=2, rng_seed=7,
        )
    )
    sensors = workload.field.sensor_ids
    executor = build_executor(region_plan(), "Absorption Lazy", node_count=NODE_COUNT)
    for label, delta in (
        ("trigger", workload.trigger_many(sensors)),
        ("untrigger", workload.untrigger_many(sensors[::3])),
    ):
        no_cycles(
            f"region {label}",
            lambda: executor.apply_mixed(
                edge_inserts=delta.proximity_inserts,
                edge_deletes=delta.proximity_deletes,
                seed_inserts=delta.seed_inserts,
                seed_deletes=delta.seed_deletes,
            ),
        )


@pytest.mark.parametrize("mode", [AGGSEL_SINGLE, AGGSEL_MULTI])
def test_aggregate_selection_phases_make_no_cycles(no_cycles, topology, mode):
    links = topology.cost_link_tuples()
    executor = build_executor(
        shortest_path_plan(aggregate_selection=mode), "Absorption Lazy", node_count=NODE_COUNT
    )
    no_cycles(f"path[{mode}] insert", lambda: executor.insert_edges(links))
    no_cycles(f"path[{mode}] delete", lambda: executor.delete_edges(links[::3]))


@pytest.mark.parametrize("policy", ["checkpoint-replay", "provenance-purge"])
def test_crash_and_recovery_make_no_cycles(no_cycles, links, policy):
    executor = fault_tolerant_executor(
        reachability_plan(),
        "Absorption Lazy",
        recovery_policy=policy,
        checkpoint_interval=10,
        node_count=NODE_COUNT,
    )
    executor.schedule_crash(2, at_time=0.002)
    executor.schedule_recovery(2, at_time=0.004)
    no_cycles(f"{policy} crash mid-insert", lambda: executor.insert_edges(links))
    start = executor.network.now
    executor.schedule_crash(1, at_time=start + 0.001)
    executor.schedule_recovery(1, at_time=start + 0.003)
    no_cycles(f"{policy} crash mid-delete", lambda: executor.delete_edges(links[::3]))
    assert executor.recovery.recovery_count == 2
    live = [link for link in links if link not in set(links[::3])]
    assert executor.view_values() == reachable_pairs((l["src"], l["dst"]) for l in live)


@pytest.mark.parametrize("scheme", ["Absorption Eager", "Absorption Lazy", "DRed"])
def test_elastic_migration_makes_no_cycles(no_cycles, links, scheme):
    executor = elastic_executor(reachability_plan(), scheme, node_count=NODE_COUNT)
    third = len(links) // 3
    no_cycles("insert", lambda: executor.insert_edges(links[:third]))
    no_cycles("add node", executor.add_node)
    executor.schedule_add_node(executor.network.now + 0.001)
    no_cycles("insert across a scheduled add", lambda: executor.insert_edges(links[third:]))
    no_cycles("remove node", lambda: executor.remove_node(1))
    no_cycles("delete", lambda: executor.delete_edges(links[::3]))
    assert executor.placement_stats()["moved_state_bytes"] > 0


# -- the pause ------------------------------------------------------------------------


@pytest.fixture()
def collector_state():
    """Restore the collector's enabled state whatever a test leaves behind."""
    was_enabled = gc.isenabled()
    yield
    if was_enabled:
        gc.enable()
    else:
        gc.disable()


def test_pause_restores_an_enabled_collector(collector_state):
    gc.enable()
    with cyclic_gc_paused():
        assert not gc.isenabled()
        with cyclic_gc_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    assert gc.isenabled()


def test_pause_keeps_a_disabled_collector_disabled(collector_state):
    gc.disable()
    with cyclic_gc_paused():
        assert not gc.isenabled()
    assert not gc.isenabled()


def test_pause_restores_the_collector_when_the_block_raises(collector_state):
    gc.enable()
    with pytest.raises(RuntimeError):
        with cyclic_gc_paused():
            raise RuntimeError("handler crash")
    assert gc.isenabled()


class _Cyclic:
    """A container that can be weakly referenced and put in a cycle."""


def test_pause_promotes_the_blocks_survivors_without_losing_cycles(collector_state):
    gc.enable()
    threshold = gc.get_threshold()[0]
    with cyclic_gc_paused():
        survivors = [[] for _ in range(100_000)]
        assert gc.get_count()[0] > threshold
        cycle = _Cyclic()
        cycle.self = cycle
        probe = weakref.ref(cycle)
        del cycle
    # The first pass after the block no longer walks its 100 k containers.
    assert gc.get_count()[0] < threshold
    assert len(survivors) == 100_000
    assert probe() is not None
    gc.collect()
    assert probe() is None


def test_pause_leaves_a_callers_freeze_alone(collector_state):
    gc.enable()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        with cyclic_gc_paused():
            survivors = [[] for _ in range(1_000)]
        assert gc.get_freeze_count() == frozen
        assert len(survivors) == 1_000
    finally:
        gc.unfreeze()


def test_phases_run_paused_and_restore_the_callers_state(collector_state, links, monkeypatch):
    executor = build_executor(reachability_plan(), "Absorption Lazy", node_count=NODE_COUNT)
    seen = []
    run = executor.network.run

    def observed_run(*args, **kwargs):
        seen.append(gc.isenabled())
        return run(*args, **kwargs)

    monkeypatch.setattr(executor.network, "run", observed_run)
    gc.enable()
    executor.insert_edges(links)
    assert seen and not any(seen)
    assert gc.isenabled()

    gc.disable()
    executor.delete_edges(links[::3])
    assert not gc.isenabled()

    def failing_run(*args, **kwargs):
        raise RuntimeError("handler crash")

    monkeypatch.setattr(executor.network, "run", failing_run)
    gc.enable()
    with pytest.raises(RuntimeError):
        executor.insert_edges(links[::3])
    assert gc.isenabled()


class _RecordingPipe:
    """A worker command pipe that notes the collector's state at each
    ``recv`` and reads EOF after its last command."""

    def __init__(self, commands):
        self.commands = list(commands)
        self.states = []

    def recv(self):
        self.states.append(gc.isenabled())
        if not self.commands:
            raise EOFError
        return self.commands.pop(0)


class _RecordingConn:
    """A result pipe that notes each reply's kind and the collector's state."""

    def __init__(self):
        self.replies = []

    def send(self, item):
        self.replies.append((item[0], gc.isenabled()))


def _worker_init():
    return WorkerInit(
        wid=0, workers=1, node_count=2, plan=reachability_plan(),
        strategy=ExecutionStrategy.absorption_lazy(), batch_policy=BatchPolicy(),
        partitioner=HashPartitioner(2),
    )


def test_worker_commands_run_paused_between_enabled_gets(collector_state):
    commands = _RecordingPipe([("views", 1), ("no-such-op", 2), ("view_size", 3)])
    conn = _RecordingConn()
    gc.enable()
    worker_main(_worker_init(), commands, conn)
    # Each command ran paused; the failing one's error reply is sent after
    # the pause restored the collector, and every ``recv`` sees it enabled.
    assert conn.replies == [("rpc", False), ("error", True), ("rpc", False)]
    assert all(commands.states)
    assert gc.isenabled()


def test_worker_keeps_a_disabled_collector_disabled(collector_state):
    commands = _RecordingPipe([("views", 1)])
    conn = _RecordingConn()
    gc.disable()
    worker_main(_worker_init(), commands, conn)
    assert conn.replies == [("rpc", False)]
    assert not any(commands.states)
    assert not gc.isenabled()


# -- close() ----------------------------------------------------------------------------


def test_close_frees_annotation_storage_without_the_collector(no_cycles, links):
    executor = build_executor(reachability_plan(), "Absorption Lazy", node_count=NODE_COUNT)
    executor.insert_edges(links)
    expected = executor.view_values()
    manager = executor.store.manager
    table = manager._table
    assert len(table) > 2 and any(_INTERNED.values())

    no_cycles("close", executor.close)

    # The only references left to the node table are this frame's.
    assert sys.getrefcount(table) == 2
    assert manager._table is None
    caches = manager.cache_stats()
    assert all(caches[name]["entries"] == 0 for name in ("apply", "restrict", "support", "size"))
    assert not any(_INTERNED.values())
    # What a closed executor still answers: its metrics and its view.
    assert len(executor.metrics.phases) == 1
    assert executor.view_values() == expected
    assert executor.view_size() == len(expected)


@pytest.mark.parametrize(
    "scheme",
    ["DRed", "Absorption Lazy", "Absorption Eager", "Relative Lazy", "Relative Eager"],
)
def test_a_closed_executor_is_freed_by_reference_counting(no_cycles, links, scheme):
    # The list holds the only reference, so popping it drops the executor.
    # Relative Eager's annotations blow up on the whole topology; a third of
    # it converges quickly and still crosses every node.
    run = [build_executor(reachability_plan(), scheme, node_count=NODE_COUNT)]
    no_cycles(f"{scheme} insert", lambda: run[0].insert_edges(links[:10]))
    no_cycles(f"{scheme} delete", lambda: run[0].delete_edges(links[:3]))
    executor, store = weakref.ref(run[0]), weakref.ref(run[0].store)
    no_cycles(f"{scheme} close and drop", lambda: run.pop().close())
    # With the collector off, only reference counting can have freed them.
    assert executor() is None and store() is None


def _crashed(policy):
    def build(links):
        executor = fault_tolerant_executor(
            reachability_plan(), "Absorption Lazy", recovery_policy=policy,
            checkpoint_interval=10, node_count=NODE_COUNT,
        )
        executor.schedule_crash(2, at_time=0.002)
        executor.schedule_recovery(2, at_time=0.004)
        executor.insert_edges(links)
        assert executor.recovery.recovery_count == 1
        return executor

    return build


def _migrated(links):
    executor = elastic_executor(reachability_plan(), "Absorption Eager", node_count=NODE_COUNT)
    executor.insert_edges(links[:10])
    executor.add_node()
    executor.insert_edges(links[10:])
    executor.remove_node(1)
    return executor


def _chaotic(links):
    executor = chaos_executor(
        reachability_plan(), "Absorption Lazy", node_count=NODE_COUNT,
        chaos_plan=ChaosPlan.profile("full", seed=11),
    )
    executor.insert_edges(links)
    return executor


@pytest.mark.parametrize(
    "build",
    [_crashed("checkpoint-replay"), _crashed("provenance-purge"), _migrated, _chaotic],
    ids=["checkpoint-replay", "provenance-purge", "elastic", "chaos"],
)
def test_a_closed_executor_of_every_kind_is_freed_by_reference_counting(no_cycles, links, build):
    # Each kind adds hooks of its own: recovery manager, epoch provider, chaos
    # interposer, durability shims in place of the node handlers.
    run = [build(links)]
    executor = weakref.ref(run[0])
    no_cycles("close and drop", lambda: run.pop().close())
    assert executor() is None


def test_a_dropped_parity_reference_leaves_no_cycles(no_cycles):
    # The reference run closes its executor; what it returns (view, canonical
    # annotations, horizon) is plain data, so dropping it frees everything.
    workload = generate_chaos_workload(links=24, seed=11)

    def run_and_drop():
        view, annotations, horizon, phases = run_reference(
            reachability_plan(), "Absorption Eager", workload, node_count=NODE_COUNT
        )
        assert view and set(annotations) == view and horizon > 0 and phases > 0

    no_cycles("reference run, result dropped", run_and_drop)


def test_closing_twice_is_harmless(links):
    executor = build_executor(reachability_plan(), "Absorption Lazy", node_count=NODE_COUNT)
    executor.insert_edges(links)
    executor.close()
    executor.close()
    assert executor.view_values() == reachable_pairs((l["src"], l["dst"]) for l in links)


def test_process_close_empties_the_coordinators_intern_table(links):
    executor = build_executor(
        reachability_plan(), "Absorption Lazy", node_count=NODE_COUNT,
        backend="process", workers=2,
    )
    try:
        executor.insert_edges(links)
        assert executor.view_values() == reachable_pairs((l["src"], l["dst"]) for l in links)
        assert any(_INTERNED.values())
    finally:
        executor.close()
    assert not any(_INTERNED.values())
