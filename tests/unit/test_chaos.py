"""Unit tests for the chaos plane's deterministic building blocks.

Everything the chaos plane does is a pure function of ``(seed, stream tag,
identifiers)`` — these tests pin that property (including a hard-coded mixer
value so an accidental switch to the per-process-salted builtin ``hash``
cannot slip through), exercise the interposer's exactly-once accounting on a
real simulator run, and check the supervisor's bounded exponential backoff.

The two fault-surfacing satellites live here too: dropped held messages must
show up in ``NetworkStats`` (and the executor's metric probes), and each drop
must leave a ``held-message-dropped`` instant on the tracer.
"""

import pytest

from repro.chaos.interposer import ChaosInterposer
from repro.chaos.plan import (
    PROFILES,
    TAG_DROP,
    TAG_DUP,
    ChaosPlan,
    CrashStormSpec,
    LinkChaosSpec,
    RecoveryFaultSpec,
    WorkerKillSpec,
    mix64,
    unit,
)
from repro.chaos.supervisor import (
    ChaosInjectedFailure,
    RetryPolicy,
    SupervisionExhausted,
    Supervisor,
)
from repro.fault import fault_tolerant_executor
from repro.obs.trace import Tracer, install_tracer
from repro.queries import build_executor, link, reachability_plan
from repro.workloads.chaos import generate_chaos_workload, generate_power_law


class TestDecisionStreams:
    def test_mix64_is_deterministic_and_part_sensitive(self):
        assert mix64(1, "a", 2) == mix64(1, "a", 2)
        assert mix64(1, "a", 2) != mix64(1, "a", 3)
        assert mix64(1, "a", 2) != mix64(2, "a", 2)
        assert mix64(1, "a", 2) != mix64(1, "b", 2)

    def test_mix64_strings_do_not_use_the_salted_builtin_hash(self):
        # Pinned value: FNV-1a + splitmix64 is process- and run-independent.
        # The builtin ``hash`` is salted per process and would break replay.
        assert mix64("chaos") == 15165182779118534730
        assert mix64(11, "chaos/drop", 0, 1, 0) == 3613608844239117960

    def test_unit_stays_in_the_half_open_interval(self):
        samples = [unit(seed, "tag", i) for seed in range(5) for i in range(40)]
        assert all(0.0 <= s < 1.0 for s in samples)
        assert len(set(samples)) > 150  # no obvious stream collapse

    def test_plan_streams_are_independent_per_tag(self):
        plan = ChaosPlan(seed=11)
        drops = [plan.unit(TAG_DROP, 0, 1, i) for i in range(20)]
        dups = [plan.unit(TAG_DUP, 0, 1, i) for i in range(20)]
        assert drops != dups
        assert drops == [ChaosPlan(seed=11).unit(TAG_DROP, 0, 1, i) for i in range(20)]


class TestSpecsAndProfiles:
    def test_link_spec_rejects_non_probabilities(self):
        with pytest.raises(ValueError):
            LinkChaosSpec(drop_prob=1.5)
        with pytest.raises(ValueError):
            LinkChaosSpec(dup_prob=-0.1)
        with pytest.raises(ValueError):
            LinkChaosSpec(max_retransmits=-1)

    def test_link_spec_active_flag(self):
        assert not LinkChaosSpec().active
        assert LinkChaosSpec(drop_prob=0.1).active
        assert LinkChaosSpec(dup_prob=0.1).active
        assert LinkChaosSpec(delay_prob=0.1).active

    def test_every_named_profile_builds_and_carries_its_name(self):
        for name in PROFILES:
            plan = ChaosPlan.profile(name, seed=3)
            assert plan.name == name
            assert plan.seed == 3

    def test_unknown_profile_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="degraded"):
            ChaosPlan.profile("nope")

    def test_parity_safe_profiles_keep_doom_within_the_default_budget(self):
        budget = RetryPolicy().max_attempts
        for name in ("none", "link", "storm", "full", "kill"):
            plan = ChaosPlan.profile(name, seed=11)
            worst = max(plan.forced_recovery_failures(node) for node in range(32))
            assert worst < budget, f"profile {name} would exhaust the supervisor"

    def test_degraded_profile_dooms_every_recovery_past_any_budget(self):
        plan = ChaosPlan.profile("degraded", seed=11)
        assert all(
            plan.forced_recovery_failures(node) > RetryPolicy().max_attempts
            for node in range(8)
        )


class TestPlanSchedules:
    def test_kill_schedule_is_sorted_bounded_and_deterministic(self):
        plan = ChaosPlan(seed=11, kills=WorkerKillSpec(kills=4, window=(0.2, 0.7)))
        schedule = plan.kill_schedule(workers=3)
        assert schedule == plan.kill_schedule(workers=3)
        assert len(schedule) == 4
        assert list(schedule) == sorted(schedule)
        for frac, wid in schedule:
            assert 0.2 <= frac <= 0.7
            assert 0 <= wid < 3

    def test_kill_schedule_is_empty_without_workers_or_spec(self):
        assert ChaosPlan(seed=1).kill_schedule(4) == ()
        plan = ChaosPlan(seed=1, kills=WorkerKillSpec(kills=2))
        assert plan.kill_schedule(0) == ()

    def test_forced_failures_respect_the_spec_bounds(self):
        plan = ChaosPlan(seed=11, recovery=RecoveryFaultSpec(0.5, max_failures=3))
        counts = [plan.forced_recovery_failures(node) for node in range(64)]
        assert all(0 <= count <= 3 for count in counts)
        assert any(counts), "probability 0.5 over 64 nodes should gate someone"
        assert any(count == 0 for count in counts)

    def test_attempt_fails_matches_the_forced_count(self):
        plan = ChaosPlan(seed=11, respawn=RecoveryFaultSpec(1.0, max_failures=2))
        for wid in range(8):
            forced = plan.forced_respawn_failures(wid)
            assert forced >= 1
            assert plan.respawn_attempt_fails(wid, forced)
            assert not plan.respawn_attempt_fails(wid, forced + 1)

    def test_storm_scenario_covers_the_window(self):
        plan = ChaosPlan(seed=11, storm=CrashStormSpec(cycles=2, window=(0.1, 0.9)))
        assert ChaosPlan(seed=11).storm_scenario(6) is None
        scenario = plan.storm_scenario(6)
        assert scenario is not None


class TestInterposer:
    LINKS = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"), ("a", "c"), ("b", "d")]

    def _run(self, plan):
        executor = build_executor(reachability_plan(), "Absorption Eager", node_count=4)
        interposer = None
        if plan is not None:
            interposer = ChaosInterposer(plan).attach(executor.network)
        executor.insert_edges([link(a, b) for a, b in self.LINKS])
        return executor.view(), interposer

    def test_link_faults_are_masked_and_fully_accounted(self):
        plan = ChaosPlan.profile("link", seed=11)
        reference, _ = self._run(None)
        view, interposer = self._run(plan)
        assert view == reference  # parity in miniature
        stats = interposer.stats
        assert stats.messages_seen > 0
        assert stats.dropped_copies > 0
        assert stats.delayed_messages > 0
        # Exactly-once: every injected ghost was delivered and suppressed.
        assert stats.duplicates_injected == stats.duplicates_suppressed
        assert stats.duplicates_injected > 0
        assert stats.extra_delay_total > 0.0
        assert stats.max_extra_delay <= stats.extra_delay_total

    def test_interposer_is_bit_deterministic(self):
        plan = ChaosPlan.profile("link", seed=42)
        _, first = self._run(plan)
        _, second = self._run(ChaosPlan.profile("link", seed=42))
        assert first.stats.as_dict() == second.stats.as_dict()

    def test_inactive_plan_adds_nothing(self):
        _, interposer = self._run(ChaosPlan.profile("none", seed=1))
        assert interposer.stats.dropped_copies == 0
        assert interposer.stats.duplicates_injected == 0


class TestSupervisor:
    def test_backoff_grows_exponentially_and_caps(self):
        supervisor = Supervisor(
            RetryPolicy(base_delay=0.1, multiplier=2.0, max_delay=0.5, jitter=0.0)
        )
        delays = [supervisor.backoff("node:2", attempt) for attempt in (1, 2, 3, 4, 5)]
        assert delays[:3] == [0.1, 0.2, 0.4]
        assert delays[3] == delays[4] == 0.5  # capped

    def test_backoff_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_delay=0.1, multiplier=1.0, jitter=0.5)
        one = Supervisor(policy, seed=1)
        two = Supervisor(policy, seed=2)
        for attempt in (1, 2, 3):
            delay = one.backoff("x", attempt)
            assert 0.1 <= delay <= 0.1 * 1.5
            assert delay == Supervisor(policy, seed=1).backoff("x", attempt)
        assert [one.backoff("x", a) for a in (1, 2)] != [
            two.backoff("x", a) for a in (1, 2)
        ]

    def test_run_retries_until_success_and_reports(self):
        supervisor = Supervisor(RetryPolicy(max_attempts=4, base_delay=0.01))
        backoffs = []

        def flaky(attempt):
            if attempt <= 2:
                raise ChaosInjectedFailure(f"doomed attempt {attempt}")
            return "recovered"

        result = supervisor.run(
            "node:5", flaky, on_backoff=lambda attempt, delay: backoffs.append(delay)
        )
        assert result == "recovered"
        assert len(backoffs) == 2
        assert all(delay > 0 for delay in backoffs)
        assert supervisor.stats() == {
            "supervised_actions": 1,
            "supervised_retries": 2,
            "supervised_exhausted": 0,
        }

    def test_budget_exhaustion_raises_and_is_counted(self):
        supervisor = Supervisor(RetryPolicy(max_attempts=3, base_delay=0.01))

        def doomed(attempt):
            raise ChaosInjectedFailure("always")

        with pytest.raises(SupervisionExhausted) as excinfo:
            supervisor.run("node:6", doomed)
        assert excinfo.value.attempts == 3
        assert supervisor.stats()["supervised_exhausted"] == 1

    def test_unexpected_exceptions_are_not_swallowed(self):
        supervisor = Supervisor(RetryPolicy(max_attempts=5))
        with pytest.raises(ValueError):
            supervisor.run("node:7", lambda attempt: (_ for _ in ()).throw(ValueError()))
        assert supervisor.stats()["supervised_actions"] == 0

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(multiplier=0.5)
        with pytest.raises(ValueError):
            RetryPolicy(jitter=-1.0)


class TestChaosWorkload:
    def test_power_law_graph_is_deterministic_with_hubs(self):
        graph = generate_power_law(vertices=40, attach=2, seed=5)
        again = generate_power_law(vertices=40, attach=2, seed=5)
        assert graph.pairs == again.pairs
        degrees = sorted(graph.degrees().values())
        assert degrees[-1] >= 4 * degrees[len(degrees) // 2], "no hub emerged"
        assert graph.hubs(2)[0] != graph.hubs(2)[1]

    def test_workload_phases_partition_the_graph(self):
        workload = generate_chaos_workload(links=60, seed=11)
        phases = workload.phases()
        assert [label for label, _, _ in phases] == ["insert", "skew", "deletion-storm"]
        inserted = set(workload.base_pairs) | set(workload.skew_insert_pairs)
        deleted = set(workload.skew_delete_pairs) | set(workload.storm_delete_pairs)
        assert deleted <= inserted, "every deletion targets an inserted link"
        assert set(workload.final_pairs()) == inserted - deleted
        assert workload.total_links == len(inserted)
        # The phase stream carries one link tuple per pair.
        assert len(phases[0][1]) == len(workload.base_pairs)
        assert len(phases[1][2]) == len(workload.skew_delete_pairs)
        assert len(phases[2][2]) == len(workload.storm_delete_pairs)

    def test_workload_is_seed_sensitive(self):
        one = generate_chaos_workload(links=60, seed=11)
        two = generate_chaos_workload(links=60, seed=12)
        assert one.storm_delete_pairs != two.storm_delete_pairs


class TestFaultSurfaces:
    """Satellites: dropped held messages must be visible, counted and traced."""

    LINKS = [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e"), ("e", "a"), ("b", "e")]

    def _purge_run(self):
        """Crash a node with traffic in flight under provenance purge.

        Purge tears down peer channels to the dead node, so the messages its
        channels held during downtime are dropped on recovery instead of
        redelivered — the surface the satellite tests pin.
        """
        executor = fault_tolerant_executor(
            reachability_plan(),
            "Absorption Lazy",
            recovery_policy="provenance-purge",
            checkpoint_interval=5,
            node_count=4,
        )
        edges = [link(a, b) for a, b in self.LINKS]
        executor.insert_edges(edges[:2])
        start = executor.network.now
        executor.schedule_crash(2, at_time=start)
        executor.insert_edges(edges[2:])  # routed or held while node 2 is down
        executor.schedule_recovery(2, at_time=executor.network.now + 1.0)
        executor.network.run()
        return executor

    def test_dropped_held_messages_surface_in_stats_and_probes(self):
        executor = self._purge_run()
        dropped = executor.network.dropped_messages
        assert dropped > 0
        assert executor.network.stats.dropped_messages == dropped
        assert executor.network.stats.summary()["dropped_messages"] == float(dropped)
        assert executor.fault_stats()["dropped_messages"] == dropped

    def test_each_dropped_held_message_leaves_a_tracer_instant(self):
        tracer = Tracer()
        previous = install_tracer(tracer)
        try:
            executor = self._purge_run()
            dropped = executor.network.dropped_messages
        finally:
            install_tracer(previous)
        instants = [
            event
            for event in tracer.events()
            if event.get("name") == "held-message-dropped"
        ]
        assert dropped > 0
        assert len(instants) == dropped
        assert all(event["args"]["updates"] >= 1 for event in instants)
