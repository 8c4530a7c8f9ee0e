"""The array-native annealing walk: equivalence, replicas, SA fast path.

Four contracts are pinned here:

* the compiled array walk (the default) replays the reference path
  (``compiled=False``, the generic annealing loop) **bit for bit** —
  identical accepted-move counts, costs and committed assignments — under
  the sigmoid, Metropolis and greedy acceptance rules, on synthetic packets
  over homogeneous and heterogeneous machines (hypothesis + fixed cases; the
  24 golden Table-2 cells and both random-graph fixtures pin the same walk
  end-to-end through ``tests/test_golden_trace.py`` and
  ``tests/test_fast_engine.py``, which run the default config);
* the multi-start driver returns, for every replica, exactly the result of
  a single-chain array walk on that replica's child stream, and fixed
  ``(seed, B)`` runs are deterministic;
* :func:`~repro.core.array_annealer.compile_fast_packet` builds kernels
  bit-identical to the :class:`~repro.core.cost.PacketCostFunction` path, so
  SA's ``fast_assign`` commits the same mappings as the materialized-context
  fallback it replaces (and the fast engine reports zero fallback epochs
  for SA);
* the ``replicas=`` knob threads through ``SAConfig`` → ``SAScheduler`` →
  ``simulate`` → sweep specs.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.annealing.acceptance import (
    BoltzmannSigmoidAcceptance,
    GreedyAcceptance,
    MetropolisAcceptance,
)
from repro.annealing.replicas import ReplicaStats, best_replica_index, summarize_replicas
from repro.comm.model import LinearCommModel, ZeroCommModel
from repro.core.array_annealer import (
    anneal_array,
    anneal_replicas_batched,
    compile_fast_packet,
)
from repro.core.config import SAConfig
from repro.core.cost import PacketCostFunction
from repro.core.kernel import PacketKernel
from repro.core.packet import AnnealingPacket
from repro.core.packet_annealer import (
    PacketAnnealer,
    PacketMappingProblem,
    _split_rng,
)
from repro.core.sa_scheduler import SAScheduler
from repro.exceptions import ConfigurationError, SimulationError
from repro.machine.machine import Machine
from repro.schedulers.base import PacketContext, SchedulingPolicy
from repro.schedulers.hlf import HLFScheduler
from repro.sim.engine import simulate
from repro.taskgraph.generators import layered_random, random_dag
from repro.utils.rng import as_rng, split

# --------------------------------------------------------------------------- #
# Fixtures and strategies
# --------------------------------------------------------------------------- #


def _make_packet(n_ready: int, n_idle: int, seed: int, n_procs: int = 8) -> AnnealingPacket:
    rng = np.random.default_rng(seed)
    tasks = tuple(f"t{i}" for i in range(n_ready))
    levels = {t: float(rng.uniform(1, 100)) for t in tasks}
    placement = {
        t: tuple(
            (f"p{t}{k}", int(rng.integers(0, n_procs)), float(rng.uniform(0, 20)))
            for k in range(int(rng.integers(0, 4)))
        )
        for t in tasks
    }
    return AnnealingPacket(
        time=0.0,
        ready_tasks=tasks,
        idle_processors=tuple(range(n_idle)),
        levels=levels,
        predecessor_placement=placement,
    )


def _hetero_machine(seed: int) -> Machine:
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(0.5, 4.0, 8).tolist()
    topology = Machine.hypercube(3).topology
    link_weights = {
        tuple(sorted(l)): float(rng.uniform(0.5, 3.0)) for l in topology.links()
    }
    return Machine.hypercube(3, speeds=speeds, link_weights=link_weights)


_MACHINES = {
    "hom": lambda seed: Machine.hypercube(3),
    "het": _hetero_machine,
}

#: The acceptance axis: the paper's inlined sigmoid and two rules the walk
#: asks for their probability.
_ACCEPTANCE = {
    "sigmoid": BoltzmannSigmoidAcceptance,
    "metropolis": MetropolisAcceptance,
    "greedy": GreedyAcceptance,
}

_SETTINGS = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _outcome_key(outcome):
    return (
        outcome.assignment,
        outcome.best_cost,
        outcome.initial_cost,
        outcome.n_proposals,
        outcome.n_accepted,
        outcome.n_temperature_steps,
    )


def _result_key(result):
    return (
        list(result.best_state.task_to_proc.items()),  # values AND insertion order
        result.best_cost,
        list(result.final_state.task_to_proc.items()),
        result.final_cost,
        result.n_iterations,
        result.n_proposals,
        result.n_accepted,
    )


# --------------------------------------------------------------------------- #
# Single-chain equivalence: array walk vs reference
# --------------------------------------------------------------------------- #


def _walk_inputs(packet, machine, initial_mapping="hlf", acceptance="sigmoid"):
    """Kernel, kernel-backed problem and annealer of one packet."""
    cfg = SAConfig(
        seed=0, initial_mapping=initial_mapping, acceptance=_ACCEPTANCE[acceptance]()
    )
    kernel = PacketCostFunction(packet, machine).kernel
    problem = PacketMappingProblem(
        kernel.index_packet(), kernel, initial_mapping=initial_mapping
    )
    return kernel, problem, PacketAnnealer(cfg)._build_annealer(packet)


class TestSingleChainEquivalence:
    @given(
        n_ready=st.integers(1, 24),
        n_idle=st.integers(1, 8),
        seed=st.integers(0, 10_000),
        machine_kind=st.sampled_from(sorted(_MACHINES)),
        comm_off=st.booleans(),
        acceptance=st.sampled_from(sorted(_ACCEPTANCE)),
    )
    @_SETTINGS
    def test_both_tiers_commit_identical_walks(
        self, n_ready, n_idle, seed, machine_kind, comm_off, acceptance
    ):
        packet = _make_packet(n_ready, n_idle, seed)
        machine = _MACHINES[machine_kind](seed)
        comm_model = ZeroCommModel() if comm_off else LinearCommModel()
        rule = _ACCEPTANCE[acceptance]
        array, reference = [
            PacketAnnealer(cfg).anneal(packet, machine, comm_model=comm_model, rng=seed)
            for cfg in (
                SAConfig(seed=0, acceptance=rule()),
                SAConfig(seed=0, acceptance=rule(), compiled=False),
            )
        ]
        assert _outcome_key(array) == _outcome_key(reference)

    @pytest.mark.parametrize("acceptance", sorted(_ACCEPTANCE))
    @pytest.mark.parametrize("machine_kind", sorted(_MACHINES))
    @pytest.mark.parametrize("initial_mapping", ["hlf", "random", "empty"])
    def test_walk_level_results_identical_including_order(
        self, machine_kind, initial_mapping, acceptance
    ):
        """anneal_array vs Annealer.run on the same kernel-backed problem:
        full AnnealingResult equality, including the dict-insertion order of
        the committed mappings (which the drop-victim draw and the resync
        sums depend on)."""
        for seed in range(6):
            packet = _make_packet(12 + seed, 3 + seed % 5, seed)
            kernel, problem, annealer = _walk_inputs(
                packet, _MACHINES[machine_kind](seed), initial_mapping, acceptance
            )
            res_a = anneal_array(kernel, problem, annealer, np.random.default_rng(seed))
            res_r = annealer.run(problem, seed=np.random.default_rng(seed))
            assert _result_key(res_a) == _result_key(res_r)

    @pytest.mark.parametrize("acceptance", sorted(_ACCEPTANCE))
    def test_pending_half_word_is_consumed_first(self, hypercube8, acceptance):
        """A bounded draw made on the run generator before the walk leaves
        a buffered 32-bit half-word in its state; the array walk must use it
        for its first bounded draw, as the generator's own integers() does."""
        for seed in range(6):
            packet = _make_packet(10 + seed, 2 + seed % 4, seed)
            kernel, problem, annealer = _walk_inputs(
                packet, hypercube8, acceptance=acceptance
            )
            runs = []
            for _ in range(2):
                rng = np.random.default_rng(seed)
                rng.integers(0, 3)
                assert rng.bit_generator.state["has_uint32"]
                runs.append(rng)
            res_a = anneal_array(kernel, problem, annealer, runs[0])
            res_r = annealer.run(problem, seed=runs[1])
            assert _result_key(res_a) == _result_key(res_r)

    @pytest.mark.parametrize("acceptance", sorted(_ACCEPTANCE))
    def test_degenerate_packets(self, hypercube8, acceptance):
        rule = _ACCEPTANCE[acceptance]
        for n_ready, n_idle in [(1, 1), (1, 8), (8, 1), (2, 2)]:
            packet = _make_packet(n_ready, n_idle, 3)
            a = PacketAnnealer(SAConfig(seed=0, acceptance=rule())).anneal(
                packet, hypercube8, rng=7
            )
            r = PacketAnnealer(
                SAConfig(seed=0, acceptance=rule(), compiled=False)
            ).anneal(packet, hypercube8, rng=7)
            assert _outcome_key(a) == _outcome_key(r)

    @pytest.mark.parametrize("acceptance", ["metropolis", "greedy"])
    @pytest.mark.parametrize("mode", ["single", "replicas", "portfolio"])
    def test_every_rule_runs_the_array_walk(
        self, hypercube8, monkeypatch, acceptance, mode
    ):
        """Non-sigmoid rules take the compiled walk in every mode, and the
        single-chain and replica runs match the reference path bit for bit
        (portfolio lanes replay in tests/test_portfolio.py)."""
        from repro.core import array_annealer

        calls = []
        real = array_annealer._array_walk

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(array_annealer, "_array_walk", spy)
        knob = {"single": {}, "replicas": {"replicas": 4}, "portfolio": {"portfolio": 4}}
        cfg = SAConfig(seed=0, acceptance=_ACCEPTANCE[acceptance](), **knob[mode])
        packet = _make_packet(10, 4, 0)
        outcome = PacketAnnealer(cfg).anneal(packet, hypercube8, rng=5)
        assert len(calls) == (1 if mode == "single" else 4)
        if mode != "portfolio":
            reference = PacketAnnealer(replace(cfg, compiled=False)).anneal(
                packet, hypercube8, rng=5
            )
            assert _outcome_key(outcome) == _outcome_key(reference)
            assert outcome.best_replica == reference.best_replica

    def test_negative_temperature_raises_in_both_tiers(self, hypercube8):
        """The inlined sigmoid defers out-of-range temperatures to the rule."""
        from repro.annealing.cooling import CoolingSchedule

        class Negative(CoolingSchedule):
            def temperature(self, k, initial_temperature):
                return -1.0

        packet = _make_packet(6, 3, 0)
        kernel, problem, annealer = _walk_inputs(packet, hypercube8)
        annealer.cooling = Negative()
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            anneal_array(kernel, problem, annealer, np.random.default_rng(0))
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            annealer.run(problem, seed=np.random.default_rng(0))


# --------------------------------------------------------------------------- #
# Multi-start replicas
# --------------------------------------------------------------------------- #


def _prepped_run_rngs(problem, parent_seed: int, n: int):
    """Replicate the per-replica prologue of the annealer: split the parent,
    burn the seed-mapping draw of each child, return the walk generators."""
    runs = []
    for child in split(np.random.default_rng(parent_seed), n):
        seed_rng, run_rng = _split_rng(child)
        problem.cost(problem.initial_state(seed_rng))
        runs.append(as_rng(run_rng))
    return runs


class TestBatchedReplicas:
    @pytest.mark.parametrize("acceptance", ["sigmoid", "metropolis"])
    @pytest.mark.parametrize("machine_kind", sorted(_MACHINES))
    @pytest.mark.parametrize("n_replicas", [1, 3, 8])
    def test_batched_equals_scalar_replicas(self, machine_kind, n_replicas, acceptance):
        """The core contract: replica b is bit-identical to a single-chain
        anneal_array walk on child stream b (B=1 included)."""
        for seed in range(4):
            packet = _make_packet(10 + 3 * seed, 2 + seed, seed)
            kernel, problem, annealer = _walk_inputs(
                packet, _MACHINES[machine_kind](seed), acceptance=acceptance
            )
            batched, trajs = anneal_replicas_batched(
                kernel, problem, annealer, _prepped_run_rngs(problem, seed, n_replicas)
            )
            scalar = [
                anneal_array(kernel, problem, annealer, rng)
                for rng in _prepped_run_rngs(problem, seed, n_replicas)
            ]
            assert [_result_key(r) for r in batched] == [_result_key(r) for r in scalar]
            # One (temperature, cost) sample per executed temperature step.
            assert [len(t) for t in trajs] == [r.n_iterations for r in batched]
            assert [t[-1][1] for t in trajs] == [r.final_cost for r in batched]

    def test_batched_outcome_deterministic(self, hypercube8):
        packet = _make_packet(14, 5, 1)
        first = PacketAnnealer(SAConfig(seed=0, replicas=6)).anneal(
            packet, hypercube8, rng=11
        )
        second = PacketAnnealer(SAConfig(seed=0, replicas=6)).anneal(
            packet, hypercube8, rng=11
        )
        assert first.assignment == second.assignment
        assert first.best_replica == second.best_replica
        assert first.best_cost == second.best_cost
        assert [s.best_cost for s in first.replica_stats] == [
            s.best_cost for s in second.replica_stats
        ]

    def test_replica_stats_shape_and_winner(self, hypercube8):
        packet = _make_packet(12, 4, 2)
        outcome = PacketAnnealer(SAConfig(seed=0, replicas=5)).anneal(
            packet, hypercube8, rng=3
        )
        stats = outcome.replica_stats
        assert len(stats) == 5
        assert [s.replica for s in stats] == list(range(5))
        costs = [s.best_cost for s in stats]
        assert outcome.best_replica == best_replica_index(costs)
        assert outcome.best_cost == costs[outcome.best_replica]
        assert outcome.best_cost == min(costs)
        # Totals across replicas; the winner's temperature count.
        assert outcome.n_proposals == sum(s.n_proposals for s in stats)
        assert outcome.n_accepted == sum(s.n_accepted for s in stats)
        winner = stats[outcome.best_replica]
        assert outcome.n_temperature_steps == winner.n_temperature_steps
        assert len(winner.temperature_trajectory) == winner.n_temperature_steps
        # The walk cools monotonically; every sample carries a temperature.
        temps = [t for t, _ in winner.temperature_trajectory]
        assert temps == sorted(temps, reverse=True)
        summary = summarize_replicas(stats)
        assert summary["min_best_cost"] == outcome.best_cost
        assert summary["n_replicas"] == 5.0

    def test_multi_start_never_worse_than_single_chain(self, hypercube8):
        """Replica 0's chain is one of the B chains, so min over replicas can
        only improve on... a *different* stream than the single chain — so
        compare against the scalar replicas instead: the winner must achieve
        the minimum over its own replica set."""
        packet = _make_packet(16, 6, 4)
        outcome = PacketAnnealer(SAConfig(seed=0, replicas=7)).anneal(
            packet, hypercube8, rng=9
        )
        assert outcome.best_cost == min(s.best_cost for s in outcome.replica_stats)

    def test_reference_path_replicas_match_compiled_winner_selection(self, hypercube8):
        """compiled=False with replicas runs full anneals per child; the
        per-replica best costs (and hence the winner) must match the compiled
        replicas on the same packet rng."""
        packet = _make_packet(9, 3, 5)
        fast = PacketAnnealer(SAConfig(seed=0, replicas=4)).anneal(
            packet, hypercube8, rng=21
        )
        slow = PacketAnnealer(SAConfig(seed=0, replicas=4, compiled=False)).anneal(
            packet, hypercube8, rng=21
        )
        assert fast.assignment == slow.assignment
        assert fast.best_replica == slow.best_replica
        assert [s.best_cost for s in fast.replica_stats] == [
            s.best_cost for s in slow.replica_stats
        ]

    def test_best_replica_index_tie_breaks_low(self):
        assert best_replica_index([2.0, 1.0, 1.0, 3.0]) == 1
        assert best_replica_index([5.0]) == 0
        with pytest.raises(ValueError):
            best_replica_index([])

    def test_summarize_replicas_single(self):
        stats = [ReplicaStats(0, 1.5, 2.0, 1.5, 10, 5, 3)]
        summary = summarize_replicas(stats)
        assert summary["std_best_cost"] == 0.0
        assert summary["spread"] == 0.0


# --------------------------------------------------------------------------- #
# compile_fast_packet: scenario-gathered kernels == cost-function kernels
# --------------------------------------------------------------------------- #


def _fast_packets_of_run(graph, machine, comm_model):
    """Capture every FastPacket the fast engine hands to a policy."""
    captured = []

    class Capture(HLFScheduler):
        def fast_assign(self, packet):
            captured.append(
                compile_fast_packet(packet)
                + (PacketKernel(
                    AnnealingPacket.from_context(_ctx_of(packet)),
                    machine,
                    comm_model=comm_model,
                ),)
            )
            return super().fast_assign(packet)

    def _ctx_of(packet):
        sc = packet.scenario
        levels = {t: sc.levels_list[sc.index_of[t]] for t in sc.task_ids}
        placed = {
            sc.task_ids[i]: int(p)
            for i, p in enumerate(packet.assigned_proc)
            if p >= 0
        }
        return PacketContext(
            time=packet.time,
            ready_tasks=[sc.task_ids[i] for i in packet.ready],
            idle_processors=list(packet.idle),
            graph=graph,
            machine=machine,
            levels=levels,
            task_processor=placed,
            comm_model=comm_model,
        )

    simulate(graph, machine, Capture(seed=0), comm_model=comm_model,
             record_trace=False, fast=True)
    return captured


@pytest.mark.parametrize("machine_factory,comm_off", [
    (lambda: Machine.hypercube(3), False),
    (lambda: Machine.hypercube(3), True),
    (lambda: Machine.ring(9), False),
    (lambda: _hetero_machine(3), False),
])
def test_compile_fast_packet_tables_bit_identical(machine_factory, comm_off):
    machine = machine_factory()
    comm_model = ZeroCommModel() if comm_off else LinearCommModel()
    graph = layered_random(n_layers=4, width=6, edge_probability=0.5,
                           mean_duration=15.0, mean_comm=7.0, seed=2)
    captured = _fast_packets_of_run(graph, machine, comm_model)
    assert captured, "no epochs captured"
    for apacket, fast_kernel, ref_kernel in captured:
        assert fast_kernel.comm_rows == ref_kernel.comm_rows
        assert fast_kernel.balance_rows == ref_kernel.balance_rows
        assert fast_kernel.levels == ref_kernel.levels
        assert fast_kernel.balance_range == ref_kernel.balance_range
        assert fast_kernel.comm_range == ref_kernel.comm_range
        assert fast_kernel.comm_enabled == ref_kernel.comm_enabled


# --------------------------------------------------------------------------- #
# SA fast path end-to-end + the replicas= knob
# --------------------------------------------------------------------------- #


class _NoFastPolicy(SchedulingPolicy):
    name = "NoFast"

    def assign(self, ctx):
        if ctx.n_ready == 0 or ctx.n_idle == 0:
            return {}
        order = sorted(ctx.ready_tasks, key=lambda t: (-ctx.levels[t], str(t)))
        return dict(zip(order, ctx.idle_processors))


class TestSAFastPath:
    def test_sa_runs_kernelized_zero_fallbacks(self, hypercube8):
        graph = random_dag(30, edge_probability=0.2, seed=1)
        result = simulate(graph, hypercube8,
                          SAScheduler(SAConfig.paper_defaults(seed=1)),
                          record_trace=False, fast=True)
        assert result.n_fallback_epochs == 0

    def test_policy_without_fast_path_counts_fallbacks(self, hypercube8):
        graph = random_dag(30, edge_probability=0.2, seed=1)
        result = simulate(graph, hypercube8, _NoFastPolicy(),
                          record_trace=False, fast=True)
        assert result.n_fallback_epochs == result.n_packets > 0

    def test_sa_reference_config_declines_fast_path(self, hypercube8):
        """compiled=False must keep the materialized-context fallback (and
        still match the object engine bit for bit)."""
        graph = random_dag(24, edge_probability=0.2, seed=2)
        fast = simulate(graph, hypercube8,
                        SAScheduler(SAConfig(seed=1, compiled=False)),
                        record_trace=False, fast=True)
        slow = simulate(graph, hypercube8,
                        SAScheduler(SAConfig(seed=1, compiled=False)),
                        record_trace=False, fast=False)
        assert fast.n_fallback_epochs == fast.n_packets > 0
        assert fast.fingerprint() == slow.fingerprint()

    def test_sa_fast_assign_keeps_scheduler_stats(self, hypercube8):
        graph = random_dag(25, edge_probability=0.2, seed=3)
        fast_policy = SAScheduler(SAConfig.paper_defaults(seed=2))
        slow_policy = SAScheduler(SAConfig.paper_defaults(seed=2))
        fast = simulate(graph, hypercube8, fast_policy, record_trace=False, fast=True)
        slow = simulate(graph, hypercube8, slow_policy, record_trace=False, fast=False)
        assert fast.fingerprint() == slow.fingerprint()
        assert fast_policy.n_packets == slow_policy.n_packets
        assert fast_policy.packet_stats == slow_policy.packet_stats

    @pytest.mark.parametrize("fast", [False, True])
    def test_simulate_replicas_knob(self, hypercube8, fast):
        graph = random_dag(20, edge_probability=0.2, seed=4)
        single = simulate(graph, hypercube8,
                          SAScheduler(SAConfig.paper_defaults(seed=0)),
                          record_trace=False, fast=fast)
        multi = simulate(graph, hypercube8,
                         SAScheduler(SAConfig.paper_defaults(seed=0)),
                         record_trace=False, fast=fast, replicas=4)
        again = simulate(graph, hypercube8,
                         SAScheduler(SAConfig.paper_defaults(seed=0)),
                         record_trace=False, fast=fast, replicas=4)
        assert multi.fingerprint() == again.fingerprint()  # deterministic
        assert multi.makespan > 0
        assert single.makespan > 0

    def test_replicas_identical_across_engines(self, hypercube8):
        graph = random_dag(20, edge_probability=0.2, seed=5)
        fast = simulate(graph, hypercube8,
                        SAScheduler(SAConfig.paper_defaults(seed=0)),
                        record_trace=False, fast=True, replicas=3)
        slow = simulate(graph, hypercube8,
                        SAScheduler(SAConfig.paper_defaults(seed=0)),
                        record_trace=False, fast=False, replicas=3)
        assert fast.fingerprint() == slow.fingerprint()

    def test_replicas_rejected_for_policies_without_hook(self, hypercube8, diamond_graph):
        with pytest.raises(SimulationError, match="with_replicas"):
            simulate(diamond_graph, hypercube8, HLFScheduler(seed=0), replicas=2)
        with pytest.raises(SimulationError, match="replicas"):
            simulate(diamond_graph, hypercube8,
                     SAScheduler(SAConfig.paper_defaults(seed=0)), replicas=0)

    def test_with_replicas_leaves_original_untouched(self):
        base = SAScheduler(SAConfig.paper_defaults(seed=0))
        multi = base.with_replicas(5)
        assert base.config.replicas == 1
        assert multi.config.replicas == 5
        assert multi is not base


class TestConfigValidation:
    def test_replicas_positive(self):
        SAConfig(replicas=3)
        with pytest.raises(ConfigurationError, match="replicas"):
            SAConfig(replicas=0)

    def test_with_replicas_copy(self):
        cfg = SAConfig(seed=0)
        assert cfg.with_replicas(4).replicas == 4
        assert cfg.replicas == 1


class TestSplit:
    def test_split_matches_spawn_semantics(self):
        a = np.random.default_rng(42)
        b = np.random.default_rng(42)
        from repro.utils.rng import spawn_rng

        xs = [r.random() for r in split(a, 3)]
        ys = [r.random() for r in spawn_rng(b, 3)]
        assert xs == ys

    def test_split_validates(self):
        with pytest.raises(ValueError):
            split(np.random.default_rng(0), 0)
