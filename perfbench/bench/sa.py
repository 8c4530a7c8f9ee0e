"""``sa-1k`` and ``sa-multistart``: the paper's annealer through ``simulate()``.

Both run as a closed loop in one thread, in rounds over ``GRAPHS``
seed-derived graphs of one family: round r anneals graph ``r % GRAPHS`` in
each mode, one timed item per mode, and a round that repeats a graph must
reproduce its first round exactly.  An item takes about two seconds, so a
run holds at least ``stats.MIN_ROUNDS`` rounds; ``tasks_per_s`` is the
trimmed mean of the round rates, scaled to the reference host speed, and
``makespan_vs_etf`` covers every graph.

* ``sa-1k``: the paper's single-chain SA on 1024-task mapreduce instances.
* ``sa-multistart``: the paper's SA with ``replicas=8`` and with
  ``portfolio=8`` on 37-task crossv graphs (lock-step batched walk,
  successive halving, ETF seeds).

ETF makespans, the denominator of ``makespan_vs_etf``, are computed during
set-up, which also compiles every scenario, so the timed rounds start warm.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from repro import ETFScheduler, LinearCommModel, Machine, SAConfig, SAScheduler, simulate
from repro.experiments.sweep import GRAPH_FAMILIES
from repro.sim.compile import scenario_cache_stats
from repro.taskgraph.generators import random_dag

from bench import checks, layers, stats
from bench.tracer import OpTimer, Tracer
from bench.workload import Workload

#: Graph family and SA modes per workload; a mode is None (one chain),
#: "replicas" or "portfolio".  Larger instances (gridcat-1k, montage-1k) or
#: 50-64-task multi-start graphs take 3-25 s per item, too long for several
#: rounds in a run.
FAMILY = {"sa-1k": "mapreduce-1k", "sa-multistart": "crossv"}
MODES = {"sa-1k": (None,), "sa-multistart": ("replicas", "portfolio")}

#: Graphs per run.  Round r runs graph ``r % GRAPHS`` in every mode, so the
#: first rounds cover every graph and later rounds repeat them.
GRAPHS = stats.MIN_ROUNDS

#: Chains per packet in the multi-start modes.
CHAINS = 8

#: Size of the small graph that warms the annealer's lazy paths in set-up.
#: It is the same graph for every seed: its multi-start annealing time
#: varies 3x from graph to graph, which would swamp the set-up time.
WARMUP_TASKS = 12

Outcome = Tuple[float, str, int, int]


class SAWorkload(Workload):
    def __init__(self, name: str, seed: int, seconds: float) -> None:
        super().__init__(seed, seconds)
        self.name = name
        self.family = FAMILY[name]
        self.modes = MODES[name]
        self.graph_seeds = [seed * GRAPHS + g for g in range(GRAPHS)]
        self.machine = Machine.hypercube(3)
        self.comm = LinearCommModel()
        self.graphs: List[object] = []
        self.etf: List[float] = []
        self.rounds: List[List[Outcome]] = []
        self.raw_tasks_per_s = 0.0

    # ------------------------------------------------------------------ #
    def setup(self) -> None:
        """Build the graphs, compile each scenario via its ETF run, warm SA."""
        graphs, etf = [], []
        build_s = 0.0
        for graph_seed in self.graph_seeds:
            t0 = time.perf_counter()
            graph = GRAPH_FAMILIES[self.family](graph_seed)
            build_s += time.perf_counter() - t0
            graphs.append(graph)
            etf.append(self._simulate(graph, ETFScheduler()).makespan)
        warm = random_dag(WARMUP_TASKS, seed=0)
        for mode in self.modes:
            self._simulate(warm, SAScheduler(SAConfig.paper_defaults(seed=0)), mode)
        self.graphs, self.etf, self.build_s = graphs, etf, build_s

    def _simulate(self, graph, policy, mode: Optional[str] = None, trace: bool = False):
        knobs = {mode: CHAINS} if mode else {}
        return simulate(
            graph, self.machine, policy, comm_model=self.comm,
            record_trace=trace, fast=True if trace else None, **knobs,
        )

    def _policy(self, g: int, hook=None) -> SAScheduler:
        policy = SAScheduler(SAConfig.paper_defaults(seed=self.graph_seeds[g]))
        policy.anytime_hook = hook
        return policy

    def _item(self, g: int, mode: Optional[str], hook=None) -> Outcome:
        """``(makespan, placement digest, packets, fallback epochs)`` of graph *g*."""
        result = self._simulate(self.graphs[g], self._policy(g, hook), mode)
        return (result.makespan, checks.fingerprint_digest(result),
                result.n_packets, result.n_fallback_epochs)

    def _round(self, r: int, hook=None) -> List[Outcome]:
        return [self._item(r % GRAPHS, mode, hook) for mode in self.modes]

    def _round_tasks(self, r: int) -> int:
        return self.graphs[r % GRAPHS].n_tasks * len(self.modes)

    # ------------------------------------------------------------------ #
    def measure(self) -> Dict[str, float]:
        """Timed rounds; returns the end-to-end metrics except set-up/memory."""
        units = [lambda r, mode=mode: self._item(r % GRAPHS, mode) for mode in self.modes]
        rounds = stats.timed_rounds(self.seconds, units)
        self.rounds = rounds.results()
        work = [self._round_tasks(r) for r in range(len(rounds))]
        self.raw_tasks_per_s = rounds.raw_rate(work)
        ratios = [
            outcome[0] / self.etf[g]
            for g, outcomes in enumerate(self.rounds[:GRAPHS]) for outcome in outcomes
        ]
        return {**rounds.metrics(work), "makespan_vs_etf": stats.geomean(ratios)}

    # ------------------------------------------------------------------ #
    def traced(self) -> Dict[str, float]:
        """One more round with every layer wrapped; the per-layer metrics."""
        tracer = Tracer()
        snapshots: List[dict] = []

        def on_snapshot(snapshot: dict) -> None:
            if "last_packet" in snapshot:
                snapshots.append(snapshot["last_packet"])

        # Decision latency: each SA packet decision, timed inside the spans.
        timer = OpTimer(SAScheduler, "fast_assign")
        layers.install_sa(tracer)
        layers.install_engines(tracer)
        cache_before = scenario_cache_stats()
        try:
            t0 = time.perf_counter()
            traced_round = self._round(0, hook=on_snapshot)
            wall = time.perf_counter() - t0
        finally:
            tracer.uninstall()
            timer.uninstall()
        cache = {k: v - cache_before[k] for k, v in scenario_cache_stats().items()}
        self.attempted += len(self.modes)
        if traced_round != self.rounds[0]:
            self.fail("traced round differs from the untraced rounds", len(self.modes))
        out = layers.from_tracer(tracer, wall)
        out.update(layers.anneal_quality(tracer))
        out.update(layers.portfolio_quality(snapshots))
        out["taskgraph.build_s"] = self.build_s
        out["sim.compile.hit_ratio"] = layers.hit_ratio(cache["hits"], cache["misses"])
        out["sim.epochs"] = sum(item[2] for item in traced_round)
        out["sim.fallback_epochs"] = sum(item[3] for item in traced_round)
        out["trace.overhead_frac"] = wall * self.raw_tasks_per_s / self._round_tasks(0) - 1.0
        out.update(layers.latency([d * 1e3 for d in timer.durations]))
        return out

    # ------------------------------------------------------------------ #
    def outputs(self, rounds) -> Dict[str, object]:
        """Pinned outputs: per graph and mode, the SA makespan, placement
        digest and ETF makespan."""
        return {
            f"{self.family}|{self.graph_seeds[g]}|{mode or 'single'}": [outcome[0], outcome[1], self.etf[g]]
            for g, outcomes in enumerate(rounds[:GRAPHS])
            for mode, outcome in zip(self.modes, outcomes)
        }

    def pin_outputs(self) -> Dict[str, object]:
        self.setup()
        return self.outputs([self._round(r) for r in range(GRAPHS)])

    def verify(self, pins: checks.Pins) -> None:
        """Repeat-determinism, pins and a full schedule check of one item."""
        self.attempted += len(self.modes) * len(self.rounds)
        for r, outcomes in enumerate(self.rounds[GRAPHS:], start=GRAPHS):
            for mode, a, b in zip(self.modes, self.rounds[r % GRAPHS], outcomes):
                if a != b:
                    self.fail(f"round {r + 1} ({mode}) differs from round {r % GRAPHS + 1}")
        mismatched = pins.mismatches(self.name, self.seed, self.outputs(self.rounds))
        self.pinned = mismatched is not None
        for group in mismatched or []:
            self.fail(f"{group} differs from its pinned output")
        # Re-run the first item with a recorded trace.
        self.attempted += 1
        graph, mode = self.graphs[0], self.modes[0]
        result = self._simulate(graph, self._policy(0), mode, trace=True)
        problems = checks.rerun_problems(graph, result, self.rounds[0][0][0])
        if problems:
            self.fail(f"{self.family}: {len(problems)} problems, e.g. {problems[0]}")
