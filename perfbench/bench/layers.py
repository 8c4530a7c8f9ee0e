"""Which program functions count as which layer, and the metrics read off them.

Every per-layer time is **self time**: the layer's spans minus the wrapped
spans they called (for instance ``sim.fast_engine.s`` is ``run_compiled``
time minus the policy kernels it invoked).
"""

from __future__ import annotations

import statistics
import time
from typing import Dict, Iterable, Tuple

from repro.annealing.portfolio import SuccessiveHalvingController
from repro.core.array_annealer import anneal_array, anneal_replicas_batched, compile_fast_packet
from repro.core.packet_annealer import PacketAnnealer
from repro.core.sa_scheduler import SAScheduler
from repro.experiments import sweep as sweep_module
from repro.schedulers.etf import ETFScheduler
from repro.schedulers.hlf import HLFScheduler
from repro.sim.batch_engine import run_batch
from repro.sim.compile import compile_scenario, stack_scenarios
from repro.sim.engine import Simulator
from repro.sim.fast_engine import run_compiled

from bench import stats
from bench.tracer import Tracer, delta

#: The list schedulers the service runs, by layer name.
POLICIES = {"HLF": HLFScheduler, "ETF": ETFScheduler}

#: Layers whose self time is reported as ``<layer>.s``.
TIMED_LAYERS = (
    "sim.simulator", "sim.compile", "sim.stack", "sim.batch_engine",
    "sim.fast_engine", "core.sa_policy", "core.compile_packet", "core.anneal",
    "core.walk", "annealing.controller", "experiments.sweep",
) + tuple(f"schedulers.{name}" for name in POLICIES)

#: Layers whose call counts are reported as ``<layer>.calls``.
COUNTED_LAYERS = ("sim.compile", "core.anneal") + tuple(
    f"schedulers.{name}" for name in POLICIES
)


def install_engines(tracer: Tracer) -> None:
    """Spans for scenario compile, lane stacking, both engines and the kernels."""
    tracer.patch_method("sim.simulator", Simulator, "run")
    tracer.patch_function("sim.compile", compile_scenario)
    tracer.patch_function("sim.stack", stack_scenarios)
    tracer.patch_function("sim.batch_engine", run_batch)
    tracer.patch_function("sim.fast_engine", run_compiled)
    for name, cls in POLICIES.items():
        for method in ("assign", "fast_assign", "batch_assign"):
            tracer.patch_method(f"schedulers.{name}", cls, method)


#: Row key that carries a work item's layer counters out of a worker.  The
#: service strips row keys that start with ``_``, so this one does not.
TRACE_KEY = "perfbench_trace"


def install_items(tracer: Tracer) -> None:
    """Spans for graph builds and the sweep glue, and per-item counters.

    Service workers run each work item through
    ``_run_sweep_item``; the wrapper attaches to the item's first row the
    counters the item added and its wall time (``item_s``), so they reach
    the benchmark with the rows (see :func:`collect_items`).
    """
    tracer.patch_mapping("taskgraph.build", sweep_module.GRAPH_FAMILIES)
    tracer.patch_function("experiments.sweep", sweep_module.run_scenario)
    tracer.patch_function("experiments.sweep", sweep_module.run_lane_group)
    run_item = sweep_module._run_sweep_item

    def traced_item(item):
        before = tracer.snapshot()
        start = time.perf_counter()
        rows = run_item(item)
        counters = delta(tracer.snapshot(), before)
        counters["item_s"] = time.perf_counter() - start
        rows[0][TRACE_KEY] = counters
        return rows

    tracer.replace(sweep_module, "_run_sweep_item", traced_item)


def collect_items(rows: Iterable[dict]) -> Tuple[Tracer, float]:
    """Strip the item counters from *rows*; their sum and the items' wall."""
    workers = Tracer()
    item_s = 0.0
    for row in rows:
        counters = row.pop(TRACE_KEY, None)
        if counters is not None:
            item_s += counters.pop("item_s")
            workers.add(counters)
    return workers, item_s


def install_sa(tracer: Tracer) -> None:
    """Spans for the annealer: packet lowering, packet anneal, walks, racing.

    Each packet's outcome also adds its proposals, acceptances and whether
    it improved on the initial mapping to the tracer's counters.
    """
    calls = tracer.calls

    def count(outcome) -> None:
        calls["anneal.proposals"] += outcome.n_proposals
        calls["anneal.accepted"] += outcome.n_accepted
        calls["anneal.improved"] += int(outcome.best_cost < outcome.initial_cost)

    tracer.patch_method("core.sa_policy", SAScheduler, "fast_assign")
    tracer.patch_function("core.compile_packet", compile_fast_packet)
    tracer.patch_method("core.anneal", PacketAnnealer, "anneal_compiled", on_result=count)
    tracer.patch_function("core.walk", anneal_array)
    tracer.patch_function("core.walk", anneal_replicas_batched)
    tracer.patch_method("annealing.controller", SuccessiveHalvingController, "on_step")


def from_tracer(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Self times and call counts, plus the share of *wall* no layer covers."""
    out: Dict[str, float] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.s"] = tracer.self_s.get(layer, 0.0)
    for layer in COUNTED_LAYERS:
        out[f"{layer}.calls"] = tracer.calls.get(layer, 0)
    out["taskgraph.build_s"] = tracer.self_s.get("taskgraph.build", 0.0)
    covered = sum(tracer.self_s.values())
    out["trace.unattributed_frac"] = max(0.0, 1.0 - covered / wall) if wall > 0 else 0.0
    return out


def latency(samples_ms) -> Dict[str, float]:
    """Median and tail of one workload's per-operation latency."""
    tail = stats.tail(samples_ms)
    return {
        "latency.p50_ms": statistics.median(samples_ms),
        "latency.tail_ms": tail["value"],
        "tail.percentile": tail["pct"],
        "tail.samples": tail["n"],
    }


def hit_ratio(hits: int, misses: int) -> float:
    lookups = hits + misses
    return hits / lookups if lookups else 0.0


def anneal_quality(tracer: Tracer) -> Dict[str, float]:
    """Acceptance, improvement and proposal rate over the annealed packets."""
    proposals = tracer.calls.get("anneal.proposals", 0)
    accepted = tracer.calls.get("anneal.accepted", 0)
    packets = tracer.calls.get("core.anneal", 0)
    anneal_s = tracer.total_s.get("core.anneal", 0.0)
    return {
        "core.anneal.accept_ratio": accepted / proposals if proposals else 0.0,
        "core.anneal.improved_frac": (
            tracer.calls.get("anneal.improved", 0) / packets if packets else 0.0
        ),
        "core.anneal.proposals_per_s": proposals / anneal_s if anneal_s else 0.0,
    }


def portfolio_quality(last_packets: Iterable[dict]) -> Dict[str, float]:
    """Culled share of lanes and share of packets won by a non-paper lane.

    Read from the ``last_packet`` block of the scheduler's public
    ``anytime_hook`` snapshots; lane 0 is the paper's exact configuration.
    """
    packets = list(last_packets)
    lanes = sum(p["n_lanes"] for p in packets)
    return {
        "annealing.portfolio.culled_frac": (
            sum(p["n_culled"] for p in packets) / lanes if lanes else 0.0
        ),
        "annealing.portfolio.non_paper_champion_frac": (
            sum(1 for p in packets if p["lane"] != 0) / len(packets) if packets else 0.0
        ),
    }
