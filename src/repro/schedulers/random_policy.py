"""Random list scheduling — the weakest baseline.

At every epoch a random subset of ready tasks is assigned to the idle
processors in random order.  Useful as a lower bound in the random-graph
benchmark and for exercising the simulator with arbitrary (but legal)
placements in property-based tests.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.schedulers.base import PacketContext, SchedulingPolicy
from repro.utils.rng import SeedLike, as_rng

__all__ = ["RandomScheduler"]

TaskId = Hashable
ProcId = int


class RandomScheduler(SchedulingPolicy):
    """Assign random ready tasks to random idle processors."""

    name = "Random"

    def __init__(self, seed: SeedLike = None) -> None:
        self._seed = seed
        self._rng = as_rng(seed)

    def reset(self) -> None:
        """Re-seed so repeated simulations with the same seed are identical."""
        self._rng = as_rng(self._seed)

    def assign(self, ctx: PacketContext) -> Dict[TaskId, ProcId]:
        if ctx.n_idle == 0 or ctx.n_ready == 0:
            return {}
        k = min(ctx.n_idle, ctx.n_ready)
        task_idx = self._rng.permutation(ctx.n_ready)[:k]
        proc_idx = self._rng.permutation(ctx.n_idle)[:k]
        return {
            ctx.ready_tasks[int(ti)]: ctx.idle_processors[int(pi)]
            for ti, pi in zip(task_idx, proc_idx)
        }

    def fast_assign(self, packet) -> Optional[Dict[int, ProcId]]:
        """Index-space random placement with the object path's exact draws."""
        if packet.n_idle == 0 or packet.n_ready == 0:
            return {}
        k = min(packet.n_idle, packet.n_ready)
        task_idx = self._rng.permutation(packet.n_ready)[:k]
        proc_idx = self._rng.permutation(packet.n_idle)[:k]
        return {
            packet.ready[int(ti)]: packet.idle[int(pi)]
            for ti, pi in zip(task_idx, proc_idx)
        }
