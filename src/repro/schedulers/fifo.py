"""First-come-first-served list scheduling.

Ready tasks are assigned in the order they became ready (approximated by the
graph's insertion order among simultaneously-ready tasks), ignoring both task
levels and communication.  This is the "no priority" baseline.
"""

from __future__ import annotations

from typing import Dict, Hashable, Optional

from repro.schedulers.base import PacketContext, SchedulingPolicy

__all__ = ["FIFOScheduler"]

TaskId = Hashable
ProcId = int


class FIFOScheduler(SchedulingPolicy):
    """Assign ready tasks to idle processors in arrival (insertion) order."""

    name = "FIFO"

    def assign(self, ctx: PacketContext) -> Dict[TaskId, ProcId]:
        if ctx.n_idle == 0 or ctx.n_ready == 0:
            return {}
        k = min(ctx.n_idle, ctx.n_ready)
        return dict(zip(ctx.ready_tasks[:k], ctx.idle_processors[:k]))

    def fast_assign(self, packet) -> Optional[Dict[int, ProcId]]:
        """Index-space FIFO: ready indices are already in insertion order."""
        k = min(packet.n_idle, packet.n_ready)
        return dict(zip(packet.ready[:k], packet.idle[:k]))
