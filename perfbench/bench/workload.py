"""Bookkeeping shared by the workloads: operations attempted and failed."""

from __future__ import annotations

from typing import List


class Workload:
    """A workload's outcome ledger; subclasses set up, measure and verify.

    ``attempted`` counts the operations whose outputs were checked and
    ``failed`` the wrong or failed ones; ``problems`` says what was wrong.
    """

    name = ""

    def __init__(self, seed: int, seconds: float) -> None:
        self.seed = seed
        self.seconds = seconds
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.pinned = False

    def fail(self, problem: str, count: int = 1) -> None:
        self.problems.append(problem)
        self.failed += count

    def close(self) -> None:
        """Stop anything the workload started."""
