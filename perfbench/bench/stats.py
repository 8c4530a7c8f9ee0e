"""Summary statistics shared by every workload.

Throughput is the trimmed mean rate over rounds of short, separately timed
units, so a stall of the host spoils one sample, not the run; each round's
rate is scaled by host-speed probes taken around its units.
Timings are reported as a median plus a *tail*: the highest percentile on a
fixed ladder that still has at least ten samples beyond it.  Snapping to a
ladder keeps the tail's meaning the same across seeds whose sample counts
differ slightly, and the ten-sample rule keeps it from resting on one or two
outliers.
"""

from __future__ import annotations

import gc
import math
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

#: Candidate tail percentiles, highest first.
TAIL_LADDER = (99.9, 99.5, 99.0, 98.0, 97.0, 95.0, 90.0, 80.0, 75.0, 50.0)

#: Samples that must lie strictly beyond the reported tail percentile.
MIN_BEYOND = 10


def tail(values: Sequence[float]) -> Dict[str, float]:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples above it.

    Returns ``{"value", "pct", "n"}``.  Raises ``ValueError`` when even the
    median has fewer than ``MIN_BEYOND`` samples beyond it: such a run is too
    short to report a tail, and the workloads are sized so that it never is.
    """
    ordered = sorted(values)
    n = len(ordered)
    for pct in TAIL_LADDER:
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_BEYOND:
            return {"value": ordered[rank - 1], "pct": pct, "n": n}
    raise ValueError(
        f"{n} samples cannot support a tail with {MIN_BEYOND} samples beyond it"
    )


def geomean(values: Sequence[float]) -> float:
    if not values or min(values) <= 0:
        raise ValueError("geometric mean needs positive values")
    return math.exp(math.fsum(math.log(v) for v in values) / len(values))


#: Fewest timed rounds a run reports from; a run goes past its seconds to
#: get them, so every rate rests on at least this many rounds.
MIN_ROUNDS = 5

#: Wall time of :func:`host_probe` on the reference host speed.  Rates and
#: set-up times are scaled to it, so they read as if the host had run at
#: that speed throughout.
REF_PROBE_S = 0.0042

#: Loop count of one probe sample, and samples per probe.
PROBE_STEPS = 7_000
PROBE_SAMPLES = 5


def _probe_sample() -> float:
    start = time.perf_counter()
    counts: Dict[int, int] = {}
    values: List[float] = []
    key = 1
    for i in range(PROBE_STEPS):
        key = (key * 1103515245 + 12345) % 5003
        counts[key] = counts.get(key, 0) + i
        values.append(key * 0.5)
    values.sort()
    return time.perf_counter() - start


def host_probe() -> float:
    """The host's current speed, as the wall time of a fixed pure-Python
    workload of about 4 ms: the median of five samples, so that a sample
    the scheduler preempted does not count.

    The workload is dict updates, list appends and a sort, the operations
    the schedulers and the annealer are made of.  A shared host runs in
    fast and slow stretches of tens of seconds, up to about 1.7x apart;
    probes next to each timed unit read the speed of the stretch it ran in.
    The garbage collector is off while it runs: a collection would scan the
    caller's heap and make the probe measure the workload's memory instead.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return statistics.median(_probe_sample() for _ in range(PROBE_SAMPLES))
    finally:
        if enabled:
            gc.enable()


def trimmed_mean(values: Sequence[float]) -> float:
    """The mean without the lowest and the highest value.

    Dropping the extremes keeps one stalled round from counting; averaging
    the rest is steadier than their median, because rounds differ in work
    (graphs and seeds) as well as in host speed.
    """
    if len(values) < 3:
        raise ValueError("a trimmed mean needs at least three values")
    return statistics.fmean(sorted(values)[1:-1])


@dataclass
class Rounds:
    """Timed rounds and the host probes around their units.

    ``rows[r]`` holds the ``(wall, result)`` of each unit in round r, and
    ``probes`` the probe walls before the first unit and after every unit.
    """

    rows: List[list]
    probes: List[float]

    def __len__(self) -> int:
        return len(self.rows)

    def results(self) -> List[list]:
        """Per round, the results of its units without their walls."""
        return [[result for _wall, result in row] for row in self.rows]

    def walls(self) -> List[float]:
        return [sum(wall for wall, _result in row) for row in self.rows]

    def slowdown(self, r: int) -> float:
        """How much slower than the reference the host ran round r: the
        mean of the probes before, between and after its units over
        ``REF_PROBE_S``."""
        units = len(self.rows[0])
        around = self.probes[r * units:(r + 1) * units + 1]
        return statistics.fmean(around) / REF_PROBE_S

    def median_wall(self) -> float:
        """The median round wall, scaled to the reference host speed."""
        return statistics.median(wall / self.slowdown(r) for r, wall in enumerate(self.walls()))

    def raw_rate(self, work: Sequence[float]) -> float:
        """The trimmed mean over rounds of ``work[r]`` per second of round
        r's walls."""
        return trimmed_mean([done / wall for done, wall in zip(work, self.walls())])

    def rate(self, work: Sequence[float]) -> float:
        """:meth:`raw_rate` with each round scaled to the reference host speed."""
        return trimmed_mean([
            done / wall * self.slowdown(r) for r, (done, wall) in enumerate(zip(work, self.walls()))
        ])

    def metrics(self, work: Sequence[float]) -> Dict[str, float]:
        """``tasks_per_s`` (scaled) and, for the traced run, the raw rate
        and the run's median probe."""
        return {
            "tasks_per_s": self.rate(work),
            "host.raw_tasks_per_s": self.raw_rate(work),
            "host.probe_ms": statistics.median(self.probes) * 1e3,
        }


def timed_rounds(seconds: float, units: Sequence[Callable[[int], object]],
                 probe: Callable[[], float] = host_probe) -> Rounds:
    """Call every unit once per round with the round's index, timing each
    call on its own, and probe the host before the first unit and after
    every unit.

    Rounds go on until *seconds* of timed calls have passed and at least
    ``MIN_ROUNDS`` rounds ran; another round starts only if it is expected
    to end nearer to *seconds* than stopping now would.
    """
    rounds = Rounds([], [probe()])
    elapsed = 0.0
    while len(rounds) < MIN_ROUNDS or elapsed + 0.5 * elapsed / len(rounds) < seconds:
        row = []
        for unit in units:
            start = time.perf_counter()
            result = unit(len(rounds))
            row.append((time.perf_counter() - start, result))
            rounds.probes.append(probe())
        elapsed += sum(wall for wall, _result in row)
        rounds.rows.append(row)
    return rounds
