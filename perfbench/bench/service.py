"""``service``: load on one connection to a 2-worker ``repro.service`` server.

The launcher starts ``python -m repro.service --workers 2`` as a child
process and stops it with SIGINT (the server then shuts its workers down).
Jobs are HLF / ETF / SA on sweep-size zoo families from a bounded pool, so
repeats hit the workers' warm caches.

The timed phase measures capacity: rounds of one closed burst of the pool's
jobs, weighted by policy, in a seed-shuffled order.  The traced run adds
open-loop phases: two threads, a sender that writes each request at its due
time on a seeded Poisson schedule and a receiver that reads the responses.
Latency is measured from the due time, so a stalled sender or server shows
as latency, and the sender's own lateness is reported as ``loadgen.late_ms``.
"""

from __future__ import annotations

import json
import os
import random
import select
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import LinearCommModel
from repro.experiments.sweep import (
    GRAPH_FAMILIES, MACHINE_BUILDERS, POLICY_BUILDERS, SCIENCE_FIELDS, run_scenario,
)
from repro.service.protocol import job_to_spec
from repro.sim.engine import simulate

from bench import checks, layers, stats
from bench.workload import Workload

FAMILIES = ("montage", "mapreduce", "epigenomics", "cybershake", "ligo", "gridcat")
GRAPHS_PER_FAMILY = 3
MACHINES = ("hypercube8", "ring9")
POLICIES = ("HLF", "ETF", "SA")
#: Weight of each policy among arrivals and in the timed burst.  SA jobs run
#: ~10x longer than HLF/ETF ones, so the latency distribution has two
#: modes; at one SA job in seven the median sits inside the HLF/ETF mode
#: and the tail inside the SA mode, instead of either landing on the gap
#: between them.
POLICY_WEIGHTS = {"HLF": 3, "ETF": 3, "SA": 1}
WORKERS = 2

#: The directory holding ``bench``, for the traced server's import path.
BENCH_ROOT = str(Path(__file__).resolve().parents[1])

#: Offered loads in jobs/s: two below the server's capacity and one above.
RATES = {"low": 15.0, "high": 30.0, "over": 200.0}
#: Extra rungs of the SLO ladder, above ``low`` and ``high``.
LADDER_EXTRA = (45.0, 60.0, 80.0, 100.0)
#: The ``over`` phase offers load for this share of the run's seconds; the
#: backlog it builds takes about as long again to drain.
OVER_SHARE = 0.5
LOW_S = 4.0
RUNG_S = 3.0
#: The traced server's and the ``--batch 1`` ablation's ``high`` phases run
#: for this share of the run's seconds.
SIDE_SHARE = 0.5
#: Latency limit on the tail percentile.
SLO_MS = 250.0
#: A run whose sender tail lateness exceeds this is invalid.
LATE_LIMIT_MS = 50.0
#: Seconds to wait for the last response of a phase.
DRAIN_S = 30.0
READY_S = 60.0
STOP_S = 15.0
STATS_EVERY_S = 0.25


class InvalidRun(RuntimeError):
    """The load generator could not keep its schedule."""


def job_pool(seed: int) -> List[dict]:
    """The bounded job pool: fixed scenarios, policy seeds from *seed*.

    Fixed scenarios keep the split of scenarios between the two workers
    (which affinity sharding decides by hashing each scenario) the same from
    seed to seed; the seed drives the policies' random choices, the burst
    order, the arrival times and which pool jobs arrive.
    """
    jobs = []
    for family in FAMILIES:
        for graph_seed in range(GRAPHS_PER_FAMILY):
            for machine in MACHINES:
                for policy in POLICIES:
                    jobs.append(dict(policy=policy, family=family, machine=machine,
                                     graph_seed=graph_seed, policy_seed=seed))
    return jobs


def burst_jobs(pool: Sequence[dict], seed: int) -> List[dict]:
    """Each pool job ``POLICY_WEIGHTS`` times, in a seed-shuffled order."""
    jobs = [job for job in pool for _ in range(POLICY_WEIGHTS[job["policy"]])]
    random.Random(f"{seed}:burst").shuffle(jobs)
    return jobs


def poisson_schedule(seed: int, phase: str, rate: float, duration: float,
                     weights: Sequence[float]) -> List[Tuple[float, int]]:
    """``(due offset in s, pool index)`` pairs: Poisson arrivals for *duration*,
    each drawing a pool job with the given weights."""
    rng = random.Random(f"{seed}:{phase}:{rate}")
    indices = range(len(weights))
    schedule, due = [], rng.expovariate(rate)
    while due < duration:
        schedule.append((due, rng.choices(indices, weights)[0]))
        due += rng.expovariate(rate)
    return schedule


# --------------------------------------------------------------------------- #
# Server launcher and connection
# --------------------------------------------------------------------------- #
class Server:
    """A ``python -m repro.service`` child process.

    With *traced*, the server starts through :mod:`bench.traced_service`,
    which installs the layer spans its workers inherit.
    """

    def __init__(self, src: str, batch: Optional[int] = None, traced: bool = False) -> None:
        module = "bench.traced_service" if traced else "repro.service"
        args = [sys.executable, "-m", module, "--workers", str(WORKERS), "--port", "0"]
        if batch is not None:
            args += ["--batch", str(batch)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, BENCH_ROOT]))
        # Its own process group, so stop() can reach the forked workers too.
        # SIGINT back to its default: a shell that starts the benchmark in the
        # background ignores SIGINT, the server would inherit that, and stop()
        # would wait out STOP_S on every server.
        self.proc = subprocess.Popen(
            args, stdout=subprocess.PIPE, env=env, text=True, start_new_session=True,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL),
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], READY_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line.startswith("listening on "):
            self.stop()
            raise RuntimeError(f"service did not start (got {line!r})")
        host, port = line.split()[-1].rsplit(":", 1)
        self.address = (host, int(port))

    def stop(self) -> None:
        """SIGINT (the server stops its workers), then clear the process group."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=STOP_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        deadline = time.monotonic() + STOP_S
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
            while time.monotonic() < deadline:  # until every member has exited
                os.killpg(self.proc.pid, 0)
                time.sleep(0.02)
        except ProcessLookupError:
            pass


@dataclass
class Phase:
    """What one open-loop phase measured, per job in schedule order."""

    latency_ms: List[float] = field(default_factory=list)
    late_ms: List[float] = field(default_factory=list)
    rows: List[Optional[dict]] = field(default_factory=list)
    errors: List[str] = field(default_factory=list)
    finished_s: float = 0.0
    stats: List[dict] = field(default_factory=list)

    def ok_rows(self) -> List[dict]:
        return [row for row in self.rows if row is not None]

    def tail_ms(self) -> float:
        return stats.tail(self.latency_ms)["value"]


class Connection:
    """One TCP connection speaking the service's newline-delimited JSON."""

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=DRAIN_S)
        self.reader = self.sock.makefile("rb")
        self.next_id = 0

    def close(self) -> None:
        self.reader.close()
        self.sock.close()

    def _send(self, message: dict) -> None:
        self.sock.sendall((json.dumps(message) + "\n").encode("utf-8"))

    def _recv(self) -> dict:
        line = self.reader.readline()
        if not line:
            raise ConnectionError("service closed the connection")
        return json.loads(line)

    def stats(self) -> dict:
        self._send({"id": -1, "op": "stats"})
        return self._recv()["stats"]

    def burst(self, jobs: Sequence[dict]) -> List[dict]:
        """Closed burst: send every job, then collect every response."""
        first = self.next_id
        for job in jobs:
            self._send({"id": self.next_id, "op": "simulate", "job": job})
            self.next_id += 1
        responses: Dict[int, dict] = {}
        while len(responses) < len(jobs):
            response = self._recv()
            responses[response["id"]] = response
        return [responses[first + k] for k in range(len(jobs))]

    def open_loop(self, pool: Sequence[dict], schedule, duration: float,
                  sample_stats: bool = False) -> Phase:
        """Send each job at its due time; time responses from the due time.

        With *sample_stats*, a ``stats`` request also goes out every
        ``STATS_EVERY_S`` on the same connection (ids are negative).
        """
        n = len(schedule)
        phase = Phase([0.0] * n, [0.0] * n, [None] * n)
        events = [(due, k) for k, (due, _index) in enumerate(schedule)]
        n_stats = int(duration / STATS_EVERY_S) if sample_stats else 0
        events += [(j * STATS_EVERY_S, -1 - j) for j in range(n_stats)]
        events.sort()
        first = self.next_id
        self.next_id += n
        origin = time.perf_counter() + 0.05
        send_error: List[BaseException] = []

        def sender() -> None:
            try:
                for due, k in events:
                    wait = origin + due - time.perf_counter()
                    if wait > 0:
                        time.sleep(wait)
                    if k < 0:
                        self._send({"id": k, "op": "stats"})
                        continue
                    sent = time.perf_counter()
                    self._send({"id": first + k, "op": "simulate", "job": pool[schedule[k][1]]})
                    phase.late_ms[k] = (sent - origin - due) * 1e3
            except BaseException as exc:  # re-raised by the receiving thread
                send_error.append(exc)

        thread = threading.Thread(target=sender, name="loadgen-sender")
        thread.start()
        try:
            for _ in range(n + n_stats):
                response = self._recv()
                now = time.perf_counter()
                if response["id"] < 0:
                    phase.stats.append(response["stats"])
                    continue
                k = response["id"] - first
                phase.latency_ms[k] = (now - origin - schedule[k][0]) * 1e3
                phase.finished_s = max(phase.finished_s, now - origin)
                if response.get("ok"):
                    phase.rows[k] = response["row"]
                else:
                    error = response.get("error") or {}
                    phase.errors.append(f"{error.get('type')}: {error.get('message')}")
        finally:
            thread.join(timeout=duration + DRAIN_S)
        if send_error:
            raise send_error[0]
        return phase


# --------------------------------------------------------------------------- #
# The workload
# --------------------------------------------------------------------------- #
class ServiceWorkload(Workload):
    name = "service"

    def __init__(self, seed: int, seconds: float, src: str) -> None:
        super().__init__(seed, seconds)
        self.src = src
        self.pool = job_pool(seed)
        self.burst = burst_jobs(self.pool, seed)
        self.server: Optional[Server] = None
        self.conn: Optional[Connection] = None
        self.checked: List[Tuple[dict, dict]] = []

    def _schedule(self, phase: str, duration: float, rate: Optional[float] = None):
        weights = [POLICY_WEIGHTS[job["policy"]] for job in self.pool]
        return poisson_schedule(self.seed, phase, rate or RATES[phase], duration, weights)

    def _start(self, batch: Optional[int] = None, traced: bool = False) -> Tuple[Server, Connection]:
        server = Server(self.src, batch, traced)
        try:
            conn = Connection(server.address)
            self._record_burst(self.pool, conn.burst(self.pool))
        except BaseException:
            server.stop()
            raise
        return server, conn

    def setup(self) -> None:
        """Start the server, connect and run every pool job once (warm caches)."""
        self.close()
        self.server, self.conn = self._start()

    def _run(self, name: str, duration: float, rate: Optional[float] = None,
             conn: Optional[Connection] = None, sample_stats: bool = False) -> Phase:
        schedule = self._schedule(name, duration, rate)
        phase = (conn or self.conn).open_loop(self.pool, schedule, duration, sample_stats)
        self.attempted += len(schedule)
        if phase.errors:
            self.fail(f"{len(phase.errors)} error responses, e.g. {phase.errors[0]}",
                      len(phase.errors))
        self.checked += [
            (self.pool[index], row) for (_due, index), row in zip(schedule, phase.rows)
            if row is not None
        ]
        return phase

    def _record_burst(self, jobs: Sequence[dict], responses: List[dict]) -> int:
        """Check a burst's responses in; the tasks of the jobs answered."""
        self.attempted += len(responses)
        tasks = 0
        for job, response in zip(jobs, responses):
            if response.get("ok"):
                self.checked.append((job, response["row"]))
                tasks += response["row"]["n_tasks"]
            else:
                self.fail(f"error response: {response.get('error')}")
        return tasks

    # ------------------------------------------------------------------ #
    def measure(self) -> Dict[str, float]:
        """Capacity: tasks per second over closed bursts (``stats.Rounds.rate``)."""
        rounds = stats.timed_rounds(self.seconds, [lambda _r: self.conn.burst(self.burst)])
        tasks = [self._record_burst(self.burst, responses) for (responses,) in rounds.results()]
        return {
            **rounds.metrics(tasks),
            "makespan_vs_etf": None,  # from the direct reference rows, in verify()
        }

    # ------------------------------------------------------------------ #
    def traced(self) -> Dict[str, float]:
        """Open-loop latency at ``high`` (server counters sampled), ``low``,
        ``over`` and the SLO ladder; a ``high`` phase on a traced server for
        the layer metrics; the coalescing ablation."""
        before = self.conn.stats()
        high = self._run("high", self.seconds, sample_stats=True)
        after = self.conn.stats()
        late = stats.tail(high.late_ms)
        if late["value"] > LATE_LIMIT_MS:
            raise InvalidRun(
                f"load generator ran {late['value']:.1f} ms late at p{late['pct']} "
                f"(limit {LATE_LIMIT_MS} ms)"
            )
        out: Dict[str, float] = {}
        out["loadgen.late_ms"] = late["value"]
        exec_ms = [row["runtime_s"] * 1e3 for row in high.ok_rows()]
        wait_ms = [
            lat - row["runtime_s"] * 1e3
            for lat, row in zip(high.latency_ms, high.rows) if row is not None
        ]
        out["service.exec_ms.p50"] = statistics.median(exec_ms)
        out["service.exec_ms.tail"] = stats.tail(exec_ms)["value"]
        out["service.wait_ms.p50"] = statistics.median(wait_ms)
        out["service.wait_ms.tail"] = stats.tail(wait_ms)["value"]
        co0, co1 = before["coalescing"], after["coalescing"]
        batches = co1["batches"] - co0["batches"]
        jobs = (co1["coalesced_jobs"] + co1["solo_jobs"]) - (co0["coalesced_jobs"] + co0["solo_jobs"])
        out["service.batch_mean"] = jobs / batches if batches else 0.0
        af0, af1 = before["affinity"], after["affinity"]
        hits = af1["hits"] - af0["hits"]
        out["service.affinity_hit_rate"] = hits / ((af1["misses"] - af0["misses"]) + hits)
        cc0, cc1 = before["compile_cache"], after["compile_cache"]
        out["service.compile_hit_rate"] = layers.hit_ratio(
            cc1["hits"] - cc0["hits"], cc1["misses"] - cc0["misses"]
        )
        out["service.queued_max"] = max(s["workers"]["queued"] for s in high.stats)
        # The workers are supervised PoolWorkers: their busy share, retries
        # and deaths over the phase.
        out["supervisor.busy_frac"] = sum(exec_ms) / 1e3 / (high.finished_s * WORKERS)
        out["supervisor.retries"] = after["jobs"]["retried"] - before["jobs"]["retried"]
        out["supervisor.worker_deaths"] = after["workers"]["deaths"] - before["workers"]["deaths"]

        low = self._run("low", LOW_S)
        out["service.p50_ms.low"] = statistics.median(low.latency_ms)
        out["service.tail_ms.low"] = low.tail_ms()
        over = self._run("over", self.seconds * OVER_SHARE)
        good = sum(1 for lat, row in zip(over.latency_ms, over.rows)
                   if row is not None and lat <= SLO_MS)
        out["service.goodput_jobs_per_s.over"] = good / over.finished_s
        out["service.slo_rate_jobs_per_s"] = self._slo_rate(low, high)

        traced = self._side_phase(traced=True)
        rows = traced.ok_rows()
        workers, item_s = layers.collect_items(rows)
        out.update(layers.from_tracer(workers, item_s))
        out.update(layers.anneal_quality(workers))
        out["sim.compile.hit_ratio"] = layers.hit_ratio(
            sum(row["compile_cache_hits"] for row in rows),
            sum(row["compile_cache_misses"] for row in rows),
        )
        out["sim.epochs"] = sum(row["n_packets"] or 0 for row in rows)
        out["sim.fallback_epochs"] = sum(row["n_fallback_epochs"] or 0 for row in rows)
        out["trace.overhead_frac"] = (
            statistics.median(traced.latency_ms) / statistics.median(high.latency_ms) - 1.0
        )
        solo = self._side_phase(batch=1)
        out["service.coalesce_vs_solo"] = (
            statistics.median(solo.latency_ms) / statistics.median(high.latency_ms)
        )
        out.update(layers.latency(high.latency_ms))
        return out

    def _side_phase(self, batch: Optional[int] = None, traced: bool = False) -> Phase:
        """A shorter ``high`` phase on a second server, stopped afterwards."""
        server, conn = self._start(batch, traced)
        try:
            return self._run("high", self.seconds * SIDE_SHARE, conn=conn)
        finally:
            conn.close()
            server.stop()

    @staticmethod
    def _meets_slo(phase: Phase) -> bool:
        """Tail within the limit, every job answered, and no growing backlog:
        the last quarter's median latency is not above twice the first's."""
        if phase.errors or any(row is None for row in phase.rows):
            return False
        quarter = max(1, len(phase.latency_ms) // 4)
        early = statistics.median(phase.latency_ms[:quarter])
        late = statistics.median(phase.latency_ms[-quarter:])
        return phase.tail_ms() <= SLO_MS and late <= 2.0 * early

    def _slo_rate(self, low: Phase, high: Phase) -> float:
        """The highest rate on the ladder (low, high, extra rungs) meeting the SLO."""
        best = 0.0
        ladder = [(RATES["low"], low), (RATES["high"], high)]
        ladder += [(rate, None) for rate in LADDER_EXTRA]
        for rate, phase in ladder:
            if phase is None:
                phase = self._run(f"rung-{rate:g}", RUNG_S, rate=rate)
            if not self._meets_slo(phase):
                break
            best = rate
        return best

    # ------------------------------------------------------------------ #
    def references(self) -> Dict[str, dict]:
        """Direct ``run_scenario`` rows for every pool job, keyed by job."""
        return {_job_key(job): run_scenario(job_to_spec(job)) for job in self.pool}

    def outputs(self, refs: Dict[str, dict]) -> Dict[str, object]:
        """Pinned outputs: per pool scenario, each policy's direct makespan."""
        groups: Dict[str, list] = {}
        for job in self.pool:
            key = f"{job['family']}|{job['graph_seed']}|{job['machine']}"
            groups.setdefault(key, []).append([job["policy"], refs[_job_key(job)]["makespan"]])
        return groups

    def pin_outputs(self) -> Dict[str, object]:
        return self.outputs(self.references())

    def makespan_vs_etf(self, refs: Dict[str, dict]) -> float:
        """Over the HLF and SA jobs of the timed burst."""
        ratios = []
        for job in self.burst:
            if job["policy"] != "ETF":
                etf = refs[_job_key(dict(job, policy="ETF"))]["makespan"]
                ratios.append(refs[_job_key(job)]["makespan"] / etf)
        return stats.geomean(ratios)

    def verify(self, pins: checks.Pins) -> float:
        """Every answered row equals its direct row on the science fields;
        returns ``makespan_vs_etf`` from those direct rows."""
        refs = self.references()
        bad = [
            job for job, row in self.checked
            if {k: row.get(k) for k in SCIENCE_FIELDS}
            != {k: refs[_job_key(job)].get(k) for k in SCIENCE_FIELDS}
        ]
        if bad:
            self.fail(f"{len(bad)} service rows differ from direct rows, e.g. {bad[0]}", len(bad))
        mismatched = pins.mismatches(self.name, self.seed, self.outputs(refs))
        self.pinned = mismatched is not None
        for group in mismatched or []:
            self.fail(f"{group} differs from its pinned output")
        for policy in POLICIES:
            job = next(job for job in self.pool if job["policy"] == policy)
            self.attempted += 1
            graph = GRAPH_FAMILIES[job["family"]](job["graph_seed"])
            result = simulate(
                graph, MACHINE_BUILDERS[job["machine"]](),
                POLICY_BUILDERS[policy](job["policy_seed"]),
                comm_model=LinearCommModel(), record_trace=True, fast=True,
            )
            problems = checks.rerun_problems(graph, result, refs[_job_key(job)]["makespan"])
            if problems:
                self.fail(f"{policy}: {len(problems)} problems, e.g. {problems[0]}")
        return self.makespan_vs_etf(refs)

    def close(self) -> None:
        if self.conn is not None:
            self.conn.close()
            self.conn = None
        if self.server is not None:
            self.server.stop()
            self.server = None


def _job_key(job: dict) -> str:
    return json.dumps(job, sort_keys=True)
