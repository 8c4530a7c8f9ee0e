"""Correctness checks the benchmark applies to the program's outputs.

* :func:`validate_schedule` re-derives schedule validity from a recorded
  trace without the program's own checkers: every task placed exactly once,
  no two tasks overlapping on a processor, no task starting before a
  predecessor finished or before its messages arrived, and the makespan equal
  to the last finish time.
* :class:`Pins` holds digests of outputs recorded for given seeds
  (``pins.json``, regenerated by ``pin.py``); a run whose output differs from
  the pinned digest of its seed counts that output as wrong.
"""

from __future__ import annotations

import hashlib
import json
import resource
from pathlib import Path
from typing import Dict, List, Optional

EPS = 1e-9

PINS_PATH = Path(__file__).resolve().parents[1] / "pins.json"


def validate_schedule(graph, result) -> List[str]:
    """Problems found in *result*'s trace of *graph* (empty when valid)."""
    trace = result.trace
    if trace is None:
        return ["no trace recorded"]
    problems: List[str] = []
    records = {}
    for rec in trace.task_records:
        if rec.task in records:
            problems.append(f"task {rec.task!r} placed twice")
        records[rec.task] = rec
    missing = set(graph.tasks) - set(records)
    if missing:
        problems.append(f"{len(missing)} tasks never ran")
    by_proc: Dict[int, list] = {}
    for rec in records.values():
        if rec.finish_time < rec.start_time - EPS:
            problems.append(f"task {rec.task!r} finishes before it starts")
        by_proc.setdefault(rec.processor, []).append(rec)
    for proc, recs in by_proc.items():
        recs.sort(key=lambda r: (r.start_time, r.finish_time))
        for a, b in zip(recs, recs[1:]):
            if b.start_time < a.finish_time - EPS:
                problems.append(f"{a.task!r} and {b.task!r} overlap on {proc}")
    for u, v, _w in graph.edges():
        if u in records and v in records:
            if records[v].start_time < records[u].finish_time - EPS:
                problems.append(f"{v!r} starts before predecessor {u!r} ends")
    for msg in trace.message_records:
        dst = records.get(msg.dst_task)
        if dst is not None and dst.start_time < msg.arrival_time - EPS:
            problems.append(f"{msg.dst_task!r} starts before its message arrives")
    if records:
        last = max(rec.finish_time for rec in records.values())
        if abs(last - result.makespan) > EPS * max(1.0, last):
            problems.append(f"makespan {result.makespan} != last finish {last}")
    return problems


def rerun_problems(graph, result, makespan: float) -> List[str]:
    """Problems of a traced re-run that must reproduce *makespan*."""
    problems = validate_schedule(graph, result)
    if result.makespan != makespan:
        problems.insert(0, f"traced re-run makespan {result.makespan} != {makespan}")
    return problems


def digest(payload) -> str:
    """A short content digest of a JSON-serialisable output."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def fingerprint_digest(result) -> str:
    return digest(result.fingerprint())


class Pins:
    """Pinned output digests: ``{workload: {seed: {group: digest}}}``."""

    def __init__(self, path: Path = PINS_PATH) -> None:
        self.path = path
        self.data = json.loads(path.read_text()) if path.exists() else {}

    def mismatches(self, workload: str, seed: int, outputs: Dict[str, object]) -> Optional[List[str]]:
        """Groups whose digest differs from the pin; ``None`` if the seed is unpinned."""
        pinned = self.data.get(workload, {}).get(str(seed))
        if pinned is None:
            return None
        ours = {group: digest(payload) for group, payload in outputs.items()}
        return sorted(
            group for group in set(pinned) | set(ours)
            if pinned.get(group) != ours.get(group)
        )


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest reaped child.

    ``RUSAGE_CHILDREN`` reports the largest descendant that has been waited
    for, so every worker and server must be stopped before this is read.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0
