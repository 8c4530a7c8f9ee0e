"""The repository benchmark: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload sa-1k --seed 0 --seconds 10 --trace 0

Builds its inputs from ``--seed``, sets up (several times; the median is
``setup_s``), measures for at least ``--seconds``, checks every output, and
prints one JSON object as the last line of standard output.  Times and
rates are scaled to a reference host speed by probes taken next to each
set-up and timed round (``bench/stats.py``).  ``--trace 0``
reports the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` also
runs a traced repeat plus the ablations and reports the per-layer metrics.
A human-readable summary goes to standard error.  See ``README.md``.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sa-1k", "sa-multistart", "service")

#: Set-up repetitions per run; ``setup_s`` uses their median.
SETUP_REPEATS = 3


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def make_workload(name: str, seed: int, seconds: float):
    if name in ("sa-1k", "sa-multistart"):
        from bench.sa import SAWorkload

        return SAWorkload(name, seed, seconds)
    from bench.service import ServiceWorkload

    return ServiceWorkload(seed, seconds, str(SRC))


def declared_metrics(trace: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def run(args) -> dict:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no program sources at {SRC}; run from a full checkout")
    sys.path[:0] = [str(SRC), str(HERE)]
    from bench import checks, stats

    workload = make_workload(args.workload, args.seed, args.seconds)
    import_s = time.perf_counter() - PROCESS_START
    try:
        # Set-up runs like timed rounds, with a host probe on either side of
        # each, so that it too is scaled to the reference host speed.
        setups = stats.Rounds([], [stats.host_probe()])
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            workload.setup()
            setups.rows.append([(time.perf_counter() - start, None)])
            setups.probes.append(stats.host_probe())
        measured = workload.measure()
        layer_values = workload.traced() if args.trace else {}
        layer_values.update((k, v) for k, v in measured.items() if k.startswith("host."))
        makespan_vs_etf = workload.verify(checks.Pins())
        if makespan_vs_etf is not None:
            measured["makespan_vs_etf"] = makespan_vs_etf
    finally:
        workload.close()
    measured["setup_s"] = import_s * stats.REF_PROBE_S / setups.probes[0] + setups.median_wall()
    layer_values["host.raw_setup_s"] = import_s + statistics.median(setups.walls())
    measured["peak_rss_mb"] = checks.peak_rss_mb()
    failed = min(workload.failed, workload.attempted)
    layer_values["error_frac"] = failed / workload.attempted

    values = layer_values if args.trace else measured
    metrics = {}
    for metric in declared_metrics(bool(args.trace)):
        # A layer this workload never calls reports 0; every end-to-end
        # metric must have been measured.
        value = values.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            raise RuntimeError(f"metric {metric['name']} was not measured")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}

    summary = [f"{args.workload} seed={args.seed} setups={[round(s, 3) for s in setups.walls()]}"
               f" probes_ms={[round(p * 1e3, 1) for p in setups.probes]}"
               f" import={import_s:.3f}s pinned={workload.pinned}"]
    summary += [f"  {name} = {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    summary += [f"  PROBLEM: {problem}" for problem in workload.problems]
    print("\n".join(summary), file=sys.stderr)
    return {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # SIGTERM unwinds like an exception, so the workload still stops the
    # server or workers it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        result = run(args)
    except Exception:
        traceback.print_exc()
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 2


if __name__ == "__main__":
    sys.exit(main())
