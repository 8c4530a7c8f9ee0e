"""Record the pinned outputs the benchmark checks its runs against.

    python3 perfbench/pin.py --seeds 0-15

For each workload and seed it computes the deterministic outputs a run
produces (makespans and placement digests; nothing is timed) and stores
their digests in ``perfbench/pins.json``, merging with the seeds already
there.  Re-pin only after a change that is meant to alter schedules.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from bench import checks  # noqa: E402
from run import WORKLOADS, make_workload  # noqa: E402


def seed_range(text: str):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=seed_range, required=True, help="e.g. 0-15")
    args = parser.parse_args(argv)
    pins = checks.Pins()
    for name in WORKLOADS:
        for seed in args.seeds:
            outputs = make_workload(name, seed, seconds=0).pin_outputs()
            pins.data.setdefault(name, {})[str(seed)] = {
                group: checks.digest(payload) for group, payload in sorted(outputs.items())
            }
            print(f"pinned {name} seed {seed}: {len(outputs)} groups", flush=True)
    pins.path.write_text(json.dumps(pins.data, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
