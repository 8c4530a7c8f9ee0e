"""``python -m repro.service`` with every worker-side layer traced.

    PYTHONPATH=src:perfbench python3 -m bench.traced_service --workers 2 --port 0

Takes the arguments of ``python -m repro.service``.  The spans are installed
before the server starts, so the workers it forks inherit them, and each
work item's counters reach the client on the item's first row
(:func:`bench.layers.install_items`, :func:`bench.layers.collect_items`).
"""

from __future__ import annotations

import sys

from repro.service.__main__ import main

from bench import layers
from bench.tracer import Tracer

if __name__ == "__main__":
    tracer = Tracer()
    layers.install_engines(tracer)
    layers.install_sa(tracer)
    layers.install_items(tracer)
    sys.exit(main())
