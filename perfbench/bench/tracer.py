"""Benchmark-side layer tracing: spans around calls into the program's layers.

The program itself carries no instrumentation.  :class:`Tracer` wraps public
functions and methods of the ``repro`` layers from the outside, for the
length of one traced phase, and restores the originals afterwards.  Each
wrapped call is a span on a per-process stack, so a layer's **self time** is
its span's duration minus the time of the wrapped spans it called.

Wrapping a function rebinds every ``repro`` module attribute that refers to
it, since modules import each other's functions by name.  Methods are
wrapped only on classes that define them, because the engines dispatch on
whether a policy class overrides ``fast_assign`` / ``batch_assign``.

Worker processes forked while a tracer is installed inherit it; their
counters travel back as deltas (:meth:`Tracer.snapshot`, :func:`delta`).
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple


def _module_refs(target) -> List[Tuple[object, str]]:
    """Every ``(module, name)`` in the loaded ``repro`` modules bound to *target*."""
    refs = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
            continue
        for name, value in list(vars(module).items()):
            if value is target:
                refs.append((module, name))
    return refs


class Tracer:
    """Per-layer self time, inclusive time and call counts for wrapped calls."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self._stack: List[List[float]] = []
        self._restore: List[Tuple[object, str, object, bool]] = []

    # ------------------------------------------------------------------ #
    def wrap(self, layer: str, fn: Callable, on_result: Optional[Callable] = None):
        """*fn* as a span of *layer*; *on_result* sees each return value."""
        stack = self._stack
        self_s, total_s, calls = self.self_s, self.total_s, self.calls
        clock = self.clock

        def traced(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                total_s[layer] += elapsed
                calls[layer] += 1
                if stack:
                    stack[-1][0] += elapsed
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, layer: str, fn: Callable, on_result=None) -> None:
        """Rebind every ``repro`` module reference to *fn* to a traced wrapper."""
        traced = self.wrap(layer, fn, on_result)
        refs = _module_refs(fn)
        if not refs:
            raise LookupError(f"no loaded repro module references {fn!r}")
        for module, name in refs:
            self._restore.append((module, name, fn, False))
            setattr(module, name, traced)

    def patch_method(self, layer: str, cls: type, name: str, on_result=None) -> None:
        """Trace ``cls.name``; the class must define it itself."""
        if name not in vars(cls):
            raise LookupError(f"{cls.__name__} does not define {name}")
        original = vars(cls)[name]
        self._restore.append((cls, name, original, False))
        setattr(cls, name, self.wrap(layer, original, on_result))

    def replace(self, owner: object, name: str, value: object) -> None:
        """Set ``owner.name`` to *value* until :meth:`uninstall`."""
        self._restore.append((owner, name, getattr(owner, name), False))
        setattr(owner, name, value)

    def patch_mapping(self, layer: str, mapping: dict) -> None:
        """Trace every callable value of *mapping* (e.g. a builder registry)."""
        for key, fn in list(mapping.items()):
            self._restore.append((mapping, key, fn, True))
            mapping[key] = self.wrap(layer, fn)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._restore:
            owner, name, original, is_item = self._restore.pop()
            if is_item:
                owner[name] = original
            else:
                setattr(owner, name, original)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
        }

    def add(self, counters: Dict[str, Dict[str, float]]) -> None:
        """Fold counters from another process into this tracer."""
        for field in ("self_s", "total_s", "calls"):
            target = getattr(self, field)
            for layer, value in counters.get(field, {}).items():
                target[layer] += value


def delta(after: Dict[str, Dict[str, float]], before: Dict[str, Dict[str, float]]):
    """Counters accumulated between two snapshots."""
    out: Dict[str, Dict[str, float]] = {}
    for field, values in after.items():
        base = before.get(field, {})
        out[field] = {
            layer: value - base.get(layer, 0)
            for layer, value in values.items()
            if value != base.get(layer, 0)
        }
    return out


class OpTimer:
    """Durations of each call to one method: a per-operation latency sample.

    :class:`Tracer` keeps only per-layer sums; this keeps every call's time,
    for the median and tail of one operation (an SA packet decision).
    """

    def __init__(self, cls: type, name: str) -> None:
        self.durations: List[float] = []
        self._cls, self._name = cls, name
        self._original = vars(cls)[name]
        original, durations, clock = self._original, self.durations, time.perf_counter

        def timed(*args, **kwargs):
            start = clock()
            try:
                return original(*args, **kwargs)
            finally:
                durations.append(clock() - start)

        setattr(cls, name, timed)

    def uninstall(self) -> None:
        setattr(self._cls, self._name, self._original)
