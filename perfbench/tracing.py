"""Spans around public richardson functions, recorded from outside the library.

A span is ``(name, start, end, parent)``: ``parent`` is the index of the
enclosing span, or -1.  Spans stay in memory until the run ends.  Each traced
function is replaced in every ``richardson`` module namespace that binds it,
so callers inside the library reach the wrapper through the same lookup they
use for the original; leaving :meth:`Tracer.installed` restores them all.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function) pairs, named as the library's callers see them
TRACED = (
    ("oracle", "generic_nilradical_element"),
    ("oracle", "jordan_partition"),
    ("oracle", "certified_centralizer_dim"),
    ("oracle", "levi_dim"),
    ("oracle", "oracle_partition_detail"),
    ("oracle", "oracle_richardson_partition"),
    ("partitions", "richardson_partition"),
    ("classify", "classify"),
    ("classify", "is_birational_by_partition"),
    ("core", "blocks_from_coloring"),
    ("core", "coloring_from_blocks"),
    ("exceptional", "exceptional_lookup"),
    ("exceptional", "root_system"),
    ("cli", "main"),
    ("cli", "report_to_record"),
    ("verify", "run_verification"),
)


class Tracer:
    """Records one span per call of each traced function."""

    def __init__(self, targets=TRACED):
        self.names = tuple(f"{mod}.{fn}" for mod, fn in targets)
        self._targets = targets
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        # exact counts derived from outputs: ranks computed by jordan_partition
        # (its largest part) and samples certified by certified_centralizer_dim
        self.rank_ops = 0
        self.certified = 0
        self._stack: list[int] = []

    def _observe_jordan(self, partition) -> None:
        self.rank_ops += max(partition, default=0)

    def _observe_certificate(self, result) -> None:
        self.certified += bool(result[1])

    def _wrap(self, name: str, fn, observe):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            stack.append(index)
            spans.append(None)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                # a tuple of atoms, which the garbage collector stops tracking
                spans[index] = (name, start, perf_counter(), parent)
                stack.pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every traced function for its wrapper while the block runs.

        A name the library no longer defines is listed in ``absent`` and
        skipped.
        """
        observers = {
            "oracle.jordan_partition": self._observe_jordan,
            "oracle.certified_centralizer_dim": self._observe_certificate,
        }
        modules = [m for n, m in sys.modules.items() if n == "richardson" or n.startswith("richardson.")]
        patches = []
        try:
            for (mod_name, fn_name), name in zip(self._targets, self.names):
                original = getattr(importlib.import_module(f"richardson.{mod_name}"), fn_name, None)
                if original is None:
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, original, observers.get(name))
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, attr, original))
                            setattr(module, attr, wrapper)
            yield self
        finally:
            for module, attr, original in reversed(patches):
                setattr(module, attr, original)

    def layer_stats(self) -> dict[str, tuple[int, float, float]]:
        """Per traced name: (calls, busy seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children, which are the traced calls it made.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        stats = {name: [0, 0.0, 0.0] for name in self.names}
        for (name, start, end, _), inner in zip(self.spans, child):
            entry = stats[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - inner
        return {name: tuple(v) for name, v in stats.items()}
