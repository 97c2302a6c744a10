"""In-memory span tracer for the benchmark's traced run.

Spans are recorded from outside the library: the tracer replaces a
function reference (a module attribute such as ``boxloss.fitting.iou``)
with a wrapper that times each call. Calls are aggregated per
(name, parent name) rather than stored one by one, because a single
fit_compare iteration makes about 75 000 ``iou`` calls.

A span's self time is its duration minus the time covered by its child
spans, so the self times of every span under a root add up to the root's
duration.
"""

from __future__ import annotations

import time
from typing import Callable


class Tracer:
    def __init__(self) -> None:
        # Each frame is [name, seconds covered by child spans].
        self._stack: list[list] = [["", 0.0]]
        # (name, parent name) -> [calls, busy seconds, self seconds]
        self._spans: dict[tuple[str, str], list] = {}

    def wrap(
        self,
        name: str,
        fn: Callable,
        observe: Callable[[tuple, dict, object], None] | None = None,
    ) -> Callable:
        """Return fn timed as span `name`; observe(args, kwargs, result)
        runs after the span closes, for counters that read the result."""
        stack = self._stack
        spans = self._spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                parent[1] += elapsed
                record = spans.get((name, parent[0]))
                if record is None:
                    record = spans[(name, parent[0])] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - frame[1]
            if observe is not None:
                observe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, name: str, module, attr: str, observe=None) -> None:
        """Replace module.attr with its traced version."""
        setattr(module, attr, self.wrap(name, getattr(module, attr), observe))

    def calls(self, name: str, parent: str | None = None) -> int:
        """Calls of span `name`, optionally only those directly under `parent`."""
        return sum(
            record[0]
            for (span, under), record in self._spans.items()
            if span == name and (parent is None or under == parent)
        )

    def totals(self, name: str) -> tuple[int, float, float]:
        """(calls, busy seconds, self seconds) of span `name` over all parents."""
        calls, busy, own = 0, 0.0, 0.0
        for (span, _parent), record in self._spans.items():
            if span == name:
                calls += record[0]
                busy += record[1]
                own += record[2]
        return calls, busy, own
