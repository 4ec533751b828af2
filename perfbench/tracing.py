"""Spans around the benchmark's calls into magiclab.

A span has a name, a start, an end, the id of the span that was open when it
began, and the id of the run it belongs to.  Spans are kept in memory and
handed to the parent process when the run ends; nothing is written while the
workload is timed.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Times every public call the workload makes; with enabled=True it
    also keeps a span for each call and for each enclosing phase."""

    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.call_seconds: list[float] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named name; its latency is
        recorded whether or not tracing is enabled."""
        with self.span(name):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.call_seconds.append(time.perf_counter() - start)

    def total(self, name: str) -> float:
        """Summed duration of every span with this name."""
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def self_time(self, span_id: int) -> float:
        """Duration of a span minus the time covered by its children.

        Spans come from one thread and nest, so children never overlap.
        """
        s = self.spans[span_id]
        inner = sum(
            c["end"] - c["start"] for c in self.spans if c["parent"] == span_id
        )
        return (s["end"] - s["start"]) - inner
