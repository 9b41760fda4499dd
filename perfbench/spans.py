"""In-memory spans around the calls the benchmark makes into each layer.

Spans are recorded from outside the program (the benchmark's own call
sites), kept in memory, and written once when the run ends. A layer's
self time is its span minus the part its child spans cover, so nested
probes never double count.
"""

from __future__ import annotations

import json
from contextlib import contextmanager

from perfbench.measure import now


class Tracer:
    """Span recorder for one workload run."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float, parent=None) -> int:
        """Record a finished span (used for per-request client spans)."""
        self.spans.append(
            {
                "id": len(self.spans),
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "workload": self.workload,
            }
        )
        return len(self.spans) - 1

    @contextmanager
    def span(self, name: str):
        """Time the body as a child of the innermost open span."""
        parent = self._stack[-1] if self._stack else None
        index = self.add(name, now(), float("nan"), parent)
        self._stack.append(index)
        try:
            yield self.spans[index]
        finally:
            self._stack.pop()
            self.spans[index]["end"] = now()

    def duration(self, name: str) -> list[float]:
        """Durations of every span called ``name``, in record order."""
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def self_times(self) -> dict[str, float]:
        """Per-name self time: duration minus the union of child cover."""
        children: dict[int, list[tuple[float, float]]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append((s["start"], s["end"]))
        out: dict[str, float] = {}
        for s in self.spans:
            covered, edge = 0.0, s["start"]
            for start, end in sorted(children.get(s["id"], ())):
                start, end = max(start, edge), min(end, s["end"])
                if end > start:
                    covered += end - start
                    edge = end
            own = (s["end"] - s["start"]) - covered
            out[s["name"]] = out.get(s["name"], 0.0) + own
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "workload": self.workload,
                    "self_time_s": self.self_times(),
                    "spans": self.spans,
                },
                fh,
            )
