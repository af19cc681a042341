"""In-memory spans around the benchmark's calls into adkit.

A span is (name, parent, start, end) with times from `time.perf_counter`,
which on Linux reads CLOCK_MONOTONIC and so is comparable between the
benchmark process and the CLI processes it starts.  Spans stay in memory
while the benchmark runs and are written out once at the end.
"""

from __future__ import annotations

import json
from time import perf_counter


class Direct:
    """The untraced path: call the layer function and record nothing."""

    traced = False

    @staticmethod
    def call(name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Spans nest under whichever span is open; each operation opens a root."""

    traced = True

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self._open: list[int] = []

    def open(self, name: str, start: float | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, parent, perf_counter() if start is None else start, None])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, index: int, end: float | None = None) -> None:
        self.spans[index][3] = perf_counter() if end is None else end
        if self._open.pop() != index:
            raise RuntimeError("spans closed out of order")

    def current(self) -> int:
        """The innermost open span."""
        return self._open[-1]

    def call(self, name, fn, *args, **kwargs):
        index = self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close(index)

    def add(self, name: str, start: float, end: float, parent: int) -> int:
        """A closed span measured elsewhere (in a CLI process)."""
        self.spans.append([name, parent, start, end])
        return len(self.spans) - 1

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its children cover."""
        own = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def totals(self, roots: set[int]) -> dict[str, float]:
        """Self time per span name, over the trees under `roots`."""
        own = self.self_times()
        under: list[bool] = []
        out: dict[str, float] = {}
        for i, (name, parent, _, _) in enumerate(self.spans):
            inside = i in roots or (parent >= 0 and under[parent])
            under.append(inside)
            if inside:
                out[name] = out.get(name, 0.0) + own[i]
        return out

    def write(self, path: str) -> None:
        own = self.self_times()
        with open(path, "w") as handle:
            for i, (name, parent, start, end) in enumerate(self.spans):
                handle.write(json.dumps({"id": i, "name": name, "parent": parent,
                                         "start": start, "end": end,
                                         "self": own[i]}) + "\n")
