"""The benchmark's own span recorder for the traced pass.

Spans are taken from outside, around calls into each layer's public
boundary; spans inside the program are a later issue (ROADMAP item 5).
They stay in memory and are written out once, when the workload ends.
"""

from __future__ import annotations

import json
from pathlib import Path


class SpanRecorder:
    def __init__(self) -> None:
        self._spans: list[tuple] = []

    def span(self, name: str, start: float, end: float, parent: str | None, op: int) -> None:
        """One timed call: ``op`` is shared by the same replay position at every boundary."""
        self._spans.append((name, start, end, parent, op))

    def __len__(self) -> int:
        return len(self._spans)

    def flush(self, path: Path) -> None:
        with open(path, "w") as handle:
            for name, start, end, parent, op in self._spans:
                handle.write(
                    json.dumps({"name": name, "start": start, "end": end, "parent": parent, "op": op})
                    + "\n"
                )
