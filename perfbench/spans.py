"""Read the span files a traced run leaves and reduce them per layer.

A span's self time is its duration minus the part of it that its child
spans cover.  Summed over every span of a layer, self times add up with
the program's unattributed time to the traced wall time, so no time is
counted twice.
"""

from __future__ import annotations

import collections
import json
import pathlib
from typing import Dict, Iterable, List, Tuple

ID, NAME, START, END, PARENT, TASK, NOTE = range(7)


def load(spans_dir: pathlib.Path) -> List[dict]:
    return [json.loads(path.read_text()) for path in sorted(spans_dir.glob("*.json"))]


def covered(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Totals:
    """Per span name: calls, inclusive seconds and self seconds."""

    def __init__(self, docs: List[dict]) -> None:
        self.calls: Dict[str, int] = collections.Counter()
        self.incl_s: Dict[str, float] = collections.defaultdict(float)
        self.self_s: Dict[str, float] = collections.defaultdict(float)
        self.spans: Dict[str, List[list]] = collections.defaultdict(list)
        self.cache: Dict[str, int] = collections.Counter()
        for doc in docs:
            self._add(doc)

    def _add(self, doc: dict) -> None:
        children = collections.defaultdict(list)
        for span in doc["spans"]:
            children[span[PARENT]].append((span[START], span[END]))
        for span in doc["spans"]:
            name = span[NAME]
            duration = span[END] - span[START]
            inner = covered(
                (max(s, span[START]), min(e, span[END]))
                for s, e in children.get(span[ID], ())
            )
            self.calls[name] += 1
            self.incl_s[name] += duration
            self.self_s[name] += duration - inner
            self.spans[name].append(span)
        for tier, count in doc["cache"].items():
            self.cache[tier] += count


def top_level_covered(doc: dict) -> float:
    """Seconds of one process's wall time inside any top-level span."""
    return covered((s[START], s[END]) for s in doc["spans"] if s[PARENT] == -1)
