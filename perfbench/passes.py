"""Repeat a whole-process workload operation and report it.

``reproduce`` and ``dse-sweep`` both time one program process per
operation.  Untraced, every operation runs plain.  Traced, plain and
traced operations alternate, so ``trace.overhead`` compares the two
under the same machine conditions, and the layer metrics come from the
traced half.

A pass's time is reported at its tenth percentile (``OP_PERCENTILE``):
see ``common.py`` for why.  One caller runs the passes back to back, so
``op.per_s`` is the rate at that pass time.
"""

from __future__ import annotations

import statistics
from time import perf_counter
from typing import Callable, List, Optional, Tuple

import layers
import spans
from common import OP_PERCENTILE, fresh_dir, metric, percentile

#: ``one(spans_dir) -> (ok, wall seconds, peak RSS MB)``
Operation = Callable[[Optional[object]], Tuple[bool, float, float]]


def run(one: Operation, seconds: float, trace: bool, setup: Callable[[], float]):
    walls: List[float] = []
    traced_walls: List[float] = []
    rss: List[float] = []
    docs: List[dict] = []
    unattributed: List[float] = []
    attempted = failed = 0
    setup_s = None if trace else setup()
    started = perf_counter()
    while perf_counter() - started < seconds or not walls or (trace and not traced_walls):
        traced_turn = trace and len(traced_walls) < len(walls)
        spans_dir = fresh_dir("spans") if traced_turn else None
        ok, wall, peak = one(spans_dir)
        attempted += 1
        failed += not ok
        rss.append(peak)
        if not ok:  # a failed pass misses every time limit
            wall = float("inf")
        if not traced_turn:
            walls.append(wall)
            continue
        traced_walls.append(wall)
        if not ok:
            continue
        process_docs = spans.load(spans_dir)
        docs.extend(process_docs)
        main = next(d for d in process_docs if d["role"] == "main")
        unattributed.append((wall - spans.top_level_covered(main)) / wall)
    if not trace:
        op_s = percentile(walls, OP_PERCENTILE)
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mb": metric(max(rss), "MB"),
            "op.p10_ms": metric(op_s * 1e3, "ms"),
            "op.per_s": metric(1.0 / op_s, "1/s"),
        }
        return failed == 0, attempted, failed, metrics
    values = layers.layer_values(
        spans.Totals(docs), len(traced_walls),
        [d["import_s"] for d in docs if d["role"] == "main"],
    )
    values["trace.overhead"] = (
        percentile(traced_walls, OP_PERCENTILE) / percentile(walls, OP_PERCENTILE)
    )
    values["trace.unattributed_share"] = statistics.fmean(unattributed) if unattributed else 0.0
    return failed == 0, attempted, failed, layers.as_metrics(values)
