"""The per-layer metrics every traced run reports, and how spans map to them.

Layer times are self times (see :mod:`spans`), except the
``harness.exp.<id>_s`` experiment times, which are inclusive.  Times and
counts are per workload operation: per pass on ``reproduce``, per sweep
on ``dse-sweep`` and per request on ``serve-mixed``; ``trace.ops`` is
that base.  A layer a workload never calls reads 0.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

from common import metric
from spans import NOTE, START, END, Totals

EXPERIMENTS = (
    "table1", "table2", "fig2", "fig4", "fig7", "fig13", "fig14", "fig15",
    "fig16", "fig17", "fig18", "ablations", "extensions", "batch_sweep",
    "sparsity", "design_space_plus",
)

#: Per layer metric -> unit, in report order.
PER_LAYER: List[Tuple[str, str]] = (
    [(f"harness.exp.{exp}_s", "s") for exp in EXPERIMENTS]
    + [
        ("harness.export_s", "s"),
        ("harness.import_s", "s"),
        ("core.random_conv_weights_s", "s"),
        ("core.random_conv_weights.calls", "count"),
        ("gpu.model_s", "s"),
        ("oracle.s", "s"),
        ("memory.s", "s"),
        ("systolic.simulate_conv.calls", "count"),
        ("systolic.simulate_conv.miss_s", "s"),
        ("systolic.simulate_conv.hit_us", "us"),
        ("systolic.dual_mxu_s", "s"),
        ("perf.schedule_arrays_s", "s"),
        ("systolic.simulate_conv_batch_s", "s"),
        ("perf.batch_s", "s"),
        ("perf.cache.lookups", "count"),
        ("perf.cache.exact_hits", "count"),
        ("perf.cache.canonical_hits", "count"),
        ("perf.cache.persistent_hits", "count"),
        ("perf.cache.misses", "count"),
        ("perf.cache.hit_ratio", "ratio"),
        ("store.load.calls", "count"),
        ("store.load_s", "s"),
        ("store.load.hit_ratio", "ratio"),
        ("store.codec.decode_s", "s"),
        ("store.save.calls", "count"),
        ("store.save_s", "s"),
        ("store.codec.encode_s", "s"),
        ("store.serve.parse_us", "us"),
        ("store.serve.queue_wait_ms", "ms"),
        ("store.serve.price_ms", "ms"),
        ("store.serve.batch_size", "count"),
        ("store.serve.encode_us", "us"),
        ("store.serve.http_ms", "ms"),
        ("store.serve.connect_ms", "ms"),
        ("store.serve.dedup_collapses", "count"),
        ("store.serve.shed", "count"),
        ("store.serve.gen_late_ms", "ms"),
        ("serve.p50_ms", "ms"),
        ("serve.p99_ms", "ms"),
        ("serve.hit.p50_ms", "ms"),
        ("serve.store.p50_ms", "ms"),
        ("serve.miss.p50_ms", "ms"),
        ("dse.evaluate_s", "s"),
        ("dse.queue.claim_s", "s"),
        ("dse.queue.complete_s", "s"),
        ("dse.worker_spawn_s", "s"),
        ("dse.coordinator_idle_s", "s"),
        ("resilience.crash_safe_append.calls", "count"),
        ("resilience.crash_safe_append_s", "s"),
        ("trace.ops", "count"),
        ("trace.overhead", "ratio"),
        ("trace.unattributed_share", "ratio"),
    ]
)

#: Metric -> span name whose per-op self time it reports.
SELF_TIME = {
    "harness.export_s": "harness.export",
    "core.random_conv_weights_s": "core.random_conv_weights",
    "gpu.model_s": "gpu.model",
    "oracle.s": "oracle",
    "memory.s": "memory",
    "systolic.dual_mxu_s": "systolic.dual_mxu",
    "perf.schedule_arrays_s": "perf.schedule_arrays",
    "systolic.simulate_conv_batch_s": "systolic.simulate_conv_batch",
    "perf.batch_s": "perf.batch",
    "store.load_s": "store.load",
    "store.codec.decode_s": "store.codec.decode",
    "store.save_s": "store.save",
    "store.codec.encode_s": "store.codec.encode",
    "dse.evaluate_s": "dse.evaluate",
    "dse.queue.claim_s": "dse.queue.claim",
    "dse.queue.complete_s": "dse.queue.complete",
    "dse.worker_spawn_s": "dse.worker_spawn",
    "dse.coordinator_idle_s": "dse.coordinator_idle",
    "resilience.crash_safe_append_s": "resilience.crash_safe_append",
}

#: Metric -> span name whose per-op call count it reports.
CALLS = {
    "core.random_conv_weights.calls": "core.random_conv_weights",
    "systolic.simulate_conv.calls": "systolic.simulate_conv",
    "store.load.calls": "store.load",
    "store.save.calls": "store.save",
    "resilience.crash_safe_append.calls": "resilience.crash_safe_append",
}


def cache_metrics(tiers: Dict[str, float], ops: int) -> Dict[str, float]:
    """Memo tier counters (the status beacon's probe tiers) per op."""
    hits = tiers.get("exact", 0) + tiers.get("canonical", 0) + tiers.get("persistent", 0)
    lookups = hits + tiers.get("miss", 0)
    return {
        "perf.cache.lookups": lookups / ops,
        "perf.cache.exact_hits": tiers.get("exact", 0) / ops,
        "perf.cache.canonical_hits": tiers.get("canonical", 0) / ops,
        "perf.cache.persistent_hits": tiers.get("persistent", 0) / ops,
        "perf.cache.misses": tiers.get("miss", 0) / ops,
        "perf.cache.hit_ratio": hits / lookups if lookups else 0.0,
    }


def layer_values(totals: Totals, ops: int, import_s: List[float]) -> Dict[str, float]:
    """Every per-layer value the spans give, each per op; the rest read 0."""
    values = {name: 0.0 for name, _ in PER_LAYER}
    for exp in EXPERIMENTS:
        values[f"harness.exp.{exp}_s"] = totals.incl_s.get(f"harness.exp.{exp}", 0.0) / ops
    for name, span in SELF_TIME.items():
        values[name] = totals.self_s.get(span, 0.0) / ops
    for name, span in CALLS.items():
        values[name] = totals.calls.get(span, 0) / ops
    values["harness.import_s"] = statistics.median(import_s) if import_s else 0.0
    conv = totals.spans.get("systolic.simulate_conv", [])
    values["systolic.simulate_conv.miss_s"] = sum(
        s[END] - s[START] for s in conv if s[NOTE]
    ) / ops
    hits = [s[END] - s[START] for s in conv if s[NOTE] == 0]
    values["systolic.simulate_conv.hit_us"] = statistics.fmean(hits) * 1e6 if hits else 0.0
    loads = totals.spans.get("store.load", [])
    if loads:
        values["store.load.hit_ratio"] = sum(1 for s in loads if s[NOTE]) / len(loads)
    values.update(cache_metrics(totals.cache, ops))
    values["trace.ops"] = float(ops)
    return values


def as_metrics(values: Dict[str, float]) -> Dict[str, Dict]:
    units = dict(PER_LAYER)
    missing = set(units) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not computed: {sorted(missing)}")
    return {name: metric(values[name], units[name]) for name in units}
