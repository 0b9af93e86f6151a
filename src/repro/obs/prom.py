"""Prometheus text-format exposition of harness metrics.

Renders a :class:`repro.trace.MetricsRegistry` — its scalar counters,
gauges and histograms plus aggregates derived from the per-layer cycle
ledger — in the Prometheus `text exposition format
<https://prometheus.io/docs/instrumenting/exposition_formats/>`_, the
lingua franca of fleet monitoring.  An observability-enabled run writes
the snapshot to ``results/<run_id>/metrics.prom``; a scrape sidecar (or a
human with ``grep``) reads it without knowing anything about this repo.

Naming follows Prometheus conventions: ``repro_`` prefix, ``_total``
suffix on counters, base units in the name (``_seconds``, ``_cycles``).
Output is deterministically ordered (sorted by metric name, then label)
so two runs over the same work diff cleanly.
"""

from __future__ import annotations

import math
import pathlib
from typing import Dict, List, Optional, Tuple

from ..trace.metrics import Histogram, MetricsRegistry

__all__ = ["HELP_TEXT", "render_prometheus", "write_prometheus"]

#: ``# HELP`` strings for the well-known harness metrics (unknown names
#: still render, just without a HELP line).
HELP_TEXT: Dict[str, str] = {
    "repro_experiments_total": "Experiments executed in this run.",
    "repro_experiment_failures_total": "Experiments that raised in this run.",
    "repro_layers_simulated_total": "Simulation-cache lookups (hits + misses) in this run.",
    "repro_sim_cache_hits_total": "Simulation-cache hits in this run.",
    "repro_sim_cache_misses_total": "Simulation-cache misses in this run.",
    "repro_sim_cache_entries": "Entries resident in the simulation cache (summed across workers).",
    "repro_sim_cache_hit_rate": "Simulation-cache hit rate over this run.",
    "repro_layers_per_second": "Simulated layers (cache lookups) per wall-clock second.",
    "repro_run_wall_seconds": "Wall-clock duration of the whole run.",
    "repro_experiment_seconds": "Per-experiment wall-clock latency distribution.",
    "repro_simulate_layer_seconds": "Per-layer simulate_conv wall latency distribution.",
    "repro_layer_cycles_total": "Simulated cycles recorded, by instrumentation source.",
    "repro_layer_exposed_dma_cycles_total": "Exposed (non-overlapped) DMA cycles, by source.",
    "repro_layer_records_total": "Per-layer cycle records captured, by source.",
    "repro_sim_cache_persistent_hits_total": "Cache lookups served by the persistent result store in this run.",
    "repro_store_hit_rate": "Persistent result-store hit rate (hits / lookups).",
    "repro_store_corrupt_skipped": "Corrupt store records skipped (recomputed) so far.",
    "repro_serve_requests_total": "Timing queries admitted by the serve daemon.",
    "repro_serve_admission_hits_total": "Queries answered from the in-memory memo at admission, skipping the batch window.",
    "repro_serve_deduped_total": "Queries answered by an identical in-flight query's future.",
    "repro_serve_shed_total": "Queries refused with 429 because the pending budget was exhausted.",
    "repro_serve_batches_total": "simulate_conv_batch calls issued by the serve batcher.",
    "repro_serve_simulations_total": "Fresh simulations performed by the serve batcher (memo/store hits excluded).",
    "repro_serve_request_seconds": "End-to-end serve request latency distribution (per route when labeled).",
    "repro_serve_batch_seconds": "Engine wall time per served batch.",
    "repro_serve_pending": "Queries currently in flight in the serve daemon.",
    "repro_serve_draining": "1 while the serve daemon is draining for shutdown.",
    "repro_serve_degraded": "Current degradation-ladder rung (0=full 1=serial 2=store-only 3=drain).",
    "repro_serve_rung_changes_total": "Degradation-ladder rung changes (escalations and recoveries).",
    "repro_serve_breaker_trips_total": "Circuit-breaker trips (a spec fingerprint went open).",
    "repro_serve_breaker_fastfail_total": "Queries fast-failed with 422 by an open circuit breaker.",
    "repro_serve_breaker_open": "Spec-fingerprint circuit breakers currently open or half-open.",
    "repro_serve_deadline_timeouts_total": "Requests that blew their deadline (504) and abandoned their queries.",
    "repro_serve_store_only_miss_total": "Queries refused 503 at the store-only rung because the spec was cold.",
    "repro_dse_tasks_total": "Design-space sweep tasks enqueued (point x workload).",
    "repro_dse_results_total": "Design-space sweep tasks with a journaled result.",
    "repro_dse_failures_total": "Failed sweep task attempts journaled (pre-quarantine).",
    "repro_dse_quarantined_total": "Sweep tasks parked as poison in quarantine.jsonl.",
    "repro_dse_points_seen": "Design points planned across all refinement rounds.",
    "repro_dse_frontier_size": "Points on the final Pareto frontier.",
    "repro_dse_rounds": "Refinement rounds the sweep was configured for.",
}


def _fmt_value(value: float) -> str:
    """Prometheus sample value: integers without the trailing ``.0``."""
    if value == math.inf:
        return "+Inf"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def _fmt_labels(labels: Optional[Dict[str, str]]) -> str:
    if not labels:
        return ""
    body = ",".join(f'{key}="{labels[key]}"' for key in sorted(labels))
    return "{" + body + "}"


def _sample(
    name: str, value: float, labels: Optional[Dict[str, str]] = None
) -> str:
    return f"{name}{_fmt_labels(labels)} {_fmt_value(value)}"


def _header(lines: List[str], name: str, kind: str) -> None:
    help_text = HELP_TEXT.get(name)
    if help_text:
        lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")


def _split_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a registry key like ``name{route="/v1/conv"}`` into (name, labels).

    The registry stores labeled series under one flat string key (its dicts
    are keyed by name only); the exposition layer is where the labels must
    come apart again so bucket/sum/count suffixes attach to the *name*.
    Keys without a ``{...}`` suffix return ``(key, {})``.
    """
    brace = key.find("{")
    if brace < 0 or not key.endswith("}"):
        return key, {}
    name, body = key[:brace], key[brace + 1 : -1]
    labels: Dict[str, str] = {}
    for part in body.split(","):
        label, sep, value = part.partition("=")
        if not sep:
            return key, {}  # not label syntax after all; treat as a plain name
        labels[label.strip()] = value.strip().strip('"')
    return name, labels


def _render_histogram(
    lines: List[str],
    name: str,
    histogram: Histogram,
    labels: Optional[Dict[str, str]] = None,
    header: bool = True,
) -> None:
    if header:
        _header(lines, name, "histogram")
    for bound, cumulative in histogram.cumulative():
        sample_labels = dict(labels or {})
        sample_labels["le"] = _fmt_value(bound)
        lines.append(_sample(f"{name}_bucket", float(cumulative), sample_labels))
    lines.append(_sample(f"{name}_sum", histogram.sum, labels))
    lines.append(_sample(f"{name}_count", float(histogram.count), labels))


def render_prometheus(
    registry: MetricsRegistry, labels: Optional[Dict[str, str]] = None
) -> str:
    """The full exposition document for one registry snapshot.

    ``labels`` (e.g. ``{"run_id": ...}``) are attached to every scalar
    sample so multiple runs' files can be concatenated into one corpus.
    """
    lines: List[str] = []
    for name in sorted(registry.counters):
        _header(lines, name, "counter")
        lines.append(_sample(name, registry.counters[name], labels))
    for name in sorted(registry.gauges):
        _header(lines, name, "gauge")
        lines.append(_sample(name, registry.gauges[name], labels))
    # Histogram keys may carry inline labels (``name{route="..."}``); group
    # labeled variants under one HELP/TYPE header per base name.
    seen_bases: set = set()
    for key in sorted(registry.histograms, key=lambda k: (_split_key(k)[0], k)):
        base, key_labels = _split_key(key)
        _render_histogram(
            lines,
            base,
            registry.histograms[key],
            labels=key_labels or None,
            header=base not in seen_bases,
        )
        seen_bases.add(base)
    # Derived series from the per-layer cycle ledger (populated under --trace).
    by_source = registry.by_source()
    if by_source:
        derived: List[Tuple[str, str]] = [
            ("repro_layer_records_total", "layers"),
            ("repro_layer_cycles_total", "cycles"),
            ("repro_layer_exposed_dma_cycles_total", "exposed_dma_cycles"),
        ]
        for metric, field in derived:
            _header(lines, metric, "counter")
            for source in sorted(by_source):
                label = dict(labels or {})
                label["source"] = source
                lines.append(_sample(metric, float(by_source[source][field]), label))
    return "\n".join(lines) + "\n"


def write_prometheus(
    path, registry: MetricsRegistry, labels: Optional[Dict[str, str]] = None
) -> pathlib.Path:
    """Write the exposition document atomically; returns the path written."""
    from ..resilience.atomic import atomic_write_text

    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_text(path, render_prometheus(registry, labels))
    return path
