"""``repro report`` — Fig 2a-style bottleneck attribution from golden snapshots.

The paper's central characterization (Fig 2a, Sec. IV) splits every layer's
execution into *useful compute*, *lowering overhead* (im2col data
re-arrangement stretching the compute schedule beyond the MAC roofline),
and *DRAM-bound* time.  The repo already freezes exactly the inputs that
decomposition needs — the per-layer golden snapshots
(``tests/trace/goldens/<id>.json``) carry ``cycles`` / ``compute_cycles``
/ ``exposed_dma_cycles`` / ``macs`` per workload — so the report is pure
arithmetic over checked-in data plus the workload enumerations the golden
builders themselves use:

- **ideal compute** = ``macs / peak_macs_per_cycle`` — the MAC-array
  roofline, what a perfectly-packed schedule would take;
- **lowering overhead** = ``compute_cycles - ideal`` — schedule cycles the
  implicit-im2col dataflow spends beyond the roofline (ramp-up, partial
  tiles, fill/drain);
- **DRAM-bound** = ``exposed_dma_cycles`` — DMA time the double-buffering
  could not hide (the exposure identity makes
  ``cycles = compute_cycles + exposed_dma_cycles`` for single-array runs).

Each workload is also placed on the machine's roofline
(:mod:`repro.analysis.roofline`) by re-deriving its ConvSpec/GemmShape from
the same workload generators the golden builders enumerate — the report
never guesses shapes from names.

Output is a markdown (or ``--html``) table per experiment plus a run-wide
summary, suitable for checking into a PR description or pasting next to
Fig 2a.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
from typing import Any, Callable, Dict, List, Optional

from ..analysis.roofline import RooflinePoint, conv_roofline, gemm_roofline
from ..systolic.config import TPU_V2, TPUConfig

__all__ = [
    "attribute_entries",
    "load_golden",
    "render_markdown",
    "render_html",
    "report_main",
    "report_from_args",
    "add_report_arguments",
    "build_parser",
]


# --------------------------------------------------------------------------
# Workload re-derivation (mirrors the golden builders in repro.trace.goldens)
# --------------------------------------------------------------------------


def _gemm_name(shape) -> str:
    return f"gemm.{shape.m}x{shape.k}x{shape.n}"


def _specs_networks(batch: int) -> Dict[str, Any]:
    from ..workloads.networks import network, network_names

    return {
        layer.describe(): layer
        for name in network_names()
        for layer in network(name, batch)
    }


def _specs_fig4() -> Dict[str, Any]:
    from ..workloads.synthetic import fig4_layers

    index: Dict[str, Any] = {}
    for layer in fig4_layers(batch=64):
        for stride in (1, 2, 4):
            spec = layer.with_stride(stride)
            index[spec.describe()] = spec
            shape = spec.gemm_shape()
            index[_gemm_name(shape)] = shape
    return index


def _specs_fig13() -> Dict[str, Any]:
    from ..workloads.synthetic import conv_validation_layers, gemm_sweep

    index: Dict[str, Any] = {_gemm_name(s): s for s in gemm_sweep()}
    index.update(
        {spec.describe(): spec for spec in conv_validation_layers(batch=8)}
    )
    return index


def _specs_fig14() -> Dict[str, Any]:
    from ..workloads.synthetic import fig14_layer, small_channel_sweep

    study = fig14_layer(batch=8)
    index: Dict[str, Any] = {study.describe(): study}
    index.update(
        {spec.describe(): spec for spec in small_channel_sweep(batch=8)}
    )
    return index


def _specs_fig16() -> Dict[str, Any]:
    from ..workloads.networks import network

    return {layer.describe(): layer for layer in network("VGG16", 8)}


def _specs_fig18() -> Dict[str, Any]:
    from ..workloads.synthetic import memory_bound_layers, strided_layers

    return {
        spec.describe(): spec
        for spec in strided_layers(batch=8) + memory_bound_layers(batch=8)
    }


#: experiment id -> workload-name -> ConvSpec | GemmShape.
_SPEC_SOURCES: Dict[str, Callable[[], Dict[str, Any]]] = {
    "fig2": lambda: _specs_networks(64),
    "fig4": _specs_fig4,
    "fig13": _specs_fig13,
    "fig14": _specs_fig14,
    "fig15": lambda: _specs_networks(8),
    "fig16": _specs_fig16,
    "fig18": _specs_fig18,
    "table1": lambda: _specs_networks(1),
}


def _config_for(tag: str) -> Optional[TPUConfig]:
    """The TPUConfig a golden entry's ``config`` tag names."""
    if tag == "tpu_v2":
        return TPU_V2
    prefix = "tpu_v2.array"
    if tag.startswith(prefix):
        try:
            return TPU_V2.with_array(int(tag[len(prefix):]))
        except ValueError:
            return None
    return None


# --------------------------------------------------------------------------
# Attribution arithmetic
# --------------------------------------------------------------------------


def load_golden(path) -> dict:
    """Load one golden payload, validating the minimal schema."""
    path = pathlib.Path(path)
    with path.open("r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict) or "entries" not in payload:
        raise ValueError(f"{path} is not a golden payload (no 'entries')")
    return payload


def attribute_entries(payload: dict) -> List[dict]:
    """Decompose each TPU entry of a golden payload into the Fig 2a split.

    Returns one row per ``tpu-conv``/``tpu-gemm`` entry; other kinds
    (``ifmap-fill``, ``gpu-*``) carry no cycle decomposition and are
    skipped.  Each row holds absolute cycles and fractions-of-total, plus
    the workload's roofline placement when its spec could be re-derived.
    """
    experiment = payload.get("experiment", "?")
    spec_index: Dict[str, Any] = {}
    source = _SPEC_SOURCES.get(experiment)
    if source is not None:
        spec_index = source()
    rows: List[dict] = []
    for entry in payload.get("entries", []):
        kind = entry.get("kind")
        if kind not in ("tpu-conv", "tpu-gemm"):
            continue
        config = _config_for(entry.get("config", ""))
        if config is None:
            continue
        cycles = float(entry["cycles"])
        compute = float(entry["compute_cycles"])
        exposed = float(entry["exposed_dma_cycles"])
        macs = float(entry["macs"])
        ideal = macs / config.peak_macs_per_cycle
        lowering = max(0.0, compute - ideal)
        total = max(cycles, 1.0)
        row = {
            "workload": entry.get("workload", "?"),
            "kind": kind,
            "config": entry.get("config"),
            "cycles": cycles,
            "ideal_cycles": ideal,
            "lowering_cycles": lowering,
            "dram_cycles": exposed,
            "ideal_frac": ideal / total,
            "lowering_frac": lowering / total,
            "dram_frac": exposed / total,
            "roofline": None,
        }
        spec = spec_index.get(row["workload"])
        if spec is not None:
            point = _place(spec, kind, config)
            if point is not None:
                row["roofline"] = {
                    "intensity": point.intensity_flops_per_byte,
                    "attainable_tflops": point.attainable_tflops,
                    "peak_tflops": point.peak_tflops,
                    "bound": point.bound,
                }
        rows.append(row)
    return rows


def _place(spec: Any, kind: str, config: TPUConfig) -> Optional[RooflinePoint]:
    peak = config.peak_tflops
    bandwidth = config.hbm.peak_bandwidth_gbps
    try:
        if kind == "tpu-conv":
            return conv_roofline(spec, peak, bandwidth)
        return gemm_roofline(spec, peak, bandwidth)
    except (ValueError, AttributeError):
        return None


def summarize(rows: List[dict]) -> dict:
    """Experiment-wide totals: the aggregate Fig 2a bar."""
    cycles = sum(r["cycles"] for r in rows)
    ideal = sum(r["ideal_cycles"] for r in rows)
    lowering = sum(r["lowering_cycles"] for r in rows)
    dram = sum(r["dram_cycles"] for r in rows)
    total = max(cycles, 1.0)
    memory_bound = sum(
        1 for r in rows if r["roofline"] and r["roofline"]["bound"] == "memory"
    )
    placed = sum(1 for r in rows if r["roofline"])
    return {
        "workloads": len(rows),
        "cycles": cycles,
        "ideal_frac": ideal / total,
        "lowering_frac": lowering / total,
        "dram_frac": dram / total,
        "memory_bound": memory_bound,
        "placed": placed,
    }


# --------------------------------------------------------------------------
# Rendering
# --------------------------------------------------------------------------


def _pct(fraction: float) -> str:
    return f"{100.0 * fraction:.1f}%"


def render_markdown(experiment: str, rows: List[dict], top: int = 0) -> str:
    """The markdown report for one experiment's attribution rows.

    ``top`` truncates the per-workload table to the N most cycle-hungry
    workloads (0 = all); the summary always covers every row.
    """
    lines: List[str] = [f"## Bottleneck attribution · {experiment}", ""]
    if not rows:
        lines.append("_No TPU cycle entries in this golden set._")
        return "\n".join(lines)
    summary = summarize(rows)
    lines.append(
        f"{summary['workloads']} workloads, "
        f"{summary['cycles']:,.0f} total cycles — "
        f"**compute {_pct(summary['ideal_frac'])}** / "
        f"**lowering overhead {_pct(summary['lowering_frac'])}** / "
        f"**DRAM-bound {_pct(summary['dram_frac'])}**"
        + (
            f"; {summary['memory_bound']}/{summary['placed']} placed "
            "workloads are memory-bound on the roofline"
            if summary["placed"]
            else ""
        )
    )
    lines.append("")
    lines.append(
        "| workload | cycles | compute | lowering | DRAM-bound | "
        "intensity (FLOP/B) | roofline |"
    )
    lines.append("|---|---:|---:|---:|---:|---:|---|")
    ordered = sorted(rows, key=lambda r: -r["cycles"])
    shown = ordered[:top] if top else ordered
    for row in shown:
        roof = row["roofline"]
        intensity = f"{roof['intensity']:.1f}" if roof else "-"
        bound = roof["bound"] if roof else "-"
        lines.append(
            f"| {row['workload']} | {row['cycles']:,.0f} "
            f"| {_pct(row['ideal_frac'])} | {_pct(row['lowering_frac'])} "
            f"| {_pct(row['dram_frac'])} | {intensity} | {bound} |"
        )
    if top and len(ordered) > top:
        lines.append("")
        lines.append(
            f"_…and {len(ordered) - top} more workloads (summary covers all)._"
        )
    return "\n".join(lines)


def render_html(sections: List[str]) -> str:
    """Wrap rendered markdown sections in a minimal self-contained page.

    Markdown is left verbatim inside ``<pre>`` — the point is a file that
    opens in a browser without any renderer dependency, not typography.
    """
    body = "\n\n".join(sections)
    return (
        "<!doctype html>\n<html><head><meta charset=\"utf-8\">"
        "<title>repro report</title>"
        "<style>body{font-family:monospace;margin:2em;}"
        "pre{white-space:pre-wrap;}</style>"
        "</head><body><pre>\n" + body + "\n</pre></body></html>\n"
    )


# --------------------------------------------------------------------------
# CLI
# --------------------------------------------------------------------------


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare every ``repro report`` flag (one declaration for both CLIs)."""
    parser.add_argument(
        "experiments", nargs="*", default=None,
        help="golden experiment ids (default: fig13)",
    )
    parser.add_argument(
        "--goldens", default="tests/trace/goldens", metavar="DIR",
        help="directory holding <experiment>.json golden payloads",
    )
    parser.add_argument(
        "-o", "--output", default=None, metavar="PATH",
        help="write the report here instead of stdout",
    )
    parser.add_argument(
        "--html", action="store_true",
        help="emit a self-contained HTML page instead of markdown",
    )
    parser.add_argument(
        "--top", type=int, default=0, metavar="N",
        help="per-experiment table rows to show (0 = all workloads)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro report",
        description="Fig 2a-style bottleneck attribution from golden snapshots.",
    )
    add_report_arguments(parser)
    return parser


def report_main(argv: Optional[List[str]] = None) -> int:
    return report_from_args(build_parser().parse_args(argv))


def report_from_args(args: argparse.Namespace) -> int:
    """Write the report for the parsed flags (see :func:`report_main`)."""
    experiments = args.experiments or ["fig13"]
    goldens_dir = pathlib.Path(args.goldens)
    sections: List[str] = []
    for experiment in experiments:
        path = goldens_dir / f"{experiment}.json"
        if not path.exists():
            print(f"repro report: no golden payload at {path}", file=sys.stderr)
            return 1
        try:
            payload = load_golden(path)
        except (ValueError, json.JSONDecodeError) as err:
            print(f"repro report: {err}", file=sys.stderr)
            return 1
        rows = attribute_entries(payload)
        sections.append(render_markdown(experiment, rows, top=args.top))
    text = render_html(sections) if args.html else "\n\n".join(sections) + "\n"
    if args.output:
        from ..resilience.atomic import atomic_write_text

        atomic_write_text(args.output, text)
        print(f"report written to {args.output}")
    else:
        print(text, end="")
    return 0


if __name__ == "__main__":
    sys.exit(report_main())
