"""Cross-layer batched schedule engine: one pricing pass, one recurrence.

:mod:`repro.perf.schedule_arrays` vectorizes the two-resource pipeline
*within* a layer; harness time beyond it is dominated by dispatch —
thousands of sub-100µs ``simulate_conv`` calls each rebuilding the same
tiny set of scalar costs and running the recurrence on its own short
arrays.  This module amortizes scheduling across a whole batch of layers
(the implicit-im2col move — amortize the lowering across the GEMM — applied
one level up):

- **Construction** (:func:`conv_schedule_batch` / :func:`gemm_schedule_batch`):
  the per-schedule builder of :mod:`~repro.perf.schedule_arrays` — the
  same one a single layer runs as a batch of one — looped over one shared
  :class:`~repro.perf.schedule_arrays.BatchPricer`, which memoizes every
  distinct scalar argument tuple and chunk grid *across the batch*: a
  weight-fill or occupancy priced for layer 3 is never re-priced for
  layer 40.
- **Execution** (:func:`execute_schedule_batch`): all schedules concatenate
  into one flat ragged batch with per-job segment offsets; cumulative sums
  run on a zero-padded 2-D view (adding ``0.0`` is a float identity, so the
  padded row-wise ``cumsum`` is bit-identical to each job's own), and the
  pipeline recurrence runs once over the flat arrays via
  :func:`~repro.perf.schedule_arrays.pipeline_free_times_segmented` with
  forced restarts at job boundaries.  Below :data:`_MIN_BATCHED_JOBS`
  schedules the per-layer
  :func:`~repro.perf.schedule_arrays.execute_schedule_arrays` is the faster
  executor, so small batches run one schedule at a time through it.

**Bit-exactness to the per-layer path is a hard contract**: the same scalar
pricing functions are called with the same argument tuples, every array
element lands where the item scheduler would have emitted it, and every
reduction keeps the reference's left-to-right association.  The equivalence
tests (``tests/perf/test_batch.py``) gate this to the last float bit.

Audit note: scalar-cost sharing across specs means ``ifmap_tile_fill_cycles``
runs once per distinct feature tuple, not once per spec — the same
"verified once per key" policy the perf cache already applies.  Under
``--audit full`` the differential checker re-prices every layer through a
batch of one with a fresh pricer, so per-spec audit coverage is unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..core.tiling import plan_multi_tile
from ..trace import tracer as trace
from ..systolic.config import TPUConfig
from ..systolic.dma import FillEngine
from ..systolic.scheduler import ScheduleResult
from .schedule_arrays import (
    BatchPricer,
    ScheduleArrays,
    _conv_schedule,
    _gemm_schedule,
    execute_schedule_arrays,
    pipeline_free_times_segmented,
)

__all__ = [
    "BatchPricer",
    "conv_schedule_batch",
    "gemm_schedule_batch",
    "execute_schedule_batch",
]

#: Flat padded-batch size (jobs × longest job) beyond which the executor
#: degrades to per-job execution instead of materialising the 2-D pad.
_MAX_PADDED_ELEMENTS = 64_000_000

#: Fewest non-empty schedules the flat batch executes: below this the
#: one-schedule executor is faster (measured crossover 7–8 schedules on
#: VGG16/AlexNet/GoogLeNet layers at batch 1 and 32; one schedule runs
#: ~2.5x slower through the flat batch).
_MIN_BATCHED_JOBS = 8


# --------------------------------------------------------------------------
# Batched construction
# --------------------------------------------------------------------------


def _count_batch(jobs: int) -> None:
    if trace.enabled():
        trace.counter("schedule.constructions", jobs, cat="schedule")
        trace.counter("schedule.batched_constructions", jobs, cat="schedule")


def conv_schedule_batch(
    jobs: Sequence[Tuple[ConvSpec, int]],
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    layout: Layout = Layout.NHWC,
    pricer: Optional[BatchPricer] = None,
) -> List[ScheduleArrays]:
    """Array schedules for ``(spec, group_size)`` jobs with shared pricing.

    Bit-identical per job to
    :func:`~repro.perf.schedule_arrays.channel_first_schedule_arrays`.
    """
    if pricer is None:
        pricer = BatchPricer(config, engine if engine is not None else FillEngine(config))
    schedules = [
        _conv_schedule(
            spec,
            config,
            pricer,
            plan_multi_tile(spec, group_size, row_aligned=True),
            group_size,
            layout,
        )
        for spec, group_size in jobs
    ]
    _count_batch(len(jobs))
    return schedules


def gemm_schedule_batch(
    shapes: Sequence[GemmShape],
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    pricer: Optional[BatchPricer] = None,
) -> List[ScheduleArrays]:
    """Array schedules for GEMM shapes with shared pricing.

    Bit-identical per shape to
    :func:`~repro.perf.schedule_arrays.gemm_schedule_arrays`.
    """
    if pricer is None:
        pricer = BatchPricer(config, engine if engine is not None else FillEngine(config))
    schedules = [_gemm_schedule(shape, config, pricer) for shape in shapes]
    _count_batch(len(shapes))
    return schedules


# --------------------------------------------------------------------------
# Batched execution
# --------------------------------------------------------------------------


def _empty_result() -> ScheduleResult:
    return ScheduleResult(0.0, 0.0, 0.0, 0.0, 0, 0)


def _length_buckets(widths: np.ndarray) -> List[np.ndarray]:
    """Partition row indices into similar-length buckets (descending).

    Rows are padded per bucket, and a bucket only admits rows at least half
    its widest row — so each bucket's pad is at most ~2x its payload no
    matter how skewed the batch (a lone 32K-item GEMM next to 500-item ones
    must not make every row pay 32K columns).  Row order never affects
    row-wise results, so bucketing is invisible to the numbers.
    """
    order = np.argsort(-widths, kind="stable")
    buckets: List[np.ndarray] = []
    pos = 0
    while pos < order.size:
        bucket_max = int(widths[order[pos]])
        end = pos + 1
        while end < order.size and 2 * int(widths[order[end]]) >= bucket_max:
            end += 1
        buckets.append(order[pos:end])
        pos = end
    return buckets


def execute_schedule_batch(
    schedules: Sequence[ScheduleArrays],
) -> List[ScheduleResult]:
    """Execute many schedules as one flat segmented batch.

    Batches of fewer than :data:`_MIN_BATCHED_JOBS` non-empty schedules
    run one schedule at a time instead.  Per-job results are bit-identical
    to :func:`~repro.perf.schedule_arrays.execute_schedule_arrays`: row-wise
    cumulative sums on a zero-padded 2-D layout reproduce each job's own
    left-associated sums (adding ``0.0`` is exact), and the pipeline
    recurrences — compute chain and drained write chain — run over the
    concatenated arrays with forced restarts at job boundaries.
    """
    lens = np.array([len(s) for s in schedules], dtype=np.int64)
    jobs = int(lens.size)
    if jobs == 0:
        return []
    nonempty = np.flatnonzero(lens)
    if nonempty.size == 0:
        return [_empty_result() for _ in schedules]
    if (
        nonempty.size < _MIN_BATCHED_JOBS
        or 2 * int(lens.sum()) > _MAX_PADDED_ELEMENTS
    ):
        # Too few schedules to amortise the flat batch, or too many items to
        # stage even through ~2x-payload bucket pads.
        return [execute_schedule_arrays(s) for s in schedules]
    if trace.enabled():
        trace.counter("schedule.batched_executions", 1, cat="schedule")
        trace.counter("schedule.batched_jobs", int(nonempty.size), cat="schedule")
        trace.counter(
            "schedule.vectorized_items", int(lens.sum()), cat="schedule"
        )

    active = [schedules[i] for i in nonempty.tolist()]
    alens = lens[nonempty]
    j = len(active)
    fill = np.concatenate([s.fill_cycles for s in active])
    gemm = np.concatenate([s.gemm_cycles for s in active])
    drain = np.concatenate([s.drain_cycles for s in active])
    starts = np.zeros(j, dtype=np.int64)
    np.cumsum(alens[:-1], out=starts[1:])

    # Row-wise padded cumsums, bucketed by length so the pad stays ~2x the
    # payload.  Each padded row reproduces its job's own left-associated
    # cumulative sum exactly (adding 0.0 is a float identity).
    read_free = np.empty(fill.size, dtype=np.float64)
    read_free_last = np.empty(j, dtype=np.float64)
    compute_busy = np.empty(j, dtype=np.float64)
    dma_busy = np.empty(j, dtype=np.float64)
    for idxs in _length_buckets(alens):
        widths = alens[idxs]
        bucket_max = int(widths[0])
        rows = np.arange(idxs.size)
        last_col = widths - 1
        mask = np.arange(bucket_max, dtype=np.int64) < widths[:, None]
        segments = [
            slice(int(starts[i]), int(starts[i] + alens[i])) for i in idxs.tolist()
        ]
        bucket_fill = np.concatenate([fill[s] for s in segments])
        bucket_drain = np.concatenate([drain[s] for s in segments])

        # Read channel: per-job cumulative fill times.
        pad = np.zeros((idxs.size, bucket_max), dtype=np.float64)
        pad[mask] = bucket_fill
        read_csum = np.cumsum(pad, axis=1)
        split_at = np.cumsum(widths)[:-1]
        for segment, chunk in zip(segments, np.split(read_csum[mask], split_at)):
            read_free[segment] = chunk
        read_free_last[idxs] = read_csum[rows, last_col]

        # Compute busy: per-job cumulative GEMM totals.
        pad[:] = 0.0
        pad[mask] = np.concatenate([gemm[s] for s in segments])
        compute_busy[idxs] = np.cumsum(pad, axis=1)[rows, last_col]

        # DMA busy: fills and drains interleaved per item, per job.
        inter = np.zeros((idxs.size, 2 * bucket_max), dtype=np.float64)
        inter[:, 0::2][mask] = bucket_fill
        inter[:, 1::2][mask] = bucket_drain
        dma_busy[idxs] = np.cumsum(inter, axis=1)[rows, 2 * widths - 1]

    # Compute chain: the segmented pipeline recurrence.
    compute_free = pipeline_free_times_segmented(read_free, gemm, starts)
    compute_free_last = compute_free[starts + alens - 1]

    # Write channel: the drained sub-chain, segmented per job.
    write_final = np.zeros(j, dtype=np.float64)
    drained = np.flatnonzero(drain)
    if drained.size:
        job_of = np.repeat(np.arange(j, dtype=np.int64), alens)
        dj = job_of[drained]
        dstarts = np.flatnonzero(np.diff(dj, prepend=dj[0] - 1))
        dends = np.append(dstarts[1:], dj.size) - 1
        w = pipeline_free_times_segmented(
            compute_free[drained], drain[drained], dstarts
        )
        write_final[dj[dstarts]] = w[dends]

    total = np.maximum(np.maximum(compute_free_last, read_free_last), write_final)
    exposed = np.maximum(0.0, total - compute_busy)

    results: List[ScheduleResult] = [_empty_result() for _ in schedules]
    for pos, sched_idx in enumerate(nonempty.tolist()):
        results[sched_idx] = ScheduleResult(
            total_cycles=float(total[pos]),
            compute_cycles=float(compute_busy[pos]),
            dma_cycles=float(dma_busy[pos]),
            exposed_dma_cycles=float(exposed[pos]),
            items=int(alens[pos]),
            macs=int(schedules[sched_idx].macs.sum()),
        )
    return results
