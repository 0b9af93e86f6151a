"""Struct-of-arrays schedules: the vectorized twin of the item scheduler.

The per-item scheduler (:mod:`repro.systolic.scheduler`) materialises one
:class:`~repro.systolic.scheduler.WorkItem` dataclass per stationary tile and
folds over them in Python — clear, but every experiment pays tens of
thousands of attribute lookups per layer.  This module holds the same
schedule as four parallel NumPy arrays (:class:`ScheduleArrays`), builds it
from block-assigned chunk grids, and executes the two-resource pipeline as a
prefix recurrence over it.

**Bit-exactness is a hard contract**, not an aspiration: every cycle count
produced here must equal the per-item path's result to the last float bit,
because the exported results are compared textually at full precision.

Two properties make that possible:

- *Construction*: each scalar cost (weight fill, IFMap fill, drain,
  occupancy) takes values from a tiny set of distinct arguments — block rows
  are ``m_block`` or one remainder, K/N chunks are full or one tail.  A
  :class:`BatchPricer` calls the **same** scalar pricing functions once per
  distinct argument tuple and writes each K×N chunk grid with block
  assignments, so every array element is the identical float the item path
  would have computed.  A single layer is a batch of one with a fresh
  pricer; :mod:`repro.perf.batch` loops the same per-schedule routine over
  one shared pricer.
- *Execution*: the pipeline recurrence ``w_i = max(w_{i-1}, s_i) + a_i`` is
  evaluated by :func:`pipeline_free_times_segmented` with strictly
  left-to-right associated additions (``np.cumsum`` over restart segments),
  matching the reference fold's rounding exactly; a naive closed form
  (``cumsum(a) + maximum.accumulate(s - cumsum(a))``) reassociates the sums
  and drifts by ulps, so it is used only as the segmentation *guess* and the
  result is verified against the recurrence's fixpoint condition.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.conv_spec import ConvSpec, GemmShape
from ..core.layouts import Layout
from ..core.tiling import MultiTileGroup, plan_multi_tile, tpu_multi_tile_policy
from ..trace import tracer as trace
from ..systolic.config import TPUConfig
from ..systolic.dma import FillEngine
from ..systolic.scheduler import (
    ScheduleResult,
    WorkItem,
    ifmap_rows_per_block,
    MIN_BLOCK_ROWS,
    MIN_PIPELINE_BLOCKS,
    tile_occupancy_cycles,
)
from .cache import canonical_layout

__all__ = [
    "ScheduleArrays",
    "BatchPricer",
    "channel_first_schedule_arrays",
    "conv_schedule_arrays_from_groups",
    "gemm_schedule_arrays",
    "execute_schedule_arrays",
    "execute_multi_array_schedule",
    "pipeline_free_times_segmented",
    "schedule_construction_count",
]

#: Number of schedule constructions performed since import — lets tests (and
#: the cache smoke test) assert that a memoized re-simulation builds nothing.
_CONSTRUCTION_COUNT = 0

#: The segment starts of a single pipeline chain.
_ONE_CHAIN = np.zeros(1, dtype=np.int64)


def schedule_construction_count() -> int:
    """How many array schedules have been constructed in this process."""
    return _CONSTRUCTION_COUNT


@dataclasses.dataclass
class ScheduleArrays:
    """One schedule as four parallel arrays (float64 cycles, int64 MACs).

    Index ``i`` of every array describes the same work item the per-item
    scheduler would have emitted at position ``i``.
    """

    gemm_cycles: np.ndarray
    fill_cycles: np.ndarray
    drain_cycles: np.ndarray
    macs: np.ndarray

    def __len__(self) -> int:
        return int(self.gemm_cycles.size)

    def without_drains(self) -> "ScheduleArrays":
        """A copy whose OFMap drains are elided (network residency)."""
        return ScheduleArrays(
            gemm_cycles=self.gemm_cycles,
            fill_cycles=self.fill_cycles,
            drain_cycles=np.zeros_like(self.drain_cycles),
            macs=self.macs,
        )

    @classmethod
    def from_work_items(cls, items: Sequence[WorkItem]) -> "ScheduleArrays":
        return cls(
            gemm_cycles=np.array([i.gemm_cycles for i in items], dtype=np.float64),
            fill_cycles=np.array([i.fill_cycles for i in items], dtype=np.float64),
            drain_cycles=np.array([i.drain_cycles for i in items], dtype=np.float64),
            macs=np.array([i.macs for i in items], dtype=np.int64),
        )

    def to_work_items(self, prefix: str = "item") -> List[WorkItem]:
        """Materialise per-item objects (debugging / cross-checks only)."""
        return [
            WorkItem(
                label=f"{prefix}{i}",
                gemm_cycles=float(self.gemm_cycles[i]),
                fill_cycles=float(self.fill_cycles[i]),
                drain_cycles=float(self.drain_cycles[i]),
                macs=int(self.macs[i]),
            )
            for i in range(len(self))
        ]


# --------------------------------------------------------------------------
# Exact vectorized pipeline recurrence
# --------------------------------------------------------------------------

_MAX_SEGMENT_REFINES = 6


def pipeline_free_times_segmented(
    start_floor: np.ndarray, busy: np.ndarray, seg_starts: np.ndarray
) -> np.ndarray:
    """Solve ``w_i = max(w_{i-1}, s_i) + a_i`` bit-exactly over independent chains.

    ``start_floor`` (``s``) is the earliest moment item ``i`` may start (its
    fill landing, or its producing GEMM finishing); ``busy`` (``a``) is the
    resource time it then holds.  ``seg_starts`` marks where each chain
    begins in the flat arrays — strictly increasing from ``0``; pass ``[0]``
    for a single chain.  The state resets there (``w_{-1} = 0`` per chain),
    so slicing the result at a chain's bounds is bit-identical to solving
    that chain alone.

    The result is identical — in every float bit — to the sequential fold,
    because within each "restart segment" (a maximal run where the resource
    never idles) the value is a plain left-associated running sum, evaluated
    here with ``np.cumsum``.  The segmentation (the set of ``i`` where
    ``s_i >= w_{i-1}``, i.e. the resource sat idle and the term restarts
    from ``s_i``) is guessed from the reassociated closed form and then
    verified as a fixpoint of the exact evaluation; chain starts are simply
    *forced* restarts.  On the rare non-converging input the scalar fold
    runs.

    This assumes ``start_floor >= 0`` at each chain's first item (true for
    every schedule: fills and compute-free floors are nonnegative), so a
    forced restart yields ``s + a`` exactly as the reference fold's
    ``max(0, s) + a`` would.
    """
    s = np.asarray(start_floor, dtype=np.float64)
    a = np.asarray(busy, dtype=np.float64)
    n = s.size
    if n <= 1:
        return s + a
    inner = np.asarray(seg_starts, dtype=np.int64)[1:]  # chains after the first
    before_inner = inner - 1
    bounds = [0, *inner.tolist(), n]

    # Per-chain reassociated closed-form guess (rounding-tolerant: it only
    # seeds the segmentation, which the fixpoint check below verifies).
    w = np.empty(n, dtype=np.float64)
    for st, en in zip(bounds[:-1], bounds[1:]):
        acc = np.cumsum(a[st:en])
        acc_prev = np.empty_like(acc)
        acc_prev[0] = 0.0
        acc_prev[1:] = acc[:-1]
        w[st:en] = acc + np.maximum.accumulate(
            np.maximum(s[st:en] - acc_prev, -acc_prev)
        )

    restart = np.empty(n, dtype=bool)
    for _ in range(_MAX_SEGMENT_REFINES):
        restart[0] = True
        np.greater_equal(s[1:], w[:-1], out=restart[1:])
        if inner.size:
            restart[inner] = True
        w_new = _evaluate_segments(s, a, restart)
        idle = s[1:] >= w_new[:-1]
        if inner.size:
            # Chain starts restart regardless of the idle condition, so
            # they pass the fixpoint check by construction.
            idle[before_inner] = True
        w = w_new
        if (idle == restart[1:]).all():
            return w

    # Fallback: the plain fold with per-chain resets (never observed to
    # trigger; kept for safety).
    out = np.empty(n, dtype=np.float64)
    s_list = s.tolist()
    a_list = a.tolist()
    for st, en in zip(bounds[:-1], bounds[1:]):
        prev = 0.0
        for i in range(st, en):
            prev = max(prev, s_list[i]) + a_list[i]
            out[i] = prev
    return out


def _evaluate_segments(s: np.ndarray, a: np.ndarray, restart: np.ndarray) -> np.ndarray:
    """Exact left-associated evaluation given a restart segmentation."""
    n = s.size
    starts = np.flatnonzero(restart)
    ends = np.append(starts[1:], n)
    out = np.empty(n, dtype=np.float64)
    lengths = ends - starts
    single = lengths == 1
    idx = starts[single]
    if idx.size:
        out[idx] = s[idx] + a[idx]
    for st, en in zip(starts[~single].tolist(), ends[~single].tolist()):
        seg = np.empty(en - st + 1, dtype=np.float64)
        seg[0] = s[st]
        seg[1:] = a[st:en]
        out[st:en] = np.cumsum(seg)[1:]
    return out


def _dma_busy_cycles(fill: np.ndarray, drain: np.ndarray) -> float:
    """``sum(fill_i) + sum(drain_i)`` in the reference's interleaved order.

    The fold adds fill then (nonzero) drain per item; adding ``0.0`` is an
    exact identity, so interleaving both arrays reproduces the order.
    """
    interleaved = np.empty(2 * fill.size, dtype=np.float64)
    interleaved[0::2] = fill
    interleaved[1::2] = drain
    return float(np.cumsum(interleaved)[-1])


def _write_free_final(compute_free: np.ndarray, drain: np.ndarray) -> float:
    """When the write channel finishes: the drained sub-chain's last value."""
    drained = np.flatnonzero(drain)
    if not drained.size:
        return 0.0
    return float(
        pipeline_free_times_segmented(
            compute_free[drained], drain[drained], _ONE_CHAIN
        )[-1]
    )


def execute_schedule_arrays(schedule: ScheduleArrays) -> ScheduleResult:
    """Vectorized twin of :func:`repro.systolic.scheduler.execute_schedule`.

    Produces bit-identical :class:`ScheduleResult` fields (see the module
    docstring for why that holds).
    """
    n = len(schedule)
    if n == 0:
        return ScheduleResult(0.0, 0.0, 0.0, 0.0, 0, 0)
    if trace.enabled():
        trace.counter("schedule.vectorized_executions", 1, cat="schedule")
        trace.counter("schedule.vectorized_items", n, cat="schedule")
    fill = schedule.fill_cycles
    gemm = schedule.gemm_cycles
    drain = schedule.drain_cycles

    read_free = np.cumsum(fill)
    compute_free = pipeline_free_times_segmented(read_free, gemm, _ONE_CHAIN)
    write_free_final = _write_free_final(compute_free, drain)

    compute_busy = float(np.cumsum(gemm)[-1])
    total = max(float(compute_free[-1]), float(read_free[-1]), write_free_final)
    return ScheduleResult(
        total_cycles=total,
        compute_cycles=compute_busy,
        dma_cycles=_dma_busy_cycles(fill, drain),
        exposed_dma_cycles=max(0.0, total - compute_busy),
        items=n,
        macs=int(schedule.macs.sum()),
    )


def execute_multi_array_schedule(schedule: ScheduleArrays, arrays: int) -> tuple:
    """Vectorized twin of ``dual_mxu._execute_multi_array``.

    Items round-robin over ``arrays`` engines that share one read and one
    write DMA channel; each engine's occupancy chain is an independent
    pipeline recurrence over its stride-``arrays`` slice.  Returns
    ``(total, compute_busy, dma_busy, macs)``.
    """
    n = len(schedule)
    if n == 0:
        return 0.0, 0.0, 0.0, 0
    fill = schedule.fill_cycles
    gemm = schedule.gemm_cycles
    drain = schedule.drain_cycles

    read_free = np.cumsum(fill)
    compute_free = np.empty(n, dtype=np.float64)
    for engine in range(min(arrays, n)):
        sl = slice(engine, n, arrays)
        compute_free[sl] = pipeline_free_times_segmented(
            read_free[sl], gemm[sl], _ONE_CHAIN
        )
    write_free_final = _write_free_final(compute_free, drain)

    compute_busy = float(np.cumsum(gemm)[-1])
    total = max(float(compute_free.max()), float(read_free[-1]), write_free_final)
    return total, compute_busy, _dma_busy_cycles(fill, drain), int(schedule.macs.sum())


# --------------------------------------------------------------------------
# Builders
# --------------------------------------------------------------------------

_Grid = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


class BatchPricer:
    """Scalar-cost and chunk-grid memoization for one batch of schedules.

    Every distinct argument tuple of each pricing function is evaluated
    exactly once per pricer, no matter how many layers in the batch need
    it.  All values come from the *same* scalar functions the item
    scheduler calls, so sharing cannot change a single bit.

    The IFMap-fill memo keys on exactly the features
    :meth:`~repro.systolic.dma.FillEngine.ifmap_tile_fill_cycles` reads —
    block rows, group size, batch, channels, stride, fill contiguity,
    output row width, IFMap spatial size and the layout *class* (NHWC/HWCN
    and NCHW/CHWN price identically) — so two different specs share an
    entry only when the engine would have returned the identical float.
    """

    def __init__(self, config: TPUConfig, engine: FillEngine):
        self.config = config
        self.engine = engine
        self._weight_fill: Dict[Tuple, float] = {}
        self._occupancy: Dict[Tuple, float] = {}
        self._drain: Dict[Tuple, float] = {}
        self._a_fill: Dict[Tuple, float] = {}
        self._ifmap_fill: Dict[Tuple, float] = {}
        self._grids: Dict[Tuple, _Grid] = {}

    # ------------------------------------------------------------- scalars
    def weight_fill(self, k_t: int, n_t: int) -> float:
        key = (k_t, n_t)
        value = self._weight_fill.get(key)
        if value is None:
            value = self.engine.weight_fill_cycles(k_t, n_t)
            self._weight_fill[key] = value
        return value

    def occupancy(self, rows: int, k_t: int, n_t: int, first: bool = False) -> float:
        key = (rows, k_t, n_t, first)
        value = self._occupancy.get(key)
        if value is None:
            value = tile_occupancy_cycles(rows, k_t, n_t, self.config, first=first)
            self._occupancy[key] = value
        return value

    def drain(self, rows: int, n_t: int) -> float:
        key = (rows, n_t)
        value = self._drain.get(key)
        if value is None:
            value = self.engine.ofmap_drain_cycles(rows, n_t)
            self._drain[key] = value
        return value

    def a_fill(self, rows: int, k_t: int) -> float:
        key = (rows, k_t)
        value = self._a_fill.get(key)
        if value is None:
            value = self.engine.gemm_a_fill_cycles(rows, k_t)
            self._a_fill[key] = value
        return value

    def ifmap_fill(
        self, spec: ConvSpec, rows: int, group_size: int, layout: Layout
    ) -> float:
        contiguous = spec.stride == 1 and spec.dilation == 1
        key = (
            rows,
            group_size,
            spec.n,
            spec.c_in,
            spec.stride,
            contiguous,
            spec.w_out,
            spec.h_in * spec.w_in,
            canonical_layout(layout),
        )
        value = self._ifmap_fill.get(key)
        if value is None:
            value = self.engine.ifmap_tile_fill_cycles(
                spec, rows, group_size, layout=layout
            )
            self._ifmap_fill[key] = value
        return value

    # --------------------------------------------------------------- grids
    def conv_grid(self, rows: int, merged_k: int, c_out: int, drains_here: bool) -> _Grid:
        """Flat (fill, gemm, drain, macs) for one group's K×N chunk grid.

        The OFMap drain lands on the last K-chunk row only when
        ``drains_here`` (the block's last group).  The IFMap fill is *not*
        included: it lands on the group's first element at assembly, after
        the shared grid is copied.
        """
        return self._grid(rows, merged_k, c_out, drains_here, False)

    def gemm_grid(self, rows: int, k: int, n: int) -> _Grid:
        """Flat (fill, gemm, drain, macs) for one GEMM M-block's chunk grid.

        The A-panel fill is baked into column 0 of every K-chunk row
        (``weight + a_fill``, the reference's add order) and the C drain
        into the last K-chunk row — both are functions of the key alone.
        """
        return self._grid(rows, k, n, True, True)

    def _grid(self, rows: int, k: int, n: int, drains: bool, a_panel: bool) -> _Grid:
        """The chunk grid both schedules share.

        Row-major over K-chunks then N-chunks — exactly the item
        scheduler's loop order — it holds at most four distinct values per
        array (full/tail chunk on each axis), written as block assignments.
        Cached arrays are immutable; callers must copy before mutating.
        """
        key = (rows, k, n, drains, a_panel)
        cached = self._grids.get(key)
        if cached is not None:
            return cached
        ar, ac = self.config.array_rows, self.config.array_cols
        kc = -(-k // ar)
        nc = -(-n // ac)
        kt_last = k - (kc - 1) * ar
        nt_last = n - (nc - 1) * ac

        fill = np.empty((kc, nc), dtype=np.float64)
        gemm = np.empty((kc, nc), dtype=np.float64)
        if kc > 1 and nc > 1:
            fill[: kc - 1, : nc - 1] = self.weight_fill(ar, ac)
            gemm[: kc - 1, : nc - 1] = self.occupancy(rows, ar, ac)
        if kc > 1:
            fill[: kc - 1, nc - 1] = self.weight_fill(ar, nt_last)
            gemm[: kc - 1, nc - 1] = self.occupancy(rows, ar, nt_last)
        if nc > 1:
            fill[kc - 1, : nc - 1] = self.weight_fill(kt_last, ac)
            gemm[kc - 1, : nc - 1] = self.occupancy(rows, kt_last, ac)
        fill[kc - 1, nc - 1] = self.weight_fill(kt_last, nt_last)
        gemm[kc - 1, nc - 1] = self.occupancy(rows, kt_last, nt_last)

        if a_panel:
            a_fill = np.empty(kc, dtype=np.float64)
            if kc > 1:
                a_fill[: kc - 1] = self.a_fill(rows, ar)
            a_fill[kc - 1] = self.a_fill(rows, kt_last)
            fill[:, 0] += a_fill

        drain = np.zeros((kc, nc), dtype=np.float64)
        if drains:
            if nc > 1:
                drain[kc - 1, : nc - 1] = self.drain(rows, ac)
            drain[kc - 1, nc - 1] = self.drain(rows, nt_last)

        kt = np.full(kc, ar, dtype=np.int64)
        kt[-1] = kt_last
        nt = np.full(nc, ac, dtype=np.int64)
        nt[-1] = nt_last
        macs = rows * np.multiply.outer(kt, nt)

        grids = (fill.reshape(-1), gemm.reshape(-1), drain.reshape(-1), macs.reshape(-1))
        for arr in grids:
            arr.flags.writeable = False
        self._grids[key] = grids
        return grids


def _block_rows(total: int, block: int) -> List[int]:
    """Rows of each M-block: ``block`` repeated, then one remainder."""
    n_blocks = -(-total // block)
    return [block] * (n_blocks - 1) + [total - block * (n_blocks - 1)]


def _assemble_blocks(templates: dict, rows_sequence: List[int]) -> ScheduleArrays:
    """Concatenate per-block templates in block order (tiling equal runs).

    The schedule always owns fresh, writable arrays, even when its one
    block's template is a shared read-only pricer grid.
    """
    runs: List[Tuple[_Grid, int]] = []
    i = 0
    while i < len(rows_sequence):
        rows = rows_sequence[i]
        j = i
        while j < len(rows_sequence) and rows_sequence[j] == rows:
            j += 1
        runs.append((templates[rows], j - i))
        i = j
    if len(runs) == 1:
        template, reps = runs[0]
        fill, gemm, drain, macs = (np.tile(a, reps) for a in template)
    else:
        parts = [
            [np.tile(a, reps) if reps > 1 else a for a in template]
            for template, reps in runs
        ]
        fill, gemm, drain, macs = (np.concatenate(arrays) for arrays in zip(*parts))
    return ScheduleArrays(gemm, fill, drain, macs)


def _conv_template(
    spec: ConvSpec,
    rows: int,
    groups: Sequence[MultiTileGroup],
    pricer: BatchPricer,
    layout: Layout,
) -> _Grid:
    """One IFMap block's template: concatenated group grids + IFMap fills."""
    last_gi = len(groups) - 1
    parts = [
        pricer.conv_grid(rows, group.merged_k, spec.c_out, gi == last_gi)
        for gi, group in enumerate(groups)
    ]
    # np.concatenate always copies, so the shared grids stay pristine and
    # the IFMap-fill adds below mutate this template's own buffer.
    fill, gemm, drain, macs = (np.concatenate(arrays) for arrays in zip(*parts))
    offset = 0
    for group, part in zip(groups, parts):
        # weight + input_fill, the reference's order
        fill[offset] += pricer.ifmap_fill(spec, rows, group.group_size, layout)
        offset += part[0].size
    return fill, gemm, drain, macs


def _conv_schedule(
    spec: ConvSpec,
    config: TPUConfig,
    pricer: BatchPricer,
    groups: Sequence[MultiTileGroup],
    group_size: int,
    layout: Layout,
) -> ScheduleArrays:
    """The channel-first schedule over ``groups``: blocks x groups x K x N."""
    global _CONSTRUCTION_COUNT
    _CONSTRUCTION_COUNT += 1
    rows_sequence = _block_rows(
        spec.lowered_rows(), ifmap_rows_per_block(spec, config, group_size)
    )
    templates = {
        rows: _conv_template(spec, rows, groups, pricer, layout)
        for rows in set(rows_sequence)
    }
    schedule = _assemble_blocks(templates, rows_sequence)
    # Only the schedule's very first tile exposes the systolic skew.
    schedule.gemm_cycles[0] = pricer.occupancy(
        rows_sequence[0],
        min(config.array_rows, groups[0].merged_k),
        min(config.array_cols, spec.c_out),
        first=True,
    )
    return schedule


def _gemm_schedule(
    shape: GemmShape, config: TPUConfig, pricer: BatchPricer
) -> ScheduleArrays:
    """The GEMM schedule: A-panel M-blocks x K-chunks x N-chunks."""
    global _CONSTRUCTION_COUNT
    _CONSTRUCTION_COUNT += 1
    k_first = min(config.array_rows, shape.k)
    # A-panel budget: one of two IFMap buffers, as in the conv schedule.
    budget = config.unified_sram_bytes // 4
    capacity_rows = max(1, budget // (k_first * config.compute_elem_bytes))
    pipeline_rows = max(MIN_BLOCK_ROWS, -(-shape.m // MIN_PIPELINE_BLOCKS))
    m_block = max(1, min(shape.m, capacity_rows, pipeline_rows))
    rows_sequence = _block_rows(shape.m, m_block)
    templates = {
        rows: pricer.gemm_grid(rows, shape.k, shape.n)
        for rows in set(rows_sequence)
    }
    schedule = _assemble_blocks(templates, rows_sequence)
    schedule.gemm_cycles[0] = pricer.occupancy(
        rows_sequence[0], k_first, min(config.array_cols, shape.n), first=True
    )
    return schedule


def _count_construction() -> None:
    if trace.enabled():
        trace.counter("schedule.constructions", 1, cat="schedule")


def conv_schedule_arrays_from_groups(
    spec: ConvSpec,
    config: TPUConfig,
    engine: FillEngine,
    groups: Sequence[MultiTileGroup],
    group_size: int,
    layout: Layout = Layout.NHWC,
) -> ScheduleArrays:
    """Array schedule for a channel-first conv over explicit tile groups.

    Mirrors the item builder's loop nest — blocks x groups x K-chunks x
    N-chunks — as a batch of one with a fresh :class:`BatchPricer`.
    """
    _count_construction()
    return _conv_schedule(
        spec, config, BatchPricer(config, engine), groups, group_size, layout
    )


def channel_first_schedule_arrays(
    spec: ConvSpec,
    config: TPUConfig,
    engine: Optional[FillEngine] = None,
    group_size: Optional[int] = None,
    layout: Layout = Layout.NHWC,
) -> ScheduleArrays:
    """Vectorized twin of :func:`repro.systolic.scheduler.channel_first_schedule`."""
    engine = engine if engine is not None else FillEngine(config)
    if group_size is None:
        group_size = tpu_multi_tile_policy(spec, config.array_rows)
    groups = plan_multi_tile(spec, group_size, row_aligned=True)
    return conv_schedule_arrays_from_groups(
        spec, config, engine, groups, group_size, layout=layout
    )


def gemm_schedule_arrays(
    shape: GemmShape, config: TPUConfig, engine: Optional[FillEngine] = None
) -> ScheduleArrays:
    """Vectorized twin of :func:`repro.systolic.scheduler.gemm_schedule`."""
    _count_construction()
    engine = engine if engine is not None else FillEngine(config)
    return _gemm_schedule(shape, config, BatchPricer(config, engine))
