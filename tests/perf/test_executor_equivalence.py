"""Bit-exactness gate: vectorized schedules == per-item reference.

The contract (DESIGN.md, "Performance architecture") is equality to the
last float bit — the exported results are compared textually at full
precision, so `pytest.approx` would not be good enough.  Every comparison
here is `==` / `np.array_equal`.
"""

import random

import numpy as np
import pytest

from repro.core.conv_spec import ConvSpec, GemmShape
from repro.core.layouts import Layout
from repro.perf.schedule_arrays import (
    ScheduleArrays,
    channel_first_schedule_arrays,
    conv_schedule_arrays_from_groups,
    execute_multi_array_schedule,
    execute_schedule_arrays,
    gemm_schedule_arrays,
    pipeline_free_times_segmented,
)
from repro.systolic.config import TPU_V2, TPUConfig
from repro.systolic.dual_mxu import _execute_multi_array
from repro.systolic.scheduler import (
    channel_first_schedule,
    execute_schedule,
    gemm_schedule,
)

import dataclasses

CONFIGS = [
    TPU_V2,
    dataclasses.replace(TPU_V2, weight_double_buffer=False),
    dataclasses.replace(TPU_V2, array_rows=64, array_cols=64, num_vector_memories=64),
]


def random_conv_specs(count: int, seed: int = 1234):
    """Valid random ConvSpecs spanning the shapes the paper sweeps."""
    rng = random.Random(seed)
    specs = []
    while len(specs) < count:
        h_in = rng.choice([7, 14, 27, 28, 56])
        h_filter = rng.choice([1, 3, 5, 7])
        stride = rng.choice([1, 1, 2])
        dilation = rng.choice([1, 1, 2])
        padding = rng.choice([0, 1, h_filter // 2])
        effective = dilation * (h_filter - 1) + 1
        if h_in + 2 * padding < effective:
            continue
        specs.append(
            ConvSpec(
                n=rng.choice([1, 2, 4]),
                c_in=rng.choice([3, 16, 64, 128, 256]),
                h_in=h_in,
                w_in=h_in,
                c_out=rng.choice([16, 64, 128, 256]),
                h_filter=h_filter,
                w_filter=h_filter,
                stride=stride,
                padding=padding,
                dilation=dilation,
            )
        )
    return specs


def random_gemm_shapes(count: int, seed: int = 99):
    rng = random.Random(seed)
    return [
        GemmShape(
            m=rng.randrange(1, 4000),
            n=rng.randrange(1, 600),
            k=rng.randrange(1, 600),
        )
        for _ in range(count)
    ]


def assert_arrays_equal(vectorized: ScheduleArrays, reference: ScheduleArrays):
    assert np.array_equal(vectorized.gemm_cycles, reference.gemm_cycles)
    assert np.array_equal(vectorized.fill_cycles, reference.fill_cycles)
    assert np.array_equal(vectorized.drain_cycles, reference.drain_cycles)
    assert np.array_equal(vectorized.macs, reference.macs)


def assert_results_equal(vectorized, reference):
    assert vectorized.total_cycles == reference.total_cycles
    assert vectorized.compute_cycles == reference.compute_cycles
    assert vectorized.dma_cycles == reference.dma_cycles
    assert vectorized.exposed_dma_cycles == reference.exposed_dma_cycles
    assert vectorized.items == reference.items
    assert vectorized.macs == reference.macs


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_conv_schedules_bit_identical(config):
    for spec in random_conv_specs(25):
        for layout in (Layout.NHWC, Layout.NCHW):
            items = channel_first_schedule(spec, config, layout=layout)
            schedule = channel_first_schedule_arrays(spec, config, layout=layout)
            assert_arrays_equal(schedule, ScheduleArrays.from_work_items(items))
            assert_results_equal(
                execute_schedule_arrays(schedule), execute_schedule(items)
            )


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_gemm_schedules_bit_identical(config):
    for shape in random_gemm_shapes(25):
        items = gemm_schedule(shape, config)
        schedule = gemm_schedule_arrays(shape, config)
        assert_arrays_equal(schedule, ScheduleArrays.from_work_items(items))
        assert_results_equal(execute_schedule_arrays(schedule), execute_schedule(items))


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_sparse_schedules_bit_identical(config):
    """Masked-group arrays == the sparse per-item reference, bit for bit."""
    from repro.core.sparsity import PositionMask
    from repro.core.tiling import tpu_multi_tile_policy
    from repro.systolic.dma import FillEngine
    from repro.systolic.sparse_schedule import (
        _masked_groups,
        sparse_channel_first_schedule,
    )

    rng = random.Random(42)
    for spec in random_conv_specs(20, seed=4242):
        keep = rng.randint(1, spec.positions)
        mask = PositionMask(spec, tuple(sorted(rng.sample(range(spec.positions), keep))))
        group_size = tpu_multi_tile_policy(spec, config.array_rows)
        items = sparse_channel_first_schedule(spec, mask, config)
        schedule = conv_schedule_arrays_from_groups(
            spec, config, FillEngine(config), _masked_groups(spec, mask, group_size), group_size
        )
        assert_arrays_equal(schedule, ScheduleArrays.from_work_items(items))
        assert_results_equal(execute_schedule_arrays(schedule), execute_schedule(items))
        assert execute_schedule(schedule.to_work_items()) == execute_schedule(items)


@pytest.mark.parametrize("arrays", [2, 4])
def test_multi_array_executor_bit_identical(arrays):
    for spec in random_conv_specs(8, seed=7):
        items = channel_first_schedule(spec, TPU_V2)
        schedule = channel_first_schedule_arrays(spec, TPU_V2)
        assert execute_multi_array_schedule(schedule, arrays) == _execute_multi_array(
            items, arrays
        )


def test_pipeline_free_times_matches_fold():
    rng = np.random.default_rng(5)
    for _ in range(30):
        n = int(rng.integers(1, 400))
        # Mix of idle gaps (restarts) and back-to-back items.
        s = np.cumsum(rng.exponential(10.0, size=n)) * rng.choice([0.5, 1.0, 2.0])
        a = rng.exponential(15.0, size=n)
        out = pipeline_free_times_segmented(s, a, [0])
        prev = 0.0
        for i in range(n):
            prev = max(prev, float(s[i])) + float(a[i])
            assert out[i] == prev


def test_without_drains_matches_zeroed_reference():
    spec = random_conv_specs(1, seed=3)[0]
    items = channel_first_schedule(spec, TPU_V2)
    zeroed = [dataclasses.replace(i, drain_cycles=0.0) for i in items]
    schedule = channel_first_schedule_arrays(spec, TPU_V2).without_drains()
    assert_results_equal(execute_schedule_arrays(schedule), execute_schedule(zeroed))


# ---------------------------------------------------------------------------
# Differential tests: every path into TPUSim — cold cache, cache hit (via a
# renamed twin spec), memoization disabled, tracing enabled, and the per-item
# reference executor — must produce identical LayerResult numbers.
# ---------------------------------------------------------------------------


def assert_layer_matches_reference(layer, reference):
    assert layer.cycles == reference.total_cycles
    assert layer.compute_cycles == reference.compute_cycles
    assert layer.dma_cycles == reference.dma_cycles
    assert layer.exposed_dma_cycles == reference.exposed_dma_cycles


@pytest.fixture
def pristine_cache():
    from repro.perf.cache import clear_cache, set_cache_enabled

    clear_cache()
    yield
    set_cache_enabled(True)
    clear_cache()


def test_conv_simulator_paths_identical_over_fuzz_corpus(pristine_cache):
    from repro.perf.cache import clear_cache, set_cache_enabled
    from repro.systolic.simulator import TPUSim
    from repro.trace import tracer as trace

    sim = TPUSim()
    for spec in random_conv_specs(12, seed=2025):
        clear_cache()
        cold = sim.simulate_conv(spec)
        # A renamed twin shares the memo entry (spec_key drops the name) and
        # exercises the hit/relabel path with a distinct result object.
        twin_spec = dataclasses.replace(spec, name="twin")
        twin = sim.simulate_conv(twin_spec)
        assert twin.name == twin_spec.describe()  # re-labelled on the hit
        assert dataclasses.replace(twin, name=cold.name) == cold

        set_cache_enabled(False)
        uncached = sim.simulate_conv(spec)
        set_cache_enabled(True)
        assert uncached == cold

        trace.enable()
        try:
            set_cache_enabled(False)
            traced = sim.simulate_conv(spec)
            set_cache_enabled(True)
        finally:
            trace.disable()
            trace.get_tracer().clear()
        assert traced == cold

        reference = execute_schedule(channel_first_schedule(spec, sim.config))
        assert_layer_matches_reference(cold, reference)


def test_gemm_simulator_paths_identical_over_fuzz_corpus(pristine_cache):
    from repro.perf.cache import clear_cache, set_cache_enabled
    from repro.systolic.simulator import TPUSim

    sim = TPUSim()
    for shape in random_gemm_shapes(12, seed=41):
        clear_cache()
        cold = sim.simulate_gemm(shape)
        hit = sim.simulate_gemm(shape)
        assert hit == cold
        set_cache_enabled(False)
        uncached = sim.simulate_gemm(shape)
        set_cache_enabled(True)
        assert uncached == cold
        reference = execute_schedule(gemm_schedule(shape, sim.config))
        assert_layer_matches_reference(cold, reference)
