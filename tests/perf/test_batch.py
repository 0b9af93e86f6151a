"""Bit-exactness gate for the cross-layer batched schedule engine.

A single layer's schedule is a batch of one with a fresh pricer, so the
builder checks here prove that sharing one
:class:`~repro.perf.schedule_arrays.BatchPricer` across many jobs changes
no bit.  The batched executor (:mod:`repro.perf.batch`) must reproduce the
one-schedule executor — and hence the per-item reference scheduler — to
the last float bit, over the same fuzz surfaces the executor-equivalence
suite uses plus the audit corpus.  The cache accounting (hits / canonical
hits / misses / entries) must also be indistinguishable from running the
layers one at a time.
"""

import dataclasses
import pathlib

import numpy as np
import pytest

from repro.core.conv_spec import ConvSpec
from repro.perf import batch as perf_batch
from repro.perf import schedule_arrays as perf_schedules
from repro.perf.cache import SIM_CACHE, clear_cache, set_cache_enabled
from repro.systolic.config import TPU_V2
from repro.systolic.simulator import TPUSim

from .test_executor_equivalence import (
    CONFIGS,
    assert_results_equal,
    random_conv_specs,
    random_gemm_shapes,
)

CORPUS_DIR = pathlib.Path(__file__).resolve().parent.parent / "audit" / "corpus"


def corpus_specs():
    from repro.audit.fuzz import load_corpus, spec_from_dict

    return [spec_from_dict(entry["spec"]) for entry in load_corpus(CORPUS_DIR)]


@pytest.fixture
def pristine_cache():
    clear_cache()
    yield
    set_cache_enabled(True)
    clear_cache()


# --------------------------------------------------------------- schedules
@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_conv_batch_builder_bit_identical(config):
    from repro.core.tiling import tpu_multi_tile_policy

    specs = random_conv_specs(20)
    jobs = [
        (spec, tpu_multi_tile_policy(spec, config.array_rows)) for spec in specs
    ]
    batched = perf_batch.conv_schedule_batch(jobs, config)
    for (spec, group), schedule in zip(jobs, batched):
        reference = perf_schedules.channel_first_schedule_arrays(
            spec, config, group_size=group
        )
        assert np.array_equal(schedule.gemm_cycles, reference.gemm_cycles)
        assert np.array_equal(schedule.fill_cycles, reference.fill_cycles)
        assert np.array_equal(schedule.drain_cycles, reference.drain_cycles)
        assert np.array_equal(schedule.macs, reference.macs)


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_gemm_batch_builder_bit_identical(config):
    shapes = random_gemm_shapes(20)
    batched = perf_batch.gemm_schedule_batch(shapes, config)
    for shape, schedule in zip(shapes, batched):
        reference = perf_schedules.gemm_schedule_arrays(shape, config)
        assert np.array_equal(schedule.gemm_cycles, reference.gemm_cycles)
        assert np.array_equal(schedule.fill_cycles, reference.fill_cycles)
        assert np.array_equal(schedule.drain_cycles, reference.drain_cycles)
        assert np.array_equal(schedule.macs, reference.macs)


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_batched_executor_bit_identical(config):
    schedules = [
        perf_schedules.channel_first_schedule_arrays(spec, config)
        for spec in random_conv_specs(15, seed=77)
    ]
    batched = perf_batch.execute_schedule_batch(schedules)
    for schedule, result in zip(schedules, batched):
        assert_results_equal(result, perf_schedules.execute_schedule_arrays(schedule))


def test_batched_executor_handles_empty_and_single_schedules():
    spec = random_conv_specs(1, seed=5)[0]
    one = perf_schedules.channel_first_schedule_arrays(spec, TPU_V2)
    empty = dataclasses.replace(
        one,
        gemm_cycles=one.gemm_cycles[:0],
        fill_cycles=one.fill_cycles[:0],
        drain_cycles=one.drain_cycles[:0],
        macs=one.macs[:0],
    )
    results = perf_batch.execute_schedule_batch([empty, one, empty])
    assert results[0].total_cycles == 0.0
    assert results[0].items == 0
    assert_results_equal(results[1], perf_schedules.execute_schedule_arrays(one))
    assert perf_batch.execute_schedule_batch([]) == []


def test_batched_executor_raggedness_fallback_is_bit_identical(monkeypatch):
    """Past the padded-size guard the executor degrades to per-job execution
    — results must not change."""
    schedules = [
        perf_schedules.channel_first_schedule_arrays(spec, TPU_V2)
        for spec in random_conv_specs(6, seed=13)
    ]
    monkeypatch.setattr(perf_batch, "_MIN_BATCHED_JOBS", 1)
    dense = perf_batch.execute_schedule_batch(schedules)
    monkeypatch.setattr(perf_batch, "_MAX_PADDED_ELEMENTS", 1)
    assert perf_batch.execute_schedule_batch(schedules) == dense


@pytest.mark.parametrize("jobs", [1, 2, perf_batch._MIN_BATCHED_JOBS - 1])
def test_small_batches_match_the_flat_batch(monkeypatch, jobs):
    """Below the crossover batches run one schedule at a time; the flat
    batch, forced on the same schedules (with empties around them), must
    give the same results."""
    schedules = [
        perf_schedules.channel_first_schedule_arrays(spec, TPU_V2)
        for spec in random_conv_specs(jobs, seed=21)
    ]
    empty = dataclasses.replace(
        schedules[0],
        gemm_cycles=schedules[0].gemm_cycles[:0],
        fill_cycles=schedules[0].fill_cycles[:0],
        drain_cycles=schedules[0].drain_cycles[:0],
        macs=schedules[0].macs[:0],
    )
    batch = [empty] + schedules + [empty]
    small = perf_batch.execute_schedule_batch(batch)
    monkeypatch.setattr(perf_batch, "_MIN_BATCHED_JOBS", 1)
    flat = perf_batch.execute_schedule_batch(batch)
    assert small == flat
    for schedule, result in zip(schedules, small[1:-1]):
        assert_results_equal(result, perf_schedules.execute_schedule_arrays(schedule))
    assert small[0].items == small[-1].items == 0


def test_schedules_own_writable_arrays():
    """A built schedule never aliases a pricer's read-only cached grids,
    not even a one-block GEMM whose arrays are one grid each."""
    from repro.core.conv_spec import GemmShape

    shape = GemmShape(m=8, n=300, k=200)
    spec = random_conv_specs(1, seed=5)[0]
    for schedule in (
        perf_schedules.gemm_schedule_arrays(shape, TPU_V2),
        perf_batch.gemm_schedule_batch([shape, shape], TPU_V2)[1],
        perf_schedules.channel_first_schedule_arrays(spec, TPU_V2),
    ):
        for array in (
            schedule.gemm_cycles,
            schedule.fill_cycles,
            schedule.drain_cycles,
            schedule.macs,
        ):
            assert array.flags.writeable


def test_segmented_recurrence_matches_per_job_recurrence():
    rng = np.random.default_rng(11)
    for _ in range(40):
        jobs = int(rng.integers(1, 8))
        lengths = [int(rng.integers(1, 120)) for _ in range(jobs)]
        starts = np.cumsum([0] + lengths[:-1])
        s_parts, a_parts = [], []
        for n in lengths:
            s_parts.append(np.cumsum(rng.exponential(10.0, size=n)) * rng.choice([0.5, 1.0, 2.0]))
            a_parts.append(rng.exponential(15.0, size=n))
        s = np.concatenate(s_parts)
        a = np.concatenate(a_parts)
        out = perf_schedules.pipeline_free_times_segmented(s, a, starts)
        expected = np.concatenate(
            [
                perf_schedules.pipeline_free_times_segmented(sp, ap, [0])
                for sp, ap in zip(s_parts, a_parts)
            ]
        )
        assert np.array_equal(out, expected)


# ----------------------------------------------------------- simulator path
def _per_layer(specs, config=TPU_V2):
    sim = TPUSim(config)
    return [sim.simulate_conv(spec) for spec in specs]


def _batched(specs, config=TPU_V2):
    return TPUSim(config).simulate_conv_batch(specs)


@pytest.mark.parametrize("config", CONFIGS, ids=["v2", "no-dbuf", "64x64"])
def test_simulate_conv_batch_bit_identical_over_fuzz_specs(pristine_cache, config):
    specs = random_conv_specs(15, seed=2026)
    per_layer = _per_layer(specs, config)
    clear_cache()
    assert _batched(specs, config) == per_layer


def test_simulate_conv_batch_bit_identical_over_audit_corpus(pristine_cache):
    specs = corpus_specs()
    assert specs, "audit corpus is empty — replay gate lost its inputs"
    per_layer = _per_layer(specs)
    clear_cache()
    assert _batched(specs) == per_layer


def test_simulate_conv_batch_under_full_audit(pristine_cache):
    """--audit full must hold (no violations) and not perturb results."""
    from repro.audit import auditor as audit_mod

    specs = random_conv_specs(8, seed=31)
    per_layer = _per_layer(specs)
    clear_cache()
    audit_mod.configure("full")
    audit_mod.reset()
    try:
        batched = _batched(specs)
        snapshot = audit_mod.snapshot()
    finally:
        audit_mod.configure("off")
    assert batched == per_layer
    assert snapshot["violations"] == 0
    assert snapshot["checks"] > 0


def test_simulate_gemm_batch_bit_identical(pristine_cache):
    shapes = random_gemm_shapes(15, seed=8)
    sim = TPUSim()
    per_call = [sim.simulate_gemm(shape) for shape in shapes]
    clear_cache()
    assert TPUSim().simulate_gemm_batch(shapes) == per_call


def test_simulate_network_fast_path_matches_per_layer(pristine_cache):
    from repro.workloads.networks import resnet50

    layers = resnet50(batch=8)
    per_layer = _per_layer(layers)
    clear_cache()
    network = TPUSim().simulate_network("resnet50", layers)
    assert list(network.layers) == per_layer


# ------------------------------------------------------------- accounting
def test_batch_cache_accounting_matches_per_layer(pristine_cache):
    """Duplicates, canonical twins and warm re-probes must land in the same
    hit/miss/entry buckets as the one-at-a-time path."""
    base = ConvSpec(n=8, c_in=64, h_in=14, w_in=28, c_out=64,
                    h_filter=3, w_filter=3, stride=2, padding=1, name="x")
    transposed = dataclasses.replace(base, h_in=28, w_in=14, name="xt")
    dup = dataclasses.replace(base, name="xdup")
    batch = [base, transposed, dup, base]

    per_layer = _per_layer(batch)
    per_stats = SIM_CACHE.stats
    clear_cache()
    batched = _batched(batch)
    batch_stats = SIM_CACHE.stats

    assert batched == per_layer
    assert batch_stats == per_stats
    assert batch_stats.canonical_hits > 0

    # Warm re-probes behave identically after either fill pattern.
    assert TPUSim().simulate_conv(transposed) == per_layer[1]
    after = SIM_CACHE.stats
    assert after.hits == batch_stats.hits + 1
    assert after.canonical_hits == batch_stats.canonical_hits


def test_batch_with_cache_disabled_matches(pristine_cache):
    specs = random_conv_specs(6, seed=55)
    per_layer = _per_layer(specs)
    clear_cache()
    set_cache_enabled(False)
    try:
        assert _batched(specs) == per_layer
    finally:
        set_cache_enabled(True)


def test_cross_namespace_canonical_sharing(pristine_cache):
    """simulate_conv and the residency scheduler's no-residency arm publish
    the same canonical key, so the second namespace probes into a hit."""
    from repro.systolic.network_scheduler import simulate_network_resident

    spec = ConvSpec(n=8, c_in=256, h_in=7, w_in=7, c_out=256,
                    h_filter=3, w_filter=3, stride=1, padding=1, name="tail")
    sim = TPUSim()
    conv = sim.simulate_conv(spec)
    before = SIM_CACHE.stats
    # A one-layer chain has no resident edges: both flags false.
    network = simulate_network_resident("one", [spec])
    after = SIM_CACHE.stats
    assert after.canonical_hits == before.canonical_hits + 1
    assert after.misses == before.misses
    resident = network.layers[0]
    assert resident.cycles == conv.cycles
    assert resident.compute_cycles == conv.compute_cycles
    assert resident.dma_cycles == conv.dma_cycles
    assert resident.exposed_dma_cycles == conv.exposed_dma_cycles
