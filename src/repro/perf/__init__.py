"""Performance layer: vectorized schedules + simulation memoization.

Two orthogonal accelerations for the whole evaluation harness, both with a
bit-exactness contract against the per-item reference paths:

- :mod:`repro.perf.schedule_arrays` — struct-of-arrays schedules
  (:class:`ScheduleArrays`): the one schedule builder (chunk grids priced
  through a :class:`BatchPricer`), the one pipeline solver
  (:func:`pipeline_free_times_segmented`) and the one-schedule executor;
  :mod:`repro.perf.batch` loops the same builder over a shared pricer and
  executes many schedules as one flat batch (below eight schedules, one at
  a time through the one-schedule executor, which is faster there);
- :mod:`repro.perf.cache` — a process-wide memo for simulation results,
  keyed by structural fingerprints of configs and problem specs.

See DESIGN.md ("Performance architecture") for the invariants.
"""

from .cache import (
    CacheStats,
    SIM_CACHE,
    SimulationCache,
    cache_stats,
    canonical_layout,
    canonical_spec,
    clear_cache,
    config_key,
    fingerprint,
    memoized_model,
    set_cache_enabled,
    spec_key,
)
# batch before schedule_arrays: batch imports schedule_arrays by name, and
# schedule_arrays pulls in repro.systolic, whose simulator imports batch back.
from .batch import (
    conv_schedule_batch,
    execute_schedule_batch,
    gemm_schedule_batch,
)
from .schedule_arrays import (
    BatchPricer,
    ScheduleArrays,
    channel_first_schedule_arrays,
    conv_schedule_arrays_from_groups,
    execute_multi_array_schedule,
    execute_schedule_arrays,
    gemm_schedule_arrays,
    pipeline_free_times_segmented,
    schedule_construction_count,
)

__all__ = [
    "CacheStats",
    "SIM_CACHE",
    "SimulationCache",
    "cache_stats",
    "canonical_layout",
    "canonical_spec",
    "clear_cache",
    "config_key",
    "fingerprint",
    "memoized_model",
    "set_cache_enabled",
    "spec_key",
    "ScheduleArrays",
    "channel_first_schedule_arrays",
    "conv_schedule_arrays_from_groups",
    "execute_multi_array_schedule",
    "execute_schedule_arrays",
    "gemm_schedule_arrays",
    "pipeline_free_times_segmented",
    "schedule_construction_count",
    "BatchPricer",
    "conv_schedule_batch",
    "execute_schedule_batch",
    "gemm_schedule_batch",
]
