"""``dse-sweep``: the default design-space sweep on every core.

Each sweep is a fresh ``python -m repro dse sweep --out DIR --jobs
<nproc>`` process on the default ``quick`` preset.  Its ``frontier.json``
must hash to :data:`FRONTIER_SHA256`, the digest of a ``--jobs 1`` sweep
of the same preset, and its ``metrics.prom`` must show every task done
with no failure and nothing quarantined.  The seed is not used: the
sweep's inputs are fixed by the preset.
"""

from __future__ import annotations

import hashlib

import passes
from common import (
    fresh_dir, interpreter_import_s, log, nproc, program_cmd, prom_totals, run_program,
)

FRONTIER_SHA256 = "d8fbda38520b7d602d2144f88d178f8cd3ba885f137187e8159716f2c9025d3a"


def _sweep(spans_dir=None):
    """One sweep: ``(ok, wall seconds, peak RSS MB)``."""
    out = fresh_dir("dse-out")
    code, wall, rss, err = run_program(program_cmd(
        ["repro", "dse", "sweep", "--out", str(out), "--jobs", str(nproc())], spans_dir
    ))
    ok = code == 0
    if ok:
        digest = hashlib.sha256((out / "frontier.json").read_bytes()).hexdigest()
        prom = prom_totals((out / "metrics.prom").read_text())
        ok = (
            digest == FRONTIER_SHA256
            and prom["repro_dse_failures_total"] == 0
            and prom["repro_dse_quarantined_total"] == 0
            and prom["repro_dse_results_total"] == prom["repro_dse_tasks_total"]
        )
    if not ok:
        log(f"dse sweep failed (exit {code}): {err[-500:]}")
    return ok, wall, rss


def run(seed: int, seconds: float, trace: bool):
    return passes.run(
        _sweep, seconds, trace,
        lambda: interpreter_import_s(["repro.__main__", "repro.dse.engine"]),
    )
