"""The experiment harness's run flags, declared once.

Kept apart from :mod:`repro.harness.runner` so that building the
``repro`` command line does not import every experiment module.
"""

from __future__ import annotations

import argparse

from ..obs import log as obs_log

__all__ = ["add_run_arguments"]


def add_run_arguments(parser: argparse.ArgumentParser) -> None:
    """Declare every run flag; each parser adds the positional ``ids``.

    The one declaration behind ``python -m repro.harness.runner`` and
    ``repro run`` / ``repro experiments``; both hand the parsed namespace to
    :func:`repro.harness.runner.run_from_args`.
    """
    parser.add_argument("--quick", action="store_true", help="reduced workloads")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for running experiments (default: serial)",
    )
    parser.add_argument(
        "--cache-stats",
        action="store_true",
        help="print per-run simulation-cache hit/miss statistics "
        "(aggregated across workers under --jobs)",
    )
    parser.add_argument(
        "--store",
        default=None,
        metavar="DIR",
        help="back the simulation cache with a persistent on-disk result "
        "store at DIR (content-addressed, shared across processes and "
        "runs; see repro.store). When REPRO_STORE_DIR is also set, the "
        "two must name the same directory — a conflict is a config error",
    )
    parser.add_argument(
        "--trace",
        nargs="?",
        const="trace.json",
        default=None,
        metavar="PATH",
        help="collect cycle-accounting traces; writes Chrome trace JSON to "
        "PATH (default trace.json) and prints a summary",
    )
    parser.add_argument(
        "--export-dir",
        default=None,
        help="also write <id>.json and per-table CSVs into this directory",
    )
    parser.add_argument(
        "--log-level",
        choices=sorted(obs_log.LEVELS, key=obs_log.LEVELS.get),
        default=obs_log.DEFAULT_LEVEL,
        help="stderr diagnostics threshold (default: warning — silent runs)",
    )
    parser.add_argument(
        "--log-file",
        default=None,
        metavar="PATH",
        help="append every structured event (debug and up) to PATH as JSONL",
    )
    parser.add_argument(
        "--quiet",
        action="store_true",
        help="suppress report rendering on stdout (artifacts still written)",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="profile each experiment (wall/CPU/tracemalloc) and print a "
        "hotspot table",
    )
    parser.add_argument(
        "--manifest",
        action="store_true",
        help="write results/<run_id>/manifest.json + metrics.prom even "
        "without --log-file/--profile",
    )
    parser.add_argument(
        "--results-dir",
        default="results",
        help="directory that receives <run_id>/ observability artifacts "
        "(default: results)",
    )
    parser.add_argument(
        "--checkpoint",
        action="store_true",
        help="journal each completed experiment to "
        "results/<run_id>/checkpoint.jsonl (crash-safe, fsync per record)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="RUN_ID",
        help="resume a checkpointed run: skip journaled experiments whose "
        "config fingerprint still matches, run the rest, keep journaling",
    )
    parser.add_argument(
        "--run-id",
        default=None,
        metavar="RUN_ID",
        help="pin the run id (default: generated); --resume implies it",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-experiment wall-clock limit under --jobs; a task over "
        "budget is killed and retried as a transient fault",
    )
    parser.add_argument(
        "--max-retries",
        type=int,
        default=None,
        metavar="N",
        help="retries beyond the first attempt for transient faults "
        "(worker crashes, timeouts; default: 2)",
    )
    parser.add_argument(
        "--inject-faults",
        default=None,
        metavar="SPEC",
        help="deterministic fault injection, e.g. "
        "'seed=7,crash@1,flaky@2:2,dram-drop=0.01' "
        "(see repro.resilience.faults.FaultPlan.parse)",
    )
    parser.add_argument(
        "--audit",
        choices=("off", "cheap", "full"),
        default="off",
        help="runtime invariant auditing: 'cheap' checks conservation laws "
        "in-line, 'full' adds per-layer cross-model differential checks; "
        "a violation raises AuditFault and fails the run (default: off)",
    )
    parser.add_argument(
        "--flight",
        action="store_true",
        help="keep a flight-recorder ring of recent spans/log events; "
        "dumped to results/<run_id>/flightrec-*.json on AuditFault, "
        "worker death/timeout, unhandled exceptions, or SIGUSR1",
    )
    parser.add_argument(
        "--status-file",
        default=None,
        metavar="PATH",
        help="mirror live sweep progress (queue depth, ETA, cache hit "
        "rates) to PATH for 'repro top --status-file PATH'",
    )
