"""The sweep worker: claim → evaluate → journal, forever, crash-safely.

A worker is a loop over the on-disk queue and nothing else — it shares no
memory with the coordinator, so the coordinator respawning it (or chaos
killing it) loses at most one in-flight evaluation, which the lease
protocol hands to a survivor after the TTL.

Per task, in :func:`drain_pass`: claim the lease (skipping tasks someone
else holds), fire any injected chaos fault, evaluate the (design point,
workload) pair, append the deterministic result to the task's shard
journal, release the lease.  Failures append to ``failures.jsonl`` and
move on — deciding whether a task is *poison* is the coordinator's job,
not the worker's.  The coordinator drains with the same pass when it has
no pool (``--jobs 1``) or its pool degraded.

Liveness is reported two ways: an atomic per-worker heartbeat file after
every task (read by the coordinator's monitor and ``repro top``), and a
flight-recorder dump whenever this worker *steals* a lease — the moment
that proves another worker died mid-task and post-mortem context is worth
keeping.
"""

from __future__ import annotations

import pathlib
import time
from typing import Any, Dict, Optional, Tuple

from ..errors import classify_error
from ..obs import log as obs_log
from ..obs.flight import configure_recorder, maybe_dump
from .chaos import ChaosPlan
from .evaluate import evaluate_task
from .queue import WorkQueue
from .space import DesignPoint

__all__ = ["drain_pass", "run_worker", "worker_entry"]

#: Idle poll interval — how often a worker with nothing claimable re-reads
#: the task journal (the coordinator appends new rounds to it).
POLL_S = 0.2


def run_worker(
    root,
    worker_id: str,
    lease_ttl_s: float,
    chaos: Optional[ChaosPlan] = None,
    store_dir: Optional[str] = None,
    poll_s: float = POLL_S,
    max_failures: Optional[int] = None,
) -> int:
    """The worker main loop; returns the number of tasks completed.

    ``max_failures`` mirrors the coordinator's quarantine cap: a task
    already at the cap is *skipped*, not retried — it is awaiting the
    coordinator's poison verdict, and hammering it would only inflate the
    failure journal while the verdict is pending.
    """
    queue = WorkQueue(root)
    queue.ensure_dirs()
    if store_dir:
        from ..store import attach

        attach(store_dir)
    completed = 0
    queue.heartbeat(worker_id, state="starting", done=completed)
    while not queue.stop_requested():
        claimed, completed = drain_pass(
            queue, worker_id, lease_ttl_s, chaos, max_failures, completed
        )
        if not claimed:  # nothing pending, or all of it leased elsewhere
            queue.heartbeat(worker_id, state="idle", done=completed)
            time.sleep(poll_s)
    queue.heartbeat(worker_id, state="stopped", done=completed)
    return completed


def drain_pass(
    queue: WorkQueue,
    owner: str,
    lease_ttl_s: float,
    chaos: Optional[ChaosPlan] = None,
    max_failures: Optional[int] = None,
    done: int = 0,
) -> Tuple[bool, int]:
    """One claim → chaos → evaluate → journal → release pass over every
    pending task, as ``owner``.

    The one task body of the sweep: :func:`run_worker` loops it, and the
    coordinator drains with it in serial mode or after its pool degraded
    (process-killing chaos is fenced off there by ``coordinator_pid``).
    Returns ``(claimed_any, done)``, ``done`` counting completed tasks on
    from the value passed in.
    """
    tasks = queue.load_tasks()
    results = queue.load_results()
    parked = _quarantined_ids(queue.root)
    claimed_any = False
    for task_id in sorted(tasks):
        if task_id in results or task_id in parked:
            continue
        if queue.stop_requested():
            break
        attempt = len(queue.load_failures().get(task_id, [])) + 1
        if max_failures is not None and attempt > max_failures:
            continue  # awaiting the coordinator's poison verdict
        lease = queue.claim(task_id, owner, lease_ttl_s)
        if lease is None:
            continue  # someone else holds it
        claimed_any = True
        if lease.generation > 1:
            # This owner just reclaimed a dead/hung owner's task — keep the
            # post-mortem context around.
            maybe_dump(
                "lease-reclaim",
                {"task": task_id, "owner": owner, "generation": lease.generation},
            )
        queue.heartbeat(owner, state="running", task=task_id, done=done)
        try:
            if chaos is not None:
                chaos.apply(queue, task_id, attempt, lease.generation)
            queue.complete(task_id, _evaluate(tasks[task_id].payload))
            done += 1
        except Exception as err:  # journal and move on — never die
            kind = classify_error(err).__name__
            queue.record_failure(
                task_id, owner, attempt, kind=kind, error=str(err)
            )
            obs_log.warning(
                "dse.task.failed",
                task=task_id, attempt=attempt, kind=kind, error=str(err),
            )
            maybe_dump(
                "dse-task-failure",
                {"task": task_id, "attempt": attempt, "kind": kind},
            )
        finally:
            queue.release(task_id, owner)
    return claimed_any, done


def _evaluate(payload: Dict[str, Any]) -> Dict[str, Any]:
    point = DesignPoint.from_doc(payload["point"])
    return evaluate_task(
        point, str(payload["workload"]), quick=bool(payload.get("quick"))
    )


def _quarantined_ids(root: pathlib.Path) -> set:
    from ..resilience.quarantine import QuarantineFile

    return set(QuarantineFile(root / "quarantine.jsonl").load())


def worker_entry(
    root: str,
    worker_id: str,
    lease_ttl_s: float,
    chaos_doc: Optional[Dict[str, Any]] = None,
    store_dir: Optional[str] = None,
    max_failures: Optional[int] = None,
) -> None:
    """Subprocess entry point (multiprocessing target)."""
    configure_recorder(run_dir=str(root), install_signal=False)
    chaos = ChaosPlan.from_doc(chaos_doc) if chaos_doc else None
    try:
        run_worker(
            root, worker_id, lease_ttl_s, chaos=chaos, store_dir=store_dir,
            max_failures=max_failures,
        )
    except KeyboardInterrupt:
        pass
