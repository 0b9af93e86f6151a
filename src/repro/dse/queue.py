"""The sharded on-disk work queue: tasks, leases, results, failures.

Everything lives under one sweep directory and every mutation is either an
atomic replace or an fsync'd single-line append, so any process — worker
or coordinator — can be kill -9'd at any instruction and the queue state
stays readable:

- ``tasks.jsonl``            — task definitions, appended by the
  coordinator per refinement round; loaded with dedup by task id, so
  re-enqueueing on ``--resume`` is idempotent;
- ``leases/<task>.lease``    — one lease file per in-flight task
  (:mod:`repro.resilience.lease`): fsync'd, expiring, generation-fenced;
- ``results/shard-XX.jsonl`` — completed task payloads, sharded by the
  first byte of the task id's SHA-256 so four workers appending
  concurrently rarely contend on one file; loaded last-write-wins (a
  lease-steal race writes *identical* bytes twice — results are
  deterministic functions of the task);
- ``failures.jsonl``         — one record per failed attempt (the
  coordinator's quarantine evidence);
- ``workers/<id>.json``      — per-worker heartbeats (atomic replace),
  read by the coordinator's liveness monitor and by ``repro top``;
- ``STOP``                   — the shutdown sentinel workers poll.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
import time
from typing import Any, Dict, List, Mapping, Optional

from ..obs import log as obs_log
from ..resilience.atomic import atomic_write_text, crash_safe_append, read_journal
from ..resilience.lease import LeaseRecord, read_lease, release, renew, try_acquire

__all__ = ["TASK_SCHEMA", "Task", "WorkQueue", "task_shard"]

TASK_SCHEMA = 1

#: Result shards: first two hex digits of SHA-256(task id) — up to 256
#: append files, so concurrent workers almost never serialize on one.
_SHARD_HEX_DIGITS = 2


def task_shard(task_id: str) -> str:
    digest = hashlib.sha256(task_id.encode("utf-8")).hexdigest()
    return digest[:_SHARD_HEX_DIGITS]


def _lease_name(task_id: str) -> str:
    # Task ids are "<point_id>/<workload>"; only "/" is filesystem-hostile.
    return task_id.replace("/", "+") + ".lease"


@dataclasses.dataclass(frozen=True)
class Task:
    """One unit of work: evaluate one design point on one workload."""

    task_id: str  # "<point_id>/<workload>"
    payload: Dict[str, Any]  # {"point": {...}, "workload": str, "quick": bool}

    def to_json(self) -> str:
        return json.dumps(
            {
                "schema": TASK_SCHEMA,
                "task_id": self.task_id,
                "payload": self.payload,
            },
            sort_keys=True,
        )

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "Task":
        return cls(task_id=str(doc["task_id"]), payload=dict(doc["payload"]))


class WorkQueue:
    """All queue state under one sweep directory (see module docstring)."""

    def __init__(self, root) -> None:
        self.root = pathlib.Path(root)
        self.tasks_path = self.root / "tasks.jsonl"
        self.results_dir = self.root / "results"
        self.leases_dir = self.root / "leases"
        self.workers_dir = self.root / "workers"
        self.failures_path = self.root / "failures.jsonl"
        self.stop_path = self.root / "STOP"

    def ensure_dirs(self) -> None:
        for directory in (
            self.root, self.results_dir, self.leases_dir, self.workers_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # ---------------------------------------------------------------- tasks
    def add_task(self, task: Task) -> None:
        crash_safe_append(self.tasks_path, task.to_json(), fsync=True)

    def load_tasks(self) -> Dict[str, Task]:
        """``{task_id: Task}`` — dedup by id (re-enqueue is idempotent)."""
        tasks, _ = self._read_jsonl(self.tasks_path, Task.from_doc)
        return {task.task_id: task for task in tasks}

    # --------------------------------------------------------------- leases
    def lease_path(self, task_id: str) -> pathlib.Path:
        return self.leases_dir / _lease_name(task_id)

    def claim(
        self, task_id: str, owner: str, ttl_s: float
    ) -> Optional[LeaseRecord]:
        lease = try_acquire(self.lease_path(task_id), owner, ttl_s)
        if lease is not None and lease.generation > 1:
            obs_log.warning(
                "dse.lease.steal",
                task=task_id, owner=owner, generation=lease.generation,
            )
        return lease

    def renew(self, task_id: str, owner: str, ttl_s: float):
        return renew(self.lease_path(task_id), owner, ttl_s)

    def release(self, task_id: str, owner: str) -> bool:
        return release(self.lease_path(task_id), owner)

    def lease_of(self, task_id: str) -> Optional[LeaseRecord]:
        return read_lease(self.lease_path(task_id))

    # -------------------------------------------------------------- results
    def shard_path(self, task_id: str) -> pathlib.Path:
        return self.results_dir / f"shard-{task_shard(task_id)}.jsonl"

    def complete(self, task_id: str, payload: Mapping[str, Any]) -> None:
        """Append the task's deterministic result.  Safe to call twice for
        the same task (steal races): both appends carry identical payload
        bytes and the loader last-write-wins on task id."""
        record = {
            "schema": TASK_SCHEMA,
            "task_id": task_id,
            "result": dict(payload),
        }
        crash_safe_append(
            self.shard_path(task_id), json.dumps(record, sort_keys=True),
            fsync=True,
        )

    def load_results(self) -> Dict[str, Dict[str, Any]]:
        """``{task_id: result payload}`` across every shard, last write
        wins; torn/corrupt lines (a crash mid-append, or injected
        corrupt-store faults) are skipped with a warning."""
        results: Dict[str, Dict[str, Any]] = {}
        if not self.results_dir.exists():
            return results
        for shard in sorted(self.results_dir.glob("shard-*.jsonl")):
            entries, _ = self._read_jsonl(
                shard, lambda doc: (str(doc["task_id"]), dict(doc["result"]))
            )
            results.update(entries)
        return results

    # ------------------------------------------------------------- failures
    def record_failure(
        self,
        task_id: str,
        owner: str,
        attempt: int,
        kind: str,
        error: str,
    ) -> None:
        record = {
            "schema": TASK_SCHEMA,
            "task_id": task_id,
            "owner": owner,
            "attempt": attempt,
            "kind": kind,
            "error": error,
        }
        crash_safe_append(
            self.failures_path, json.dumps(record, sort_keys=True), fsync=True
        )

    def load_failures(self) -> Dict[str, List[Dict[str, Any]]]:
        failures: Dict[str, List[Dict[str, Any]]] = {}
        docs, _ = self._read_jsonl(
            self.failures_path, lambda doc: (str(doc["task_id"]), dict(doc))
        )
        for task_id, doc in docs:
            failures.setdefault(task_id, []).append(doc)
        return failures

    # ----------------------------------------------------------- heartbeats
    def heartbeat(
        self, worker_id: str, **fields: Any
    ) -> None:
        doc = {"worker": worker_id, "pid": os.getpid(), "time": time.time()}
        doc.update(fields)
        atomic_write_text(
            self.workers_dir / f"{worker_id}.json",
            json.dumps(doc, sort_keys=True),
        )

    def load_heartbeats(self) -> Dict[str, Dict[str, Any]]:
        beats: Dict[str, Dict[str, Any]] = {}
        if not self.workers_dir.exists():
            return beats
        for path in sorted(self.workers_dir.glob("*.json")):
            try:
                doc = json.loads(path.read_text())
            except (OSError, ValueError):
                continue  # torn write or vanished file — worker will rewrite
            beats[str(doc.get("worker", path.stem))] = doc
        return beats

    # ----------------------------------------------------------------- stop
    def request_stop(self) -> None:
        atomic_write_text(self.stop_path, "stop\n")

    def stop_requested(self) -> bool:
        return self.stop_path.exists()

    def clear_stop(self) -> None:
        try:
            os.unlink(self.stop_path)
        except OSError:
            pass

    # -------------------------------------------------------------- helpers
    @staticmethod
    def _read_jsonl(path: pathlib.Path, parse):
        return read_journal(path, TASK_SCHEMA, "dse.queue.corrupt_record", parse)
