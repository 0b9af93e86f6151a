"""Crash-safe filesystem primitives: atomic replace + durable appends.

Every ``results/`` artifact this harness writes must survive a ``kill -9``
mid-write without leaving a torn file behind:

- :func:`atomic_write_text` / :func:`atomic_write_bytes` — write to a
  temporary file in the *same directory* (same filesystem, so the final
  rename is atomic), fsync it, then ``os.replace`` onto the target.  A
  reader therefore only ever sees the old complete file or the new
  complete file, never a prefix.
- :func:`crash_safe_append` — append one complete line with an
  ``O_APPEND`` write followed by flush (+ optional fsync).  Appends of a
  single small line are effectively atomic on POSIX, so a journal either
  gains the whole record or none of it; a torn tail can only be the very
  last line, which journal readers skip-and-warn on.
- :func:`read_journal` — the one reader for those journals: every
  well-formed record in order, each torn or corrupt line skipped with a
  warning and counted.
"""

from __future__ import annotations

import json
import os
import pathlib
import tempfile
from typing import Any, Callable, List, Tuple, Union

from ..obs import log as obs_log

__all__ = [
    "atomic_write_text",
    "atomic_write_bytes",
    "crash_safe_append",
    "read_journal",
]

PathLike = Union[str, "os.PathLike[str]"]


def atomic_write_bytes(path: PathLike, data: bytes) -> pathlib.Path:
    """Atomically replace ``path`` with ``data``; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=str(path.parent), prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        try:
            os.write(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp_name, path)
    except BaseException:
        # Never leave the temp file behind, even on KeyboardInterrupt.
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return path


def atomic_write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    return atomic_write_bytes(path, text.encode("utf-8"))


def crash_safe_append(path: PathLike, line: str, fsync: bool = True) -> pathlib.Path:
    """Append one complete line (newline added if missing) durably.

    The line is issued as a single ``write()`` on an ``O_APPEND`` handle;
    with ``fsync=True`` the record is on disk before this returns, so a
    subsequent crash cannot lose it.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    if not line.endswith("\n"):
        line += "\n"
    with path.open("a", encoding="utf-8") as handle:
        handle.write(line)
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    return path


def read_journal(
    path: PathLike,
    schema: int,
    event: str,
    parse: Callable[[dict], Any],
) -> Tuple[List[Any], int]:
    """Read a :func:`crash_safe_append` JSONL journal, tolerating torn tails.

    Returns ``(records, corrupt)``: ``parse(doc)`` for every line whose JSON
    object carries ``schema``, in journal order, and how many non-blank lines
    were skipped.  A line that is torn, is not a JSON object, has another
    schema or makes ``parse`` raise ``ValueError``/``KeyError``/``TypeError``
    is skipped with an ``event`` warning naming the path and line, never
    fatal.  A missing journal is empty.
    """
    path = pathlib.Path(path)
    records: List[Any] = []
    corrupt = 0
    if not path.exists():
        return records, corrupt
    for lineno, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        try:
            doc = json.loads(line)
            if doc.get("schema") != schema:
                raise ValueError(f"unknown schema {doc.get('schema')!r}")
            records.append(parse(doc))
        except (ValueError, KeyError, TypeError, AttributeError) as err:
            corrupt += 1
            obs_log.warning(event, path=str(path), line=lineno, error=str(err))
    return records, corrupt
