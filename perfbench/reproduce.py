"""``reproduce``: the paper reproduction a reader runs, cold, end to end.

Each pass is a fresh ``python -m repro.harness.runner --export-dir DIR``
process, so the interpreter, the imports and the memo all start cold.
The exported files must equal the committed ``results/`` byte for byte
(``results/README.md`` aside).  The seed is not used: the reproduction
has no inputs to draw.
"""

from __future__ import annotations

from typing import Dict

import passes
from common import (
    ROOT, fresh_dir, interpreter_import_s, log, program_cmd, run_program,
)

ENTRY = "repro.harness.runner"


def _reference() -> Dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in (ROOT / "results").iterdir()
        if path.is_file() and path.name != "README.md"
    }


def _matches(export_dir, reference: Dict[str, bytes]) -> bool:
    exported = {path.name: path.read_bytes() for path in export_dir.iterdir()}
    return exported == reference


def _pass(reference, spans_dir=None):
    """One cold reproduction: ``(ok, wall seconds, peak RSS MB)``."""
    export_dir = fresh_dir("reproduce-export")
    code, wall, rss, err = run_program(
        program_cmd([ENTRY, "--export-dir", str(export_dir)], spans_dir)
    )
    ok = code == 0 and _matches(export_dir, reference)
    if not ok:
        log(f"reproduce pass failed (exit {code}): {err[-500:]}")
    return ok, wall, rss


def run(seed: int, seconds: float, trace: bool):
    reference = _reference()
    return passes.run(
        lambda spans_dir: _pass(reference, spans_dir), seconds, trace,
        lambda: interpreter_import_s([ENTRY]),
    )
