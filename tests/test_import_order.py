"""Every ``repro`` module must import on its own, in any first-import order.

``repro.perf`` and ``repro.systolic`` import each other (the simulator runs
the batched engine; the schedule builders price through the systolic
models), so a module that happens to be imported first can hit a partially
initialised one.  This check imports each module as the first ``repro``
import of a clean module table, in one fresh interpreter.
"""

import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

_CHECK = """
import importlib, pkgutil, sys
import repro
names = ["repro"] + sorted(
    m.name for m in pkgutil.walk_packages(repro.__path__, "repro.")
)
failed = []
for name in names:
    for loaded in [n for n in sys.modules if n == "repro" or n.startswith("repro.")]:
        del sys.modules[loaded]
    try:
        importlib.import_module(name)
    except Exception as err:
        failed.append(f"{name}: {err!r}")
print(len(names))
print("\\n".join(failed))
"""


def test_every_module_imports_first():
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK],
        capture_output=True,
        text=True,
        timeout=300,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    count, *failed = proc.stdout.splitlines()
    assert int(count) > 100
    assert not [line for line in failed if line], "\n".join(failed)
