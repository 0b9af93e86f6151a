"""Write specs' timing results into a persistent store, in its own process.

    python perfbench/seed_store.py STORE_DIR SPECS_JSON

``SPECS_JSON`` is a list of ConvSpec field objects.  Each is simulated
with the default TPU config through ``TPUSim.simulate_conv`` with the
store attached, which writes the result through under the same keys
``repro serve`` looks up.  The serving process's memo stays cold.
"""

from __future__ import annotations

import json
import sys

from repro.core.conv_spec import ConvSpec
from repro.store import attach
from repro.systolic.simulator import TPUSim


def main(argv) -> int:
    store_dir, specs_path = argv
    attach(store_dir)
    sim = TPUSim()
    with open(specs_path, encoding="utf-8") as handle:
        for doc in json.load(handle):
            sim.simulate_conv(ConvSpec(**doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
