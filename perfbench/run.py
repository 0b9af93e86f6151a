"""The repro benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload reproduce|serve-mixed|dse-sweep \
        --seed N --seconds S --trace 0|1

Run it from the root of a repro checkout.  With ``--trace 0`` the result
holds the end-to-end metrics; with ``--trace 1`` the per-layer metrics
from a traced run (see README.md in this directory).  Every output the
program produces is checked, and a wrong one counts as a failed
operation.  The last line of stdout is the result record.
"""

from __future__ import annotations

import argparse
import shutil
import sys

from common import SRC, TMP, check_checkout, emit, log

WORKLOADS = ("reproduce", "serve-mixed", "dse-sweep")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = check_checkout()
    if problem is not None:
        log(problem)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "reproduce":
        import reproduce as workload
    elif args.workload == "serve-mixed":
        import serve_mixed as workload
    else:
        import dse_sweep as workload
    TMP.mkdir(exist_ok=True)
    try:
        correct, attempted, failed, metrics = workload.run(
            args.seed, args.seconds, bool(args.trace)
        )
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    emit(correct, attempted, failed, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
