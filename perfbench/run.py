"""Benchmark command: one workload, one seed, one JSON result line.

Usage, from the root of the repository::

    python3 perfbench/run.py --workload solve-10k --seed 1 --seconds 15 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload untraced and then traced, prints every per-layer metric and
writes the spans to ``.perfbench/trace-<workload>-<seed>.json``.  The
last line of standard output is the result object; the exit code is 0
only when the run completed (its ``correct`` field says whether the
output checks passed).  Workloads and metrics are described in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.workloads import WORKLOADS, run_workload

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), str(WORKDIR)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
