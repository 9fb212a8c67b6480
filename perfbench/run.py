"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload train-25x5 --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout: `uav_iscc` is imported from `src/`.
With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones (see perfbench/README.md). The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# pinned before numpy loads: one process per workload, one BLAS thread
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_source_tree() -> None:
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    for path in (str(SRC), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def main(argv=None) -> int:
    use_source_tree()
    if not (SRC / "uav_iscc" / "__init__.py").is_file():
        print(f"error: no uav_iscc package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    import bench

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(bench.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    result = bench.run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"workload {result.workload} seed {result.seed} trace {args.trace}")
    for line in result.notes:
        print(line)
    for problem in result.guard:
        print(f"zero-call guard: {problem}")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
