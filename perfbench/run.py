"""Benchmark entry point; run from the repository root.

    python3 perfbench/run.py --workload track --seed 1 --seconds 20 --trace 0

The last line of standard output is the result: correctness, operations
attempted and failed, and the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``) named in BENCHMARK.json. The line before
it is the run record: environment, output digest and check details.
Exits 1 when a correctness check fails and 2 when the pctrack sources
are missing.
"""

import os

# BLAS runs single-threaded; this has to happen before NumPy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "pctrack" / "__init__.py").is_file():
        print(f"perfbench: no pctrack sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import bench

    if args.workload not in bench.WORKLOADS:
        p.error(f"--workload must be one of {', '.join(bench.WORKLOADS)}")
    return bench.main(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
