"""bitime benchmark: one seeded closed-loop workload, end-to-end or per layer.

Run from the repository root:

    python3 perfbench/run.py --workload verify-families --seed 1 --seconds 30 --trace 0

`--trace 0` times back-to-back calls with tracing off and prints the
end-to-end metrics; `--trace 1` runs the traced replay and prints the
per-layer metrics (see README.md).  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Exit status is 0
when every output checked out, 1 when one did not, 2 on a usage error.
"""

import argparse
import os
import sys
import time

# One thread everywhere, before numpy loads its BLAS backends.
for _var in ("BITIME_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

WORKLOAD_NAMES = ("verify-families", "fields-export", "residuals-config")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "bitime", "__init__.py")):
        print("error: src/bitime not found; run from the root of a bitime checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import bench
    return bench.run(args, root, src, t0)


if __name__ == "__main__":
    sys.exit(main())
