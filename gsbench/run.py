#!/usr/bin/env python3
"""Time-to-ground-state benchmark for gpflow.

    python3 gsbench/run.py --workload sem5_flow --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports gpflow from its `src/`.
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
the workload once untraced and once traced and prints the per-layer
metrics.  The last line of standard output is one JSON object; the full
record (provenance, every solve, and the spans of a traced run) goes to
`gsbench/out/`.  See gsbench/README.md.

This file only parses the arguments, pins the BLAS thread pool and finds
the sources; numpy must not be imported before the pool is pinned, so
everything else lives in `harness.py`, imported afterwards.
"""

import argparse
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    help="sem5_flow | lattice2d_linear | strong_linesearch")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="untraced runs repeat the workload until this long "
                         "has passed (at least once)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


# One BLAS thread: on a shared 2-core host, runs with a 2-thread pool
# spread three times wider than single-threaded ones, because a busy
# sibling core stalls every multithreaded GEMM.
BLAS_THREADS = 1


def pin_blas_threads() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_gpflow() -> None:
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "gpflow", "__init__.py")):
        raise SystemExit(f"gsbench: no gpflow sources in {src}")
    sys.path.insert(0, src)
    import gpflow
    if not os.path.abspath(gpflow.__file__).startswith(src + os.sep):
        raise SystemExit(f"gsbench: imported gpflow from {gpflow.__file__}, "
                         f"not from {src}")


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    import_gpflow()
    import harness
    return harness.main(args, ROOT)


if __name__ == "__main__":
    sys.exit(main())
