"""Time each acceptance criterion and read its peak memory, alone or in one chain.

For each criterion NAME (default: those of the ``all`` suite, in its
order), a new Python process imports ``circdirac.verify`` from this
checkout's ``src``, reads its peak resident set (``ru_maxrss``: the
baseline of the interpreter, numpy and the package), runs
``verify.CRITERIA[NAME](SEED)`` and reads the peak again.  BLAS is pinned
to one thread, as in the benchmark.  Prints one JSON line per criterion:
its name, the seed, its wall seconds, and the baseline, the peak before
it and the peak after it, in MB.  Each peak is that criterion's alone.

With ``--chain`` one process runs the criteria in turn, as
``verify --suite all --jobs 1`` does, and each record's peak before and
after is read on the heap the earlier criteria left: the criterion whose
record raises the peak last sets the whole run's peak.

Usage: python tools/criterion_peaks.py SEED [--chain] [NAMES ...]
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

CHILD = """
import json, resource, sys, time
from circdirac import verify

def mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

seed, names = int(sys.argv[1]), sys.argv[2:]
baseline = mb()
for name in names:
    before = mb()
    start = time.perf_counter()
    verify.CRITERIA[name](seed)
    wall = time.perf_counter() - start
    print(json.dumps({"criterion": name, "seed": seed, "wall_s": round(wall, 3),
                      "baseline_mb": round(baseline, 1), "before_mb": round(before, 1),
                      "peak_mb": round(mb(), 1)}))
"""


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    parser.add_argument("names", nargs="*")
    parser.add_argument("--chain", action="store_true",
                        help="run the criteria in turn in one process")
    args = parser.parse_intermixed_args(argv)

    sys.path.insert(0, str(SRC))
    from circdirac import verify

    unknown = sorted(set(args.names) - set(verify.CRITERIA))
    if unknown:
        parser.error(f"unknown criteria {unknown}; choose from {sorted(verify.CRITERIA)}")
    env = {**os.environ, **BLAS_ENV, "PYTHONPATH": os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}
    names = args.names or verify.SUITES["all"]
    for group in ([names] if args.chain else [[name] for name in names]):
        run = subprocess.run([sys.executable, "-c", CHILD, str(args.seed), *group],
                             env=env, capture_output=True, text=True, check=True)
        print(run.stdout, end="", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
