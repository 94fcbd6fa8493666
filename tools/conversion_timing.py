"""Time the coefficients -> measure conversion on Killip-Nenciu draws.

Draws ROWS sequences of length N at beta = 2 (seed 1, stream 0), converts
them with ``opuc._measures_from_gammas_batch`` REPEAT times, and prints one
JSON line: the best wall time and the process's peak resident set
(``ru_maxrss``) before the first conversion and after the last.  Run each
shape in its own process so the peak belongs to that shape alone.

Usage: python tools/conversion_timing.py ROWS N
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

REPEAT = 5


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rows", type=int)
    parser.add_argument("n", type=int)
    args = parser.parse_args(argv)

    from circdirac.ensembles import SeedSpec, kn_gammas
    from circdirac.opuc import _measures_from_gammas_batch

    g = kn_gammas(SeedSpec(1, 0).rng(), args.n, 2.0, args.rows)
    before = maxrss_mb()
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        _measures_from_gammas_batch(g)
        times.append(time.perf_counter() - start)
    print(json.dumps({"rows": args.rows, "n": args.n, "best_s": round(min(times), 4),
                      "maxrss_mb_before": round(before, 1),
                      "maxrss_mb_after": round(maxrss_mb(), 1)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
