"""Time the cell sweep, in ns per cell x lane, for its variants.

Sweeps two batches through ``OperatorBatch._lanes``, the one path every
sweep of a batch takes:

- ``sine``: SINE_ROWS Sine_2 rows of SINE_CELLS cells (one
  ``sample_sine_paths`` batch of streams 0 to SINE_ROWS - 1 of seed 1,
  Cauchy slopes), lane j on row j mod SINE_ROWS, its lambdas spread
  evenly over [0, 20 pi);
- ``kn``: the one-row operator ``coefficient_operator(sample_kn(KN_N, 2,
  SeedSpec(1, 0)))``, its lambdas spread evenly over [0, 2 pi KN_N), where
  no cell angle exceeds pi.

For each lane count on the command line and each variant (``phase``:
the half-plane index alone, ``derivative``: dG alone, ``both``), it prints
one JSON line: the case, cells, lanes, variant, the chunk count P of the
sweep (1: the plain loop), the best wall time of REPEAT sweeps in ms and
that time per cell x lane in ns.  ``--chunks plain`` forces the plain loop
and ``--chunks chunked`` sqrt(m) chunks, whatever the lane count, so the
crossover between them can be read off.

Usage: python tools/sweep_timing.py [--chunks auto|plain|chunked] LANES [LANES ...]
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

SINE_ROWS = 50
SINE_CELLS = 4096
KN_N = 400
REPEAT = 5
VARIANTS = {"phase": (False, True), "derivative": (True, False), "both": (True, True)}


def batches():
    """(name, batch, lambda range) of the two timed cases."""
    from circdirac.dirac import coefficient_operator
    from circdirac.ensembles import SeedSpec, SinePathSpec, sample_kn, sample_sine_paths

    sine = sample_sine_paths(SinePathSpec(beta=2.0, cells=SINE_CELLS),
                             [SeedSpec(1, i) for i in range(SINE_ROWS)])
    kn = coefficient_operator(sample_kn(KN_N, 2.0, SeedSpec(1, 0))).batch
    return [("sine", sine, 20.0 * math.pi), ("kn", kn, 2.0 * math.pi * KN_N)]


def time_sweep(batch, lam, row, deriv, phase) -> float:
    """Best wall time of REPEAT sweeps, in seconds."""
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        batch._lanes(lam, row, want_deriv=deriv, want_phase=phase)
        times.append(time.perf_counter() - start)
    return min(times)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("lanes", type=int, nargs="+")
    parser.add_argument("--chunks", choices=("auto", "plain", "chunked"), default="auto")
    args = parser.parse_args(argv)

    from circdirac import dirac

    count = dirac._chunk_count
    forced = {"auto": count, "plain": lambda lanes, m: 1,
              "chunked": lambda lanes, m: count(1, m)}[args.chunks]
    dirac._chunk_count = forced
    try:
        for name, batch, top in batches():
            m = batch.dt.size
            for lanes in args.lanes:
                lam = np.linspace(0.0, top, lanes, endpoint=False)
                row = np.arange(lanes) % batch.rows
                for variant, (deriv, phase) in VARIANTS.items():
                    best = time_sweep(batch, lam, row, deriv, phase)
                    print(json.dumps({
                        "case": name, "cells": m, "lanes": lanes, "variant": variant,
                        "chunks": forced(lanes, m), "best_ms": round(1e3 * best, 3),
                        "ns_per_cell_lane": round(1e9 * best / (m * lanes), 2)}))
    finally:
        dirac._chunk_count = count
    return 0


if __name__ == "__main__":
    sys.exit(main())
