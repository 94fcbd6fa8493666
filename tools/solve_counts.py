"""Count the sweeps of the eigenvalue search, and time it.

Solves ``OperatorBatch.eigenvalues`` on three kinds of batch at the seed SEED:

- ``kn<N>``: the operator ``coefficient_operator(sample_kn(N, 2, SeedSpec(SEED, 0)))``
  on [0, 2 pi N), which holds its N eigenvalues, for each N of KN_SIZES;
- ``palm-pins-zero``: the Sine_2 rows of the acceptance criterion of that
  name (``sine_replicas`` at SEED, infinity boundary slope, REPLICAS rows)
  on [-0.5, 0.5), solved block by block as the criterion solves them;
  its counts, times and misses are summed over the ``blocks`` (the worst
  miss is the largest);
- ``sine<beta>``: SINE_ROWS Sine_beta rows with the Cauchy slope (one
  ``sample_sine_paths`` batch of streams 0 to SINE_ROWS - 1 of SEED) on
  [0, 20 pi), for each beta of SINE_BETAS.

The counts come from wrapping ``OperatorBatch._lanes``, through which every
sweep of a batch runs (the window's endpoint sweep included), in this
process only: ``sweeps`` is the number of calls and ``lane_sweeps`` the
lanes they carried, summed.  ``best_s`` is the best wall time of REPEAT
solves.  After the timed solves, the window's endpoint sweep and one
phase sweep at the returned roots check them against their targets
2 pi k + u: ``off_target`` counts the roots whose phase misses its own
turn by more than a quarter turn (a root that retired on its 1e-12
bracket at a phase rise steeper than that resolves), and
``worst_off_turns`` is the largest miss of any root, in turns.  Prints
one JSON line, a record per batch.

Usage: python tools/solve_counts.py SEED
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

KN_SIZES = (50, 100, 200, 400)
REPLICAS = 500
SINE_BETAS = (2.0, 0.5, 0.1)
SINE_ROWS = 50
REPEAT = 3


def solve_record(batch, window) -> dict:
    """Sweeps, lane-sweeps, roots, best time and target misses of one solve."""
    from circdirac.dirac import OperatorBatch

    lanes = []
    original = OperatorBatch._lanes

    def counting(self, lam, row, **kw):
        lanes.append(int(np.size(lam)))
        return original(self, lam, row, **kw)

    OperatorBatch._lanes = counting
    try:
        lams, row = batch.eigenvalues(window)
    finally:
        OperatorBatch._lanes = original
    times = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        batch.eigenvalues(window)
        times.append(time.perf_counter() - start)
    miss = target_misses(batch, window, lams, row)
    return {"roots": lams.size, "sweeps": len(lanes), "lane_sweeps": sum(lanes),
            "best_s": round(min(times), 4), "off_target": int(np.sum(miss > 0.25)),
            "worst_off_turns": round(float(np.max(miss, initial=0.0)), 4)}


def block_record(spec, seed, rows, window) -> dict:
    """:func:`solve_record` of each block of ``sine_replicas``, summed over the blocks."""
    from circdirac.ensembles import sine_replicas

    records = []

    def solve(batch):
        records.append(solve_record(batch, window))
        return np.empty(batch.rows)

    sine_replicas(spec, seed, rows, solve)
    total = {key: sum(r[key] for r in records) for key in records[0]}
    total["best_s"] = round(total["best_s"], 4)
    total["worst_off_turns"] = max(r["worst_off_turns"] for r in records)
    return {"blocks": len(records), **total}


def target_misses(batch, window, lams, row):
    """|alpha - (2 pi k + u)| / 2 pi of each root, k its own target's turn.

    The roots come sorted by row and then lambda, so a row's j-th root
    belongs to its target kmin + j; alpha is the solver's phase, in the
    last cell's frame.
    """
    from circdirac.dirac import _lift

    *_, kmin, counts = batch._window(window)
    k = kmin[row] + (np.arange(row.size) - (np.cumsum(counts) - counts)[row])
    g, _, half = batch._lanes(lams, row, want_phase=True)
    alpha = 2.0 * _lift(g, half)
    return np.abs(alpha - (batch.u[row] + 2.0 * math.pi * k)) / (2.0 * math.pi)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed", type=int)
    args = parser.parse_args(argv)

    from circdirac.dirac import coefficient_operator
    from circdirac.ensembles import SeedSpec, SinePathSpec, sample_kn, sample_sine_paths

    record = {"seed": args.seed}
    for n in KN_SIZES:
        op = coefficient_operator(sample_kn(n, 2.0, SeedSpec(args.seed, 0)))
        record[f"kn{n}"] = solve_record(op.batch, (0.0, 2.0 * math.pi * n))
    record["palm-pins-zero"] = block_record(SinePathSpec(beta=2.0, q=math.inf), args.seed,
                                            REPLICAS, (-0.5, 0.5))
    seeds = [SeedSpec(args.seed, i) for i in range(SINE_ROWS)]
    for beta in SINE_BETAS:
        batch = sample_sine_paths(SinePathSpec(beta=beta), seeds)
        record[f"sine{beta:g}"] = solve_record(batch, (0.0, 20.0 * math.pi))
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
