#!/usr/bin/env python3
"""Eigenvalue-count experiment for sampled continuum operators.

Samples replicas of the Brownian-driven operator, counts eigenvalues in
[0, L), and writes one CSV row per replica plus a JSON summary.  The mean
count should sit near L / (2 pi).

Example:
    python3 scripts/sine_intensity.py --beta 2 --replicas 200 --seed 7 \
        --out counts
"""

import argparse
import csv
import json
import math

from circdirac.ensembles import SeedSpec, SinePathSpec, sample_sine_paths


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--t-min", dest="t_min", type=float, default=1e-4)
    ap.add_argument("--cells", type=int, default=4096)
    ap.add_argument("--length", type=float, default=20.0 * math.pi,
                    help="window is [0, length)")
    ap.add_argument("--replicas", type=int, default=200)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="sine_intensity")
    args = ap.parse_args()

    spec = SinePathSpec(beta=args.beta, t_min=args.t_min, cells=args.cells)
    base = SeedSpec(args.seed, 0)
    batch = sample_sine_paths(spec, [base.stream(i) for i in range(args.replicas)])
    counts = batch.count((0.0, args.length))

    with open(f"{args.out}.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["replica", "count"])
        for i, c in enumerate(counts):
            w.writerow([i, int(c)])

    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(args.replicas))
    summary = {
        "experiment": "sine-intensity",
        "beta": args.beta,
        "t_min": args.t_min,
        "cells": args.cells,
        "replicas": args.replicas,
        "seed": args.seed,
        "window": [0.0, args.length],
        "mean_count": mean,
        "mc_standard_error": se,
        "expected": args.length / (2.0 * math.pi),
    }
    with open(f"{args.out}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"mean count {mean:.4f} +- {se:.4f}, expected "
          f"{summary['expected']:.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
