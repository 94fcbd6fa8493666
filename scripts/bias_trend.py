#!/usr/bin/env python3
"""Window-biasing trend: KS distance to the atom-at-1 law as eps shrinks.

Draws coefficient-ensemble replicas once, weights each by its measure's
mass in (-eps, eps) over a ladder of eps values, and reports the maximal
per-coordinate two-sample KS distance between the weighted coefficient law
and the directly sampled atom-at-1-biased law.

Example:
    python3 scripts/bias_trend.py --n 6 --beta 2 --replicas 30000 --seed 7 \
        --eps 0.3 0.1 0.03 --out trend
"""

import argparse
import csv
import json

import numpy as np

from circdirac.ensembles import (
    KNMeasureSampler,
    SeedSpec,
    bias_by_window,
    biased_gammas,
)
from circdirac.stats import ks_by_coordinate


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=6)
    ap.add_argument("--beta", type=float, default=2.0)
    ap.add_argument("--replicas", type=int, default=30_000)
    ap.add_argument("--direct-draws", type=int, default=10_000)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.3, 0.1, 0.03])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", default="bias_trend")
    args = ap.parse_args()

    base = SeedSpec(args.seed, 0)
    gammas, angles, atom_weights = KNMeasureSampler(args.n, args.beta).sample_batch(
        base, args.replicas)
    direct = biased_gammas(SeedSpec(args.seed, 1_000_000).rng(),
                           args.n, args.beta, args.direct_draws)

    weights = np.stack([bias_by_window(angles, atom_weights, eps) for eps in args.eps])
    max_ks = ks_by_coordinate(gammas, direct, weights).max(axis=(1, 2), initial=0.0)
    rows = []
    for eps, ks, w in zip(args.eps, max_ks.tolist(), weights):
        rows.append((eps, ks, float(np.mean(w > 0.0))))
        print(f"eps {eps:6.3f}: max per-coordinate KS {ks:.4f}")

    with open(f"{args.out}.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epsilon", "max_ks", "nonzero_weight_fraction"])
        for eps, ks, frac in rows:
            writer.writerow([repr(eps), repr(ks), repr(frac)])
    summary = {
        "experiment": "bias-trend",
        "n": args.n,
        "beta": args.beta,
        "replicas": args.replicas,
        "seed": args.seed,
        "epsilon": args.eps,
        "max_ks": [ks for _, ks, _ in rows],
        "monotone_decreasing": all(a > b for (_, a, _), (_, b, _)
                                   in zip(rows, rows[1:])),
    }
    with open(f"{args.out}.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
