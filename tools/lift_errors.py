"""Run the spectral-lift gate on Killip-Nenciu draws and report its misses.

For each seed of SEED_LO..SEED_HI (both included), each stream of STREAMS
and each N of KN_SIZES, the draw ``sample_kn(N, 2, SeedSpec(seed, stream))``
goes through the library calls behind ``kn-sample``, ``measure --coeffs``
and ``spectrum --measure --side left --window 0 2piN``: the measure of the
coefficients, read back from its JSON, and the left spectral measure of
its operator on [0, 2 pi N), and the same for that operator read back from
its JSON (``spectrum --operator``).  The gate compares lambda / N with the
sorted atom angles and the left weights with 2 N times the atom weights,
and a draw misses where either operator does not find N atoms, where any
of the four errors exceeds LIFT_TOL, or where a call refuses the draw (a
ValueError).

Prints one JSON record: the seed range, the number of draws, each miss
(seed, stream, N and the four errors, or the refusal's message) and the
worst of each error, direct and reloaded, each with its draw.  Exits 1
when it records a miss or a refusal and 0 otherwise, so it can gate a
build.

Usage: python tools/lift_errors.py SEED_LO SEED_HI
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

KN_SIZES = (50, 100, 200, 400)
STREAMS = (0, 1)

#: The spectral-lift gate: lambda / N against the atom angles, and the left
#: weights against 2 N times the atom weights.
LIFT_TOL = 1e-8


def lift_errors(seed: int, stream: int, n: int):
    """[(lambda / N error, weight error)] of one draw's operator, then of it reloaded.

    The second pair is the operator read back from its JSON; each error is
    inf where the atoms are not N.
    """
    from circdirac import dirac, opuc
    from circdirac.ensembles import SeedSpec, sample_kn

    seq = sample_kn(n, 2.0, SeedSpec(seed, stream))
    mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
    mu = opuc.UnitCircleMeasure.from_dict(json.loads(json.dumps(mu.to_dict())))
    op = dirac.measure_operator(mu)
    back = dirac.DiracOperator.from_dict(json.loads(json.dumps(op.to_dict())))
    order = np.argsort(mu.angles)
    ang, w = mu.angles[order], mu.weights[order]
    errors = []
    for o in (op, back):
        sm = dirac.spectral_measure(o, (0.0, 2.0 * math.pi * n), "left")
        errors.append((float(np.max(np.abs(sm.lambdas / n - ang))),
                       float(np.max(np.abs(sm.weights - 2 * n * w) / (2 * n * w))))
                      if len(sm) == n else (math.inf, math.inf))
    return errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("seed_lo", type=int)
    parser.add_argument("seed_hi", type=int)
    args = parser.parse_args(argv)

    keys = ("lambda", "weight", "reloaded_lambda", "reloaded_weight")
    misses, worst = [], {key: (-1.0, None) for key in keys}
    draws = 0
    for seed in range(args.seed_lo, args.seed_hi + 1):
        for stream in STREAMS:
            for n in KN_SIZES:
                draws += 1
                where = {"seed": seed, "stream": stream, "n": n}
                try:
                    direct, reloaded = lift_errors(seed, stream, n)
                except ValueError as exc:
                    misses.append({**where, "refused": str(exc)})
                    continue
                errs = dict(zip(keys, direct + reloaded))
                for key, err in errs.items():
                    if err > worst[key][0]:
                        worst[key] = (err, where)
                if not all(err <= LIFT_TOL for err in errs.values()):
                    misses.append({**where, **{f"{key}_err": err for key, err in errs.items()}})
    record = {"seeds": [args.seed_lo, args.seed_hi], "draws": draws,
              "misses": misses}
    for key, (err, where) in worst.items():
        record[f"worst_{key}_err"] = err if where else None
        record[f"worst_{key}_at"] = where
    print(json.dumps(record))
    return 1 if misses else 0


if __name__ == "__main__":
    sys.exit(main())
