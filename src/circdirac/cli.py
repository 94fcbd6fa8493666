"""Command-line front end.

Subcommands: kn-sample, measure, spectrum, palm, aleksandrov, sine-beta,
sine-intensity, bias, bias-trend, verify.  Every command accepts --out;
file formats are the JSON schemas of the library modules, plus the CSV
tables of the three experiments (sine-intensity, bias, bias-trend).  The
commands that draw accept --seed: verify demands it (reports must be
reproducible), and kn-sample, sine-beta, sine-intensity, bias and
bias-trend draw an entropy seed when none is given and echo it on stdout.
kn-sample and sine-beta also accept --stream, and verify, which can run
its criteria in a worker pool, accepts --jobs.  The experiments draw
through the owners that the acceptance criteria call too:
sine-intensity through ``ensembles.sine_replicas``, so its replica i is
``sine-beta --stream i``, and it counts the replicas block by block, in
memory that does not grow with --replicas; bias and bias-trend draw
through ``ensembles.window_biasing``, on streams 0 and 1 000 000 of the
seed.
sine-beta takes the right boundary slope as --q: a real value fixes it,
--q inf gives the infinity slope, and without --q the slope is drawn
from the standard Cauchy law.

Exit codes: 0 on success (for verify: all criteria passed), 1 on a runtime
error (a machine-readable record goes to stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import os
import secrets
import sys

import numpy as np

from . import dirac, ensembles, opuc
from .ensembles import SeedSpec, SinePathSpec


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _resolve_seed(args) -> int:
    if args.seed is None:
        seed = secrets.randbits(32)
        print(f"seed: {seed} (drawn; pass --seed to reproduce)")
        return seed
    return args.seed


def _load_coeffs(path: str) -> opuc.CoefficientSequence:
    return opuc.CoefficientSequence.from_dict(_read_json(path))


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_kn_sample(args) -> int:
    seed = _resolve_seed(args)
    seq = ensembles.sample_kn(args.n, args.beta, SeedSpec(seed, args.stream))
    _write_json(args.out, seq.to_dict())
    print(f"wrote {args.out} ({args.n} modified coefficients)")
    return 0


def _cmd_measure(args) -> int:
    if args.coeffs:
        if args.kind is not None:
            raise ValueError("--kind applies only with --measure")
        seq = _load_coeffs(args.coeffs)
        mu = opuc.alpha_to_measure(opuc.convert_coefficients(seq, "verblunsky"))
        _write_json(args.out, mu.to_dict())
        print(f"wrote {args.out} ({len(mu)} atoms)")
    else:
        mu = opuc.UnitCircleMeasure.from_dict(_read_json(args.measure))
        seq = opuc.convert_coefficients(opuc.measure_to_alpha(mu), args.kind or "verblunsky")
        _write_json(args.out, seq.to_dict())
        print(f"wrote {args.out} ({len(seq)} {seq.kind} coefficients)")
    return 0


def _cmd_spectrum(args) -> int:
    if args.measure:
        mu = opuc.UnitCircleMeasure.from_dict(_read_json(args.measure))
        op = dirac.measure_operator(mu)
    else:
        op = dirac.DiracOperator.from_dict(_read_json(args.operator))
    sm = dirac.spectral_measure(op, tuple(args.window), args.side)
    _write_json(args.out, sm.to_dict())
    print(f"wrote {args.out} ({len(sm)} atoms, {args.side} side)")
    return 0


def _cmd_palm(args) -> int:
    seq = _load_coeffs(args.coeffs)
    gammas = opuc.convert_coefficients(seq, "modified")
    _write_json(args.out, ensembles.palm_transform(gammas).to_dict())
    print(f"wrote {args.out}")
    return 0


def _cmd_aleksandrov(args) -> int:
    seq = _load_coeffs(args.coeffs)
    eta = complex(math.cos(args.eta), math.sin(args.eta))
    _write_json(args.out, opuc.aleksandrov_transform(seq, eta).to_dict())
    print(f"wrote {args.out}")
    return 0


def _cmd_sine_beta(args) -> int:
    if args.side is not None and args.window is None:
        raise ValueError("--side applies only with --window")
    seed = _resolve_seed(args)
    spec = SinePathSpec(beta=args.beta, t_min=args.t_min, cells=args.cells, q=args.q)
    op = ensembles.sample_sine_operator(spec, SeedSpec(seed, args.stream))
    op_path = f"{args.out}.operator.json"
    _write_json(op_path, op.to_dict())
    print(f"wrote {op_path} ({op.cells} cells)")
    if args.window is not None:
        sm = dirac.spectral_measure(op, tuple(args.window), args.side or "right")
        sp_path = f"{args.out}.spectrum.json"
        _write_json(sp_path, sm.to_dict())
        print(f"wrote {sp_path} ({len(sm)} atoms, {sm.side} side)")
    return 0


def _cmd_sine_intensity(args) -> int:
    seed = _resolve_seed(args)
    spec = SinePathSpec(beta=args.beta, t_min=args.t_min, cells=args.cells)
    counts = ensembles.sine_replicas(spec, seed, args.replicas,
                                     lambda batch: batch.count((0.0, args.length)))
    _write_csv(f"{args.out}.csv", ["replica", "count"],
               ([i, int(c)] for i, c in enumerate(counts)))
    mean = float(counts.mean())
    se = float(counts.std(ddof=1) / math.sqrt(args.replicas))
    summary = {
        "experiment": "sine-intensity",
        "beta": args.beta,
        "t_min": args.t_min,
        "cells": args.cells,
        "replicas": args.replicas,
        "seed": seed,
        "window": [0.0, args.length],
        "mean_count": mean,
        "mc_standard_error": se,
        "expected": args.length / (2.0 * math.pi),
    }
    _write_json(f"{args.out}.json", summary)
    print(f"mean count {mean:.4f} +- {se:.4f}, expected {summary['expected']:.4f}")
    return 0


def _biased_draws(args, epsilons):
    """The window-biasing experiment, shared by bias and bias-trend.

    The draws are :func:`ensembles.window_biasing`'s: the replicas from
    stream 0 of the seed and the direct draws of the atom-at-1 law from
    stream 1 000 000.  Returns (seed, gammas, weights, ks): the replicas'
    coefficients, their importance weights per epsilon (E, replicas), and
    the per-coordinate KS distances of each weighting to the direct draws
    (E, n-1, 2).
    """
    # imported here, like verify, so that ``import circdirac.cli`` stays light
    # for the commands that test nothing (the setup_s of bench's kn-lift)
    from .stats import ks_by_coordinate
    seed = _resolve_seed(args)
    gammas, weights, direct = ensembles.window_biasing(
        args.n, args.beta, args.replicas, epsilons,
        SeedSpec(seed, 0), SeedSpec(seed, 1_000_000))
    return seed, gammas, weights, ks_by_coordinate(gammas, direct, weights)


def _cmd_bias(args) -> int:
    seed, gammas, [weights], [ks] = _biased_draws(args, [args.epsilon])
    csv_path, json_path = f"{args.out}.csv", f"{args.out}.json"
    _write_csv(csv_path, ["replica", "importance_weight", "gamma0_re", "gamma0_im"],
               ([i, repr(float(w)), repr(float(g.real)), repr(float(g.imag))]
                for i, (w, g) in enumerate(zip(weights, gammas[:, 0]))))
    summary = {
        "experiment": "bias",
        "n": args.n,
        "beta": args.beta,
        "replicas": args.replicas,
        "seed": seed,
        "epsilon": args.epsilon,
        "nonzero_weight_fraction": float(np.mean(weights > 0.0)),
        "ks_to_direct_law": {f"gamma_{k}": {"re": re, "im": im}
                             for k, (re, im) in enumerate(ks.tolist())},
    }
    _write_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_bias_trend(args) -> int:
    seed, _, weights, ks = _biased_draws(args, args.eps)
    max_ks = ks.max(axis=(1, 2), initial=0.0).tolist()
    fractions = [float(np.mean(w > 0.0)) for w in weights]
    for eps, m in zip(args.eps, max_ks):
        print(f"eps {eps:6.3f}: max per-coordinate KS {m:.4f}")
    _write_csv(f"{args.out}.csv", ["epsilon", "max_ks", "nonzero_weight_fraction"],
               ([repr(e), repr(m), repr(f)] for e, m, f in zip(args.eps, max_ks, fractions)))
    summary = {
        "experiment": "bias-trend",
        "n": args.n,
        "beta": args.beta,
        "replicas": args.replicas,
        "seed": seed,
        "epsilon": args.eps,
        "max_ks": max_ks,
        "monotone_decreasing": all(a > b for a, b in zip(max_ks, max_ks[1:])),
    }
    _write_json(f"{args.out}.json", summary)
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    report = verify.run_suite(args.suite, args.seed, jobs=args.jobs)
    for crit in report["criteria"]:
        tag = "PASS" if crit["pass"] else "FAIL"
        print(f"{tag} {crit['name']} ({len(crit['reports'])} checks)")
        if not crit["pass"]:
            for rep in crit["reports"]:
                if not rep["pass"]:
                    print(f"     {rep['check']}: statistic {rep['statistic']:.6g}"
                          f" vs threshold {rep['threshold']:.6g}")
    out = args.out or f"verify-{args.suite}.json"
    _write_json(out, report)
    print(f"wrote {out}")
    return 0 if report["all_pass"] else 1


# ---------------------------------------------------------------------------
# parser


def _at_least(low: int):
    """Parser type of a count that must be at least ``low``."""
    def count(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}")
        return value
    return count


def _half_width(text: str) -> float:
    """Parser type of a biasing window's half-width: a finite positive real."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError("must be finite and positive")
    return value


def _suite_name(name: str) -> str:
    # imported here so that ``import circdirac.cli`` stays light for the
    # commands that test nothing (the setup_s of bench's kn-lift)
    from . import verify
    if name not in verify.SUITES:
        raise argparse.ArgumentTypeError(f"choose from {sorted(verify.SUITES)}")
    return name


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circdirac",
        description="Circle measures, Dirac operators, and beta ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, out_default=None):
        p.add_argument("--out", required=out_default is None, default=out_default,
                       help="output path")

    def add_seed(p, stream: bool):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        if stream:
            p.add_argument("--stream", type=int, default=0, help="stream id")

    p = sub.add_parser("kn-sample", help="draw ensemble coefficients")
    p.add_argument("--n", type=_at_least(1), required=True)
    p.add_argument("--beta", type=float, required=True)
    add_seed(p, stream=True)
    add_out(p)
    p.set_defaults(func=_cmd_kn_sample)

    p = sub.add_parser("measure", help="convert coefficients <-> measure")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--coeffs", help="coefficients JSON to turn into a measure")
    src.add_argument("--measure", help="measure JSON to turn into coefficients")
    p.add_argument("--kind", choices=["verblunsky", "modified"], default=None,
                   help="coefficient kind written by --measure (default: verblunsky)")
    add_out(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("spectrum", help="spectral measure in a window")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--measure", help="measure JSON")
    src.add_argument("--operator", help="operator JSON")
    p.add_argument("--window", type=float, nargs=2, required=True,
                   metavar=("A", "B"))
    p.add_argument("--side", choices=["left", "right"], default="right")
    add_out(p)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("palm", help="atom-at-1 coefficient transform")
    p.add_argument("--coeffs", required=True)
    add_out(p)
    p.set_defaults(func=_cmd_palm)

    p = sub.add_parser("aleksandrov", help="rotate all alpha by e^{i eta}")
    p.add_argument("--coeffs", required=True)
    p.add_argument("--eta", type=float, required=True,
                   help="angle of the unimodular parameter")
    add_out(p)
    p.set_defaults(func=_cmd_aleksandrov)

    def add_path(p):
        p.add_argument("--t-min", dest="t_min", type=float, default=SinePathSpec.t_min)
        p.add_argument("--cells", type=_at_least(2), default=SinePathSpec.cells)

    p = sub.add_parser("sine-beta", help="sample a continuum operator")
    p.add_argument("--beta", type=float, required=True)
    add_path(p)
    p.add_argument("--q", type=float, default=None,
                   help="right boundary slope; inf for the infinity slope "
                        "(default: a standard Cauchy draw)")
    p.add_argument("--window", type=float, nargs=2, default=None,
                   metavar=("A", "B"))
    p.add_argument("--side", choices=["left", "right"], default=None,
                   help="side of the --window spectrum (default: right)")
    add_seed(p, stream=True)
    add_out(p)
    p.set_defaults(func=_cmd_sine_beta)

    p = sub.add_parser("sine-intensity", help="eigenvalue counts of sampled operators")
    p.add_argument("--beta", type=float, default=2.0)
    add_path(p)
    p.add_argument("--length", type=float, default=20.0 * math.pi,
                   help="window is [0, length)")
    p.add_argument("--replicas", type=_at_least(2), default=200)
    add_seed(p, stream=False)
    add_out(p, out_default="sine_intensity")
    p.set_defaults(func=_cmd_sine_intensity)

    p = sub.add_parser("bias", help="window-biased ensemble experiment")
    p.add_argument("--n", type=_at_least(1), default=6)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--epsilon", type=_half_width, default=0.1)
    p.add_argument("--replicas", type=_at_least(1), default=10_000)
    add_seed(p, stream=False)
    add_out(p)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("bias-trend", help="KS to the atom-at-1 law over an epsilon ladder")
    p.add_argument("--n", type=_at_least(1), default=6)
    p.add_argument("--beta", type=float, default=2.0)
    p.add_argument("--replicas", type=_at_least(1), default=30_000)
    p.add_argument("--eps", type=_half_width, nargs="+", default=[0.3, 0.1, 0.03])
    add_seed(p, stream=False)
    add_out(p, out_default="bias_trend")
    p.set_defaults(func=_cmd_bias_trend)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", type=_suite_name, default="all")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    add_out(p, out_default="")
    p.add_argument("--jobs", type=_at_least(1), default=os.cpu_count() or 1,
                   help="worker pool size (default: machine parallelism)")
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built at main's first call, not at import, and shared by later calls:
    # no command may mutate a default the parser hands out (--eps's list)
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # runtime errors: machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
