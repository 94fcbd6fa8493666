"""Command-line front end.

Subcommands: kn-sample, measure, spectrum, palm, aleksandrov, sine-beta,
bias, verify.  Every command accepts --out; file formats are the JSON
schemas of the library modules.  The commands that draw accept --seed:
verify demands it (reports must be reproducible), and kn-sample,
sine-beta and bias draw an entropy seed when none is given and echo it on
stdout.  kn-sample and sine-beta also accept --stream, and verify, which
can run its criteria in a worker pool, accepts --jobs.

Exit codes: 0 on success (for verify: all criteria passed), 1 on a runtime
error (a machine-readable record goes to stderr), 2 on a usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import secrets
import sys

import numpy as np

from . import dirac, ensembles, opuc
from .ensembles import KNMeasureSampler, SeedSpec, SinePathSpec


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


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
    if (args.coeffs is None) == (args.measure is None):
        raise ValueError("pass exactly one of --coeffs or --measure")
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
    if (args.measure is None) == (args.operator is None):
        raise ValueError("pass exactly one of --measure or --operator")
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
    if args.beta is None:
        raise ValueError("beta is required (pass --beta or a --config file)")
    if args.side is not None and args.window is None:
        raise ValueError("--side applies only with --window")
    seed = _resolve_seed(args)
    spec = SinePathSpec(beta=args.beta, t_min=args.t_min, cells=args.cells,
                        q_mode=args.q_mode, q=args.q)
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


def _cmd_bias(args) -> int:
    from .stats import ks_by_coordinate  # loads scipy.special, like verify
    if args.beta is None:
        args.beta = 2.0
    if args.epsilon <= 0.0:
        raise ValueError("epsilon must be positive")
    seed = _resolve_seed(args)
    gammas, angles, atom_weights = KNMeasureSampler(args.n, args.beta).sample_batch(
        SeedSpec(seed, 0), args.replicas)
    weights = ensembles.bias_by_window(angles, atom_weights, args.epsilon)
    direct = ensembles._biased_gammas(SeedSpec(seed, 1_000_000).rng(),
                                      args.n, args.beta, 10_000)
    ks = {f"gamma_{k}": {"re": re, "im": im} for k, (re, im)
          in enumerate(ks_by_coordinate(gammas, direct, weights).tolist())}
    csv_path = f"{args.out}.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["replica", "importance_weight", "gamma0_re", "gamma0_im"])
        for i in range(args.replicas):
            writer.writerow([i, repr(float(weights[i])),
                             repr(float(gammas[i, 0].real)),
                             repr(float(gammas[i, 0].imag))])
    summary = {
        "experiment": "bias",
        "n": args.n,
        "beta": args.beta,
        "replicas": args.replicas,
        "seed": seed,
        "epsilon": args.epsilon,
        "nonzero_weight_fraction": float(np.mean(weights > 0.0)),
        "ks_to_direct_law": ks,
    }
    json_path = f"{args.out}.json"
    _write_json(json_path, summary)
    print(f"wrote {csv_path} and {json_path}")
    return 0


def _cmd_verify(args) -> int:
    from . import verify
    if args.seed is None:
        raise ValueError("verify requires --seed for reproducible reports")
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


def _jobs(text: str) -> int:
    jobs = int(text)
    if jobs < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return jobs


def _suite_name(name: str) -> str:
    from . import verify  # loads scipy.special, the package's slowest import
    if name not in verify.SUITES:
        raise argparse.ArgumentTypeError(f"choose from {sorted(verify.SUITES)}")
    return name


_CONFIG_KEYS = ("n", "beta", "replicas", "seed", "epsilon", "t_min", "cells")

_HARD_DEFAULTS = {"n": 6, "replicas": 10_000, "epsilon": 0.1,
                  "t_min": 1e-4, "cells": 4096}


def _apply_config(args) -> None:
    """Fill unset (None) options from --config, then from hard defaults."""
    cfg = _read_json(args.config) if getattr(args, "config", None) else {}
    for key in _CONFIG_KEYS:
        if hasattr(args, key) and getattr(args, key) is None:
            if key in cfg:
                setattr(args, key, cfg[key])
            elif key in _HARD_DEFAULTS:
                setattr(args, key, _HARD_DEFAULTS[key])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="circdirac",
        description="Circle measures, Dirac operators, and beta ensembles")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_out(p, out_default=None):
        if out_default is None:
            p.add_argument("--out", required=True, help="output path")
        else:
            p.add_argument("--out", default=out_default, help="output path")

    def add_seed(p, stream: bool):
        p.add_argument("--seed", type=int, default=None, help="master seed")
        if stream:
            p.add_argument("--stream", type=int, default=0, help="stream id")

    p = sub.add_parser("kn-sample", help="draw ensemble coefficients")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--beta", type=float, required=True)
    add_seed(p, stream=True)
    add_out(p)
    p.set_defaults(func=_cmd_kn_sample)

    p = sub.add_parser("measure", help="convert coefficients <-> measure")
    p.add_argument("--coeffs", help="coefficients JSON to turn into a measure")
    p.add_argument("--measure", help="measure JSON to turn into coefficients")
    p.add_argument("--kind", choices=["verblunsky", "modified"], default=None,
                   help="coefficient kind written by --measure (default: verblunsky)")
    add_out(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("spectrum", help="spectral measure in a window")
    p.add_argument("--measure", help="measure JSON")
    p.add_argument("--operator", help="operator JSON")
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

    p = sub.add_parser("sine-beta", help="sample a continuum operator")
    p.add_argument("--beta", type=float, default=None,
                   help="required unless supplied through --config")
    p.add_argument("--t-min", dest="t_min", type=float, default=None)
    p.add_argument("--cells", type=int, default=None)
    p.add_argument("--q-mode", dest="q_mode",
                   choices=["cauchy", "fixed", "infinity"], default="cauchy")
    p.add_argument("--q", type=float, default=None, help="slope for --q-mode fixed")
    p.add_argument("--window", type=float, nargs=2, default=None,
                   metavar=("A", "B"))
    p.add_argument("--side", choices=["left", "right"], default=None,
                   help="side of the --window spectrum (default: right)")
    p.add_argument("--config", help="experiment config JSON")
    add_seed(p, stream=True)
    add_out(p)
    p.set_defaults(func=_cmd_sine_beta)

    p = sub.add_parser("bias", help="window-biased ensemble experiment")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--epsilon", type=float, default=None)
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--config", help="experiment config JSON")
    add_seed(p, stream=False)
    add_out(p)
    p.set_defaults(func=_cmd_bias)

    p = sub.add_parser("verify", help="run a named acceptance suite")
    p.add_argument("--suite", type=_suite_name, default="all")
    add_seed(p, stream=False)
    add_out(p, out_default="")
    p.add_argument("--jobs", type=_jobs, default=os.cpu_count() or 1,
                   help="worker pool size (default: machine parallelism)")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("bias", "sine-beta"):
        _apply_config(args)
    try:
        return args.func(args)
    except Exception as exc:  # runtime errors: machine-readable record
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
