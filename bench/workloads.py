"""The benchmark's workloads and the correctness check of each.

A pass of a workload is a list of steps.  A step calls the program (the
timed part) and hands what it produced to its check, which runs untimed
and returns the checks of every item the step covered: one criterion,
one CLI invocation or one draw.  An item fails when its call raises,
exits non-zero, or misses a check.

Inputs come from the run's seed and the input index ``k`` only.  A run
cycles through the workload's ``inputs`` input sets, ``k`` = 0, 1, ...,
``inputs - 1``, 0, ..., so the items a run attempts depend on the seed
alone, never on how many passes fit in its time.  CLI outputs go to the
run's temporary directory.  The program is reached
through ``circdirac.cli.main(argv)`` or ``verify.run_suite`` by attribute
lookup at call time, so an installed tracer sees every call.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass
class Check:
    """One correctness check of one item; it passes iff ``passed``.

    Every miss makes its item a failed one.  A miss of a check with
    ``hard=False`` leaves the run's ``correct`` flag alone: such a check
    either tracks a documented loss of accuracy or is a Monte Carlo test
    that misses at its significance level on some seeds by design.
    ``stopped`` marks a miss that cut the item's work short (a call that
    raised or exited non-zero), so its pass did less than a whole pass.
    """

    name: str
    value: float
    limit: float
    passed: bool
    hard: bool = True
    stopped: bool = False


@dataclass
class Step:
    items: list
    run: Callable[[], object]
    check: Callable[[object], dict]
    info: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    imports: tuple  # modules a fresh interpreter imports for setup_s
    steps: Callable[[int, int, Path], list]
    inputs: int = 1  # input sets per run; each is passed at least once


def cli(argv) -> tuple:
    """Run one CLI command in-process; returns (exit code, stderr text)."""
    from circdirac import cli as program

    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = program.main([str(a) for a in argv])
    return code, err.getvalue()


def _exit_check(code) -> Check:
    return Check("exit code", float(code), 0.0, code == 0, stopped=code != 0)


def _read_json(path) -> dict:
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# verify-all: the full acceptance suite, serially


def report_bytes(report: dict) -> bytes:
    """The report file exactly as ``circdirac verify --out`` writes it."""
    return (json.dumps(report, indent=2) + "\n").encode()


#: Criteria that test a law by Monte Carlo at the suite's 0.001 level
#: (KS, chi-square, a 3-standard-error band, a KS trend).  Over all of
#: them some seeds miss by chance, so a miss counts as a failed item but
#: does not make the run incorrect; the exact-identity criteria do.
MONTE_CARLO = {"kn-marginals", "palm-coefficient-law", "circular-jacobi",
               "sine-intensity", "biasing-trend"}


def verify_all(seed: int, k: int, tmp: Path) -> list:
    from circdirac import verify

    names = list(verify.SUITES["all"])
    info = {}

    def check(report):
        info["report_sha256"] = hashlib.sha256(report_bytes(report)).hexdigest()
        by_name = {c["name"]: c for c in report["criteria"]}
        out = {}
        for name in names:
            reports = by_name[name]["reports"] if name in by_name else []
            misses = sum(not r["pass"] for r in reports)
            out[name] = [Check(f"{name} checks failing", float(misses), 0.0,
                               bool(reports) and misses == 0,
                               hard=name not in MONTE_CARLO or not reports)]
        return out

    return [Step(items=names, run=lambda: verify.run_suite("all", seed + k),
                 check=check, info=info)]


# ---------------------------------------------------------------------------
# sine-window: few-lane eigenvalue search on long Sine_beta paths

SINE_BETAS = (1, 2, 4)
SINE_CELLS = 4096
SINE_WINDOW = (0.0, 62.83185307179586)  # [0, 20 pi)

#: Largest accepted |phase(lambda) - (2 pi k + 2 arccot(-q))| at a returned
#: atom.  The solver stops at a 1e-12 bracket in lambda, so the phase error
#: is that times the phase slope, which stays far below 1e-4 on these paths.
PHASE_TOL = 1e-8


def _check_sine(item: str, out: str, result) -> dict:
    from circdirac import dirac

    code, _ = result
    checks = [_exit_check(code)]
    if code == 0:
        op = dirac.DiracOperator.from_dict(_read_json(f"{out}.operator.json"))
        atoms = np.asarray(_read_json(f"{out}.spectrum.json")["atoms"],
                           dtype=float).reshape(-1, 2)
        lams = atoms[:, 0]
        count = dirac.eigenvalue_count(op, SINE_WINDOW)
        checks.append(Check("atoms minus eigenvalue_count", float(lams.size - count),
                            0.0, lams.size == count))
        a, b = op.u1
        # u1 = [-q, -1] for a finite slope q, [1, 0] for the infinite one
        u = 0.0 if b == 0.0 else 2.0 * math.atan2(1.0, -(a / b))
        alpha = np.atleast_1d(dirac.phase_at(op, lams))
        turns = np.round((alpha - u) / TWO_PI)
        resid = float(np.max(np.abs(alpha - u - TWO_PI * turns), initial=0.0))
        consecutive = bool(np.all(np.diff(turns) == 1.0))
        checks.append(Check("phase residual", resid, PHASE_TOL,
                            resid <= PHASE_TOL and consecutive))
    return {item: checks}


def sine_window(seed: int, k: int, tmp: Path) -> list:
    steps = []
    for beta in SINE_BETAS:
        item = f"beta={beta} stream={k}"
        out = str(tmp / f"sine-b{beta}-k{k}")
        argv = ["sine-beta", "--beta", beta, "--cells", SINE_CELLS,
                "--window", *map(repr, SINE_WINDOW), "--seed", seed,
                "--stream", k, "--out", out]
        steps.append(Step(items=[item], run=partial(cli, argv),
                          check=partial(_check_sine, item, out)))
    return steps


# ---------------------------------------------------------------------------
# bias: window-biased KN ensemble, batched draws, weighted KS, CSV write

BIAS_EPSILONS = (0.3, 0.1, 0.03)
BIAS_N = 6
BIAS_REPLICAS = 30_000


def _check_bias(item: str, out: str, result) -> dict:
    code, _ = result
    checks = [_exit_check(code)]
    if code == 0:
        with open(f"{out}.csv", newline="") as fh:
            rows = sum(1 for _ in csv.reader(fh)) - 1
        checks.append(Check("csv rows", float(rows), float(BIAS_REPLICAS),
                            rows == BIAS_REPLICAS))
        ks = [v for coord in _read_json(f"{out}.json")["ks_to_direct_law"].values()
              for v in coord.values()]
        outside = sum(not 0.0 <= v <= 1.0 for v in ks)
        checks.append(Check("KS values outside [0, 1]", float(outside), 0.0,
                            len(ks) == 2 * (BIAS_N - 1) and outside == 0))
    return {item: checks}


def bias(seed: int, k: int, tmp: Path) -> list:
    steps = []
    for eps in BIAS_EPSILONS:
        item = f"epsilon={eps} seed={seed + k}"
        out = str(tmp / f"bias-e{eps}-k{k}")
        argv = ["bias", "--n", BIAS_N, "--beta", 2, "--replicas", BIAS_REPLICAS,
                "--epsilon", eps, "--seed", seed + k, "--out", out]
        steps.append(Step(items=[item], run=partial(cli, argv),
                          check=partial(_check_bias, item, out)))
    return steps


# ---------------------------------------------------------------------------
# kn-lift: large-n coefficient <-> measure conversions and the spectral lift

KN_SIZES = (50, 100, 200, 400)

#: The spectral-lift gate of the acceptance suite: lambda / N against the
#: atom angles, and left weights against 2 N times the atom weights.
LIFT_TOL = 1e-8

#: Coefficients -> measure -> coefficients, largest absolute difference.
ROUNDTRIP_TOL = 1e-9


def _kn_draw(n: int, paths: dict, seed: int, k: int) -> list:
    calls = [
        ["kn-sample", "--n", n, "--beta", 2, "--seed", seed, "--stream", k,
         "--out", paths["kn"]],
        ["measure", "--coeffs", paths["kn"], "--out", paths["mu"]],
        ["measure", "--measure", paths["mu"], "--kind", "modified",
         "--out", paths["back"]],
        ["spectrum", "--measure", paths["mu"], "--side", "left",
         "--window", "0", repr(TWO_PI * n), "--out", paths["sp"]],
    ]
    return [cli(argv) for argv in calls]


def _refusal(stderr: str):
    """The message of the CLI's ValueError record, or None for other errors."""
    try:
        record = json.loads(stderr.strip().splitlines()[-1])
    except (IndexError, ValueError):
        return None
    return record.get("message") if record.get("error") == "ValueError" else None


def _check_kn(item: str, n: int, paths: dict, results) -> dict:
    failing = [(code, err) for code, err in results if code != 0]
    if failing:
        # At large N the conversions lose digits until the program refuses
        # its own output (say, weights that no longer sum to 1): part of
        # the known defect, so a ValueError refusal is a soft miss.
        refusals = [_refusal(err) for _, err in failing]
        name = (f"refused N={n}: {refusals[0]}" if all(refusals)
                else f"exit code N={n}")
        return {item: [Check(name, float(failing[0][0]), 0.0, False,
                             hard=not all(refusals), stopped=True)]}
    mu = _read_json(paths["mu"])
    ang = np.asarray(mu["angles"], dtype=float)
    w = np.asarray(mu["weights"], dtype=float)
    order = np.argsort(ang)
    ang, w = ang[order], w[order]
    atoms = np.asarray(_read_json(paths["sp"])["atoms"], dtype=float).reshape(-1, 2)
    checks = [Check("atoms minus N", float(len(atoms) - n), 0.0, len(atoms) == n)]
    if len(atoms) == n:
        lam_err = float(np.max(np.abs(atoms[:, 0] / n - ang)))
        w_err = float(np.max(np.abs(atoms[:, 1] - 2 * n * w) / (2 * n * w)))
        checks.append(Check(f"lift lambda/N error N={n}", lam_err, LIFT_TOL,
                            lam_err <= LIFT_TOL, hard=False))
        checks.append(Check(f"lift weight error N={n}", w_err, LIFT_TOL,
                            w_err <= LIFT_TOL, hard=False))
    kn = np.asarray(_read_json(paths["kn"])["values"], dtype=float)
    back = np.asarray(_read_json(paths["back"])["values"], dtype=float)
    rt = float(np.max(np.abs(kn - back))) if kn.shape == back.shape else math.inf
    checks.append(Check(f"coefficient roundtrip N={n}", rt, ROUNDTRIP_TOL,
                        rt <= ROUNDTRIP_TOL))
    return {item: checks}


def kn_lift(seed: int, k: int, tmp: Path) -> list:
    steps = []
    for n in KN_SIZES:
        item = f"N={n} stream={k}"
        paths = {key: str(tmp / f"kn{n}-k{k}-{key}.json")
                 for key in ("kn", "mu", "back", "sp")}
        steps.append(Step(items=[item], run=partial(_kn_draw, n, paths, seed, k),
                          check=partial(_check_kn, item, n, paths)))
    return steps


#: ``inputs``: one verify-all suite (35-65 s) or one sine-window pass
#: (21-30 s) fills a 20 s run alone.  kn-lift passes take 10-18 s; two
#: input sets fill the run and average two draws' costs.  bias passes
#: take 8-14 s.
WORKLOADS = {w.name: w for w in (
    Workload("verify-all", ("circdirac.verify",), verify_all, inputs=1),
    Workload("sine-window", ("circdirac.cli",), sine_window, inputs=1),
    Workload("bias", ("circdirac.cli",), bias, inputs=2),
    Workload("kn-lift", ("circdirac.cli",), kn_lift, inputs=2),
)}
