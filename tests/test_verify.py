import ast
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from circdirac import dirac, ensembles, verify
from circdirac.ensembles import (SeedSpec, SinePathSpec, sample_sine_operator,
                                 sample_sine_paths)


def test_no_private_dirac_name_is_used_outside_dirac():
    # the operator core is reached through OperatorBatch and the public
    # functions; its private helpers may change with it
    root = Path(__file__).resolve().parents[1]
    files = [f for f in (root / "src" / "circdirac").glob("*.py") if f.name != "dirac.py"]
    for path in files + sorted((root / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("dirac"):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "dirac"):
                names = [node.attr]
            else:
                continue
            assert not [n for n in names if n.startswith("_")], (path.name, names)


def test_suites_cover_all_criteria():
    assert set(verify.SUITES["all"]) == set(verify.CRITERIA)
    for name in ("core", "distributional", "sine"):
        assert set(verify.SUITES[name]) <= set(verify.CRITERIA)


def test_thresholds_and_cdfs_do_not_load_scipy_stats():
    # palm-coefficient-law takes a KS and a chi-square threshold and
    # kn-marginals a Beta CDF; none of them may pull in scipy.stats, whose
    # import would only move the cold-start cost into the run
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, circdirac.verify as v, circdirac.stats; "
            "[v.CRITERIA[c](7) for c in ('palm-coefficient-law', 'kn-marginals')]; "
            "print('scipy.stats' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_unknown_suite_rejected():
    with pytest.raises(ValueError, match="unknown suite"):
        verify.run_suite("bogus", 1)


def test_run_suite_shape():
    report = verify.run_suite("core", 7)
    assert report["suite"] == "core"
    assert report["seed"] == 7
    assert report["all_pass"] is True
    names = [c["name"] for c in report["criteria"]]
    assert names == verify.SUITES["core"]
    for crit in report["criteria"]:
        for rep in crit["reports"]:
            assert set(rep) == {"check", "statistic", "threshold",
                                "sample_size", "pass", "notes"}


def test_worker_pool_gives_the_serial_report():
    assert verify.run_suite("core", 7, jobs=2) == verify.run_suite("core", 7, jobs=1)


def test_worker_pool_is_capped_at_the_suite_size(monkeypatch):
    # a forking pool starts all its workers at the first submit; the fake
    # records the size asked for and runs the work in this process
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        map = staticmethod(map)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setitem(verify.SUITES, "three", ["a", "b", "c"])
    for name in ("a", "b", "c"):
        monkeypatch.setitem(verify.CRITERIA, name, lambda seed: [])
    report = verify.run_suite("three", 7, jobs=10_000)
    assert sizes == [3]
    assert [c["name"] for c in report["criteria"]] == ["a", "b", "c"]
    verify.run_suite("three", 7, jobs=2)
    verify.run_suite("three", 7, jobs=1)
    assert sizes == [3, 2]


def test_batched_count_matches_per_operator():
    # the intensity criterion counts eigenvalues from endpoint phases over a
    # stacked path array; it must agree with dirac.eigenvalue_count per op
    spec = SinePathSpec(beta=2.0, cells=128)
    seeds = [SeedSpec(99, 0).stream(i) for i in range(6)]
    lo, hi = 0.0, 20.0 * math.pi
    counts = sample_sine_paths(spec, seeds).count((lo, hi))
    expected = [dirac.eigenvalue_count(sample_sine_operator(spec, s), (lo, hi))
                for s in seeds]
    np.testing.assert_array_equal(counts, expected)


def test_endpoint_phases_match_separate_sweeps():
    spec = SinePathSpec(beta=2.0, cells=128)
    b = sample_sine_paths(spec, [SeedSpec(98, i) for i in range(5)])
    _, _, alo, ahi, _, _ = b._window((-0.5, 7.0))
    wlo, whi = (dirac._sweep(b.v, b.r, b.dt, np.full(5, lam), b.start, np.arange(5),
                             want_phase=True)[4] for lam in (-0.5, 7.0))
    np.testing.assert_array_equal(alo, 2.0 * wlo)
    np.testing.assert_array_equal(ahi, 2.0 * whi)


def test_palm_pins_zero_solves_for_the_root_at_zero():
    # at seed 201 one row holds a second eigenvalue in (-0.5, 0), so the
    # first target of the window is not the root at 0
    [(_, report)] = verify.criterion_palm_pins_zero(201)
    assert report.passed


def test_biasing_trend_draws_and_converts_once(monkeypatch):
    calls = {"gammas_for": 0, "convert": 0}
    gammas_for = ensembles.KNMeasureSampler.gammas_for
    convert = ensembles._measures_from_gammas_batch

    def spy_gammas_for(self, base, replicas):
        calls["gammas_for"] += 1
        return gammas_for(self, base, replicas)

    def spy_convert(g):
        calls["convert"] += 1
        return convert(g)

    monkeypatch.setattr(ensembles.KNMeasureSampler, "gammas_for", spy_gammas_for)
    for module in (ensembles, verify):
        monkeypatch.setattr(module, "_measures_from_gammas_batch", spy_convert)
    [(_, report)] = verify.criterion_biasing_trend(7)
    assert calls == {"gammas_for": 1, "convert": 1}
    assert report.passed


def test_random_measure_generator_is_well_conditioned():
    rng = SeedSpec(1, 0).rng()
    for n in (4, 8):
        for _ in range(20):
            mu = verify._random_measure(rng, n)
            assert mu.normalized
            op = dirac.measure_operator(mu)
            assert op.path.imag.min() > 1e-4
