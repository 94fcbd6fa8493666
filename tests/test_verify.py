import ast
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from circdirac import cli, dirac, ensembles, verify
from circdirac.ensembles import (SeedSpec, SinePathSpec, sample_sine_operator,
                                 sample_sine_paths, sine_replicas)


#: The private names another module may use: the benchmark's tracer keys its
#: opuc.batch_us_per_replica metric on these two, which verify and ensembles call.
PRIVATE_ALLOWED = {"opuc": {"_measures_from_gammas_batch", "_measures_to_alphas_batch"}}


@pytest.mark.parametrize("module", ["dirac", "ensembles", "hyperbolic", "opuc", "stats"])
def test_no_private_name_is_used_outside_its_module(module):
    # each layer is reached through its public names; its private helpers
    # may change with it
    allowed = PRIVATE_ALLOWED.get(module, set())
    root = Path(__file__).resolve().parents[1]
    for path in (root / "src" / "circdirac").glob("*.py"):
        if path.stem == module:
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").endswith(module):
                names = [a.name for a in node.names]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == module):
                names = [node.attr]
            else:
                continue
            assert not [n for n in names if n.startswith("_") and n not in allowed], \
                (path.name, names)


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


def test_beta1_cdf_is_one_at_one():
    # |gamma_k|^2 = 1 would be log1p(-1) = -inf: no warning, and CDF 1
    out = verify._beta1_cdf(np.array([0.0, 0.25, 1.0]), 2.5)
    assert out.tolist() == [0.0, -math.expm1(2.5 * math.log1p(-0.25)), 1.0]


def test_gamma_weight_limit_memory_stays_below_one_megabyte():
    # the grid is walked in blocks: on the whole 400 001-point grid its
    # arrays and temporaries peaked at 15.3 MB
    tracemalloc.start()
    try:
        verify.criterion_gamma_weight_limit(7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_gamma_weight_limit_equals_the_whole_grid():
    # the reference takes each sup over the whole grid at once
    x = np.linspace(0.0, 80.0, 400_001)
    limit = -np.expm1(-0.5 * x)
    ks = {n: float(np.max(np.abs(-np.expm1((n - 1.0) * np.log1p(-x / (2.0 * n))) - limit)))
          for n in (100, 1000, 10000)}
    inc = max(ks[1000] - ks[100], ks[10000] - ks[1000])
    assert verify.criterion_gamma_weight_limit(7) == [
        ("2n Beta vs Gamma(beta/2, mean 2)",
         verify.TestReport(ks[10000], 0.01, 10000, f"analytic-CDF KS at n=1e4; values {ks}")),
        ("KS decreases over n = 1e2, 1e3, 1e4",
         verify.TestReport(inc, 0.0, 3, "largest successive increase; pass iff decreasing"))]


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
    # the intensity criterion counts eigenvalues from endpoint phases over
    # batches of rows, row i on stream i of the seed; it must agree with
    # dirac.eigenvalue_count per operator
    spec = SinePathSpec(beta=2.0, cells=128)
    lo, hi = 0.0, 20.0 * math.pi
    counts = sample_sine_paths(spec, [SeedSpec(99, i) for i in range(6)]).count((lo, hi))
    expected = [dirac.eigenvalue_count(sample_sine_operator(spec, SeedSpec(99, i)),
                                       (lo, hi)) for i in range(6)]
    np.testing.assert_array_equal(counts, expected)


@pytest.mark.parametrize("block", [1, 7])
def test_replica_values_do_not_depend_on_the_block(monkeypatch, block):
    # every sweep of a block runs chunked, so each row's count and its root
    # nearest 0 keep their bits whatever block the row falls in
    def values():
        counts = sine_replicas(SinePathSpec(beta=2.0, cells=128), 5, 20,
                               lambda batch: batch.count((0.0, 20.0 * math.pi)))
        nearest = sine_replicas(SinePathSpec(beta=2.0, cells=128, q=math.inf), 5, 20,
                                verify._nearest_roots)
        return counts, nearest

    counts, nearest = values()
    assert counts.sum() > 0 and np.all(nearest < 1e-10)
    monkeypatch.setattr(ensembles, "_BLOCK_ROWS", block)
    for got, want in zip(values(), (counts, nearest)):
        np.testing.assert_array_equal(got.view(np.int64), want.view(np.int64))


def test_endpoint_phases_match_separate_sweeps():
    spec = SinePathSpec(beta=2.0, cells=128)
    b = sample_sine_paths(spec, [SeedSpec(98, i) for i in range(5)])
    _, _, alo, ahi, _, _ = b._window((-0.5, 7.0))
    sweeps = (dirac._sweep(b.w, b.dt, b.start, np.full(5, lam), np.arange(5),
                           want_phase=True) for lam in (-0.5, 7.0))
    wlo, whi = (dirac._lift(g, half) for g, _, half in sweeps)
    np.testing.assert_array_equal(alo, 2.0 * wlo)
    np.testing.assert_array_equal(ahi, 2.0 * whi)


def test_palm_pins_zero_solves_for_the_root_at_zero():
    # at seed 201 one row holds a second eigenvalue in (-0.5, 0), so the
    # first target of the window is not the root at 0
    [(_, report)] = verify.criterion_palm_pins_zero(201)
    assert report.passed


def test_biasing_trend_draws_and_converts_once(monkeypatch, tmp_path):
    # the criterion and the bias-trend command each draw and convert once,
    # through the one owner of the experiment's draws
    calls = {"window_biasing": 0, "gammas_for": 0, "convert": 0}
    window_biasing = ensembles.window_biasing
    gammas_for = ensembles.KNMeasureSampler.gammas_for
    convert = ensembles._measures_from_gammas_batch

    def spy_window_biasing(*args):
        calls["window_biasing"] += 1
        return window_biasing(*args)

    def spy_gammas_for(self, base, replicas):
        calls["gammas_for"] += 1
        return gammas_for(self, base, replicas)

    def spy_convert(g):
        calls["convert"] += 1
        return convert(g)

    for module in (ensembles, verify):
        monkeypatch.setattr(module, "window_biasing", spy_window_biasing)
        monkeypatch.setattr(module, "_measures_from_gammas_batch", spy_convert)
    monkeypatch.setattr(ensembles.KNMeasureSampler, "gammas_for", spy_gammas_for)
    [(_, report)] = verify.criterion_biasing_trend(7)
    assert calls == {"window_biasing": 1, "gammas_for": 1, "convert": 1}
    assert report.passed
    assert cli.main(["bias-trend", "--replicas", "300", "--seed", "7",
                     "--out", str(tmp_path / "trend")]) == 0
    assert calls == {"window_biasing": 2, "gammas_for": 2, "convert": 2}


def test_random_measure_generator_is_well_conditioned():
    rng = SeedSpec(1, 0).rng()
    for n in (4, 8):
        for _ in range(20):
            mu = verify._random_measure(rng, n)
            assert mu.normalized
            op = dirac.measure_operator(mu)
            assert op.path.imag.min() > 1e-4
