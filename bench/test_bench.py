"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest bench -q

They are not part of the repository's test suite (pytest's testpaths is
``tests``); the verify-all comparison alone runs the suite twice, which
takes about a minute and a half on a 2-core machine.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run as harness  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

harness.load_program(("circdirac.cli",))

from circdirac import verify  # noqa: E402


def _references() -> dict:
    """Every object a tracer may replace, by where it is held."""
    refs = {}
    for short, mod in tracing.package_modules().items():
        refs.update({(short, name): obj for name, obj in vars(mod).items()})
    refs.update({("CRITERIA", name): fn for name, fn in verify.CRITERIA.items()})
    for short, cls_name in tracing.WRAPPED_CLASSES:
        cls = vars(tracing.package_modules()[short])[cls_name]
        refs.update({(cls_name, name): fn for name, fn in vars(cls).items()})
    return refs


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_tracer_restores_every_original(tmp_path):
    before = _references()
    tr = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tr:
            during = _references()
            harness.run_pass(workloads.kn_lift(5, 0, tmp_path)[:1], tracer=tr)
            raise RuntimeError("leave the traced block early")
    assert not _same(before, during)
    assert {"cli.main", "dirac.spectral_measure", "opuc.measure_to_alpha",
            "hyperbolic.is_inf"} <= {s[0] for s in tr.spans}
    assert _same(before, _references())


def test_layer_self_times_and_bench_time_sum_to_traced_wall(tmp_path):
    steps = workloads.kn_lift(5, 0, tmp_path)[:2]
    with tracing.Tracer() as tr:
        wall, results = harness.run_pass(steps, tracer=tr)
    spans = tr.spans
    assert all(t >= 0.0 for t in tracing.self_times(spans))
    for s in spans:
        assert s[1] in tracing.LAYERS
        if s[4] >= 0:
            parent = spans[s[4]]
            assert parent[2] <= s[2] <= s[3] <= parent[3]
            assert s[5] == parent[5]
    assert {s[5] for s in spans} == {step.items[0] for step in steps}
    values = tracing.layer_metrics(spans, verify.SUITES["all"], wall, wall)
    layers = sum(values[f"{layer}.self_s"] for layer in tracing.LAYERS)
    own = tracing.bench_own_time(spans, wall)
    assert 0.0 <= own < 0.01 * wall
    assert layers + own == pytest.approx(wall, rel=1e-12)


def test_traced_and_untraced_verify_all_write_the_same_report(tmp_path):
    (step,) = workloads.verify_all(7, 0, tmp_path)
    plain = workloads.report_bytes(step.run())
    with tracing.Tracer() as tr:
        traced = workloads.report_bytes(step.run())
    assert traced == plain
    criteria = {s[0] for s in tr.spans if s[4] >= 0 and tr.spans[s[4]][0] == "verify.run_suite"}
    assert criteria == {f"verify.{name}" for name in verify.SUITES["all"]}


def test_tally_counts_each_item_once():
    ok = {"passed": True, "hard": True}
    soft = {"passed": False, "hard": False}
    passes = [{"items": {"a": [ok], "b": [ok]}},
              {"items": {"a": [ok], "b": [soft]}},
              {"items": {"a": [ok], "b": [ok]}}]
    assert harness.tally(passes) == (2, 1, True)
    passes[0]["items"]["a"] = [{"passed": False, "hard": True}]
    assert harness.tally(passes) == (2, 2, False)


def test_passes_cut_short_are_not_timed():
    ok = {"passed": True, "stopped": False}
    refused = {"passed": False, "stopped": True}
    passes = [{"wall_s": 4.0, "items": {"a": [ok], "b": [refused]}},
              {"wall_s": 13.0, "items": {"a": [ok], "b": [ok]}},
              {"wall_s": 4.1, "items": {"a": [ok], "b": [refused]}}]
    assert harness.whole_walls(passes) == [13.0]
    assert harness.whole_walls([passes[0], passes[2]]) == [4.0, 4.1]


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.layer_metric_names(verify.SUITES["all"])
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "kn-lift", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
