"""Benchmark of circdirac: end-to-end metrics per workload, or a traced run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/`` of
the checkout (it need not be installed); every CLI output goes to a
temporary directory under ``bench/.runs``, removed at the end.

``--trace 0`` times untraced passes of the workload for at least S
seconds, and at least one pass of each of the workload's input sets,
cycling through them, and reports

    wall_s       median wall time of one pass, over the passes in
                 which no call raised or exited non-zero            (s)
    setup_s      median, over fresh interpreters, of starting Python
                 and importing the modules the workload uses        (s)
    peak_rss_mb  peak resident memory of this process               (MB)

``--trace 1`` runs pass 0 untraced, then again traced, and reports the
per-layer metrics of ``tracer.layer_metric_names``.  Both modes check
every output.  ``attempted`` counts distinct items, so it depends on the
seed alone; an item is failed when any of its passes missed a check.  The
failed share of the attempted items is printed as ``fail_ratio``.  The last stdout line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  A record of the
run (environment, passes, checks, and in trace mode the spans) is written
to ``bench/.runs/<workload>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUNS = BENCH / ".runs"

#: Fresh interpreters started to measure setup_s; the median is reported.
SETUP_SPAWNS = 5

#: BLAS runs single-threaded: on a 2-core machine a second BLAS thread
#: contends with the interpreter and makes the O(n^3) conversions jitter.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def load_program(modules) -> None:
    """Import circdirac from the checkout's src/, never from elsewhere."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in modules:
        importlib.import_module(name)
    import circdirac

    where = Path(circdirac.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise RuntimeError(f"circdirac was imported from {where}, not from src/")


def setup_seconds(modules) -> float:
    code = f"import sys; sys.path.insert(0, {str(SRC)!r}); import {', '.join(modules)}"
    times = []
    for _ in range(SETUP_SPAWNS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def _cache_kib() -> dict:
    sizes = {}
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"l{level}_kib"] = int(size[:-1])
    return sizes


def _blas_threads():
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import circdirac
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        **_cache_kib(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "circdirac_from": str(Path(circdirac.__file__).resolve().relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------
# passes


def run_pass(steps, tracer=None):
    """Call every step; returns (wall seconds, [(step, result, error)])."""
    results = []
    t0 = time.perf_counter()
    for step in steps:
        if tracer is not None:
            tracer.item = step.items[0] if len(step.items) == 1 else None
        try:
            results.append((step, step.run(), None))
        except Exception as exc:  # an item that raises is a failed item
            results.append((step, None, f"{type(exc).__name__}: {exc}"))
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.item = None
    return wall, results


def check_pass(results) -> dict:
    """Item id -> list of check dicts, for every item of the pass."""
    from workloads import Check

    items = {}
    for step, result, error in results:
        if error is None:
            try:
                outcome = step.check(result)
            except Exception as exc:  # unreadable or malformed outputs
                error = f"check raised {type(exc).__name__}: {exc}"
        if error is not None:
            outcome = {i: [Check(error, 1.0, 0.0, False, stopped=True)]
                       for i in step.items}
        for item, checks in outcome.items():
            items[item] = [vars(c) for c in checks]
    return items


def tally(passes):
    """(attempted, failed, correct) over the distinct items of the passes."""
    misses = {}
    for p in passes:
        for item, checks in p["items"].items():
            misses.setdefault(item, []).extend(c for c in checks if not c["passed"])
    failed = sum(bool(m) for m in misses.values())
    correct = not any(c["hard"] for m in misses.values() for c in m)
    return len(misses), failed, correct


def whole_walls(passes) -> list:
    """Wall times of the passes in which no item stopped early.

    A pass with a refused or crashed call skips the rest of that item's
    work (at N = 400 a refusal saves two thirds of a kn-lift pass), so
    its time would read as a speed-up.  It counts as failed instead.  If
    every pass stopped early, all of them are timed.
    """
    whole = [p["wall_s"] for p in passes
             if not any(c["stopped"] for cs in p["items"].values() for c in cs)]
    return whole or [p["wall_s"] for p in passes]


def worst_checks(passes) -> dict:
    """Check name -> (largest value, limit, misses) over every item."""
    worst = {}
    for p in passes:
        for checks in p["items"].values():
            for c in checks:
                value, limit, misses = worst.get(c["name"], (c["value"], c["limit"], 0))
                worst[c["name"]] = (max(value, c["value"]), limit,
                                    misses + (not c["passed"]))
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "circdirac" / "__init__.py").is_file():
        print(f"error: no circdirac package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)  # before numpy is first imported
    sys.path.insert(0, str(BENCH))
    import tracer as tracing
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    load_program(workload.imports)
    env = environment()

    RUNS.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="tmp-", dir=RUNS))
    record = {"workload": workload.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "passes": []}
    try:
        if args.trace:
            metrics, units = traced_run(workload, args.seed, tmp, record, tracing)
        else:
            metrics, units = timed_run(workload, args.seed, args.seconds, tmp, record)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    attempted, failed, correct = tally(record["passes"])
    record["metrics"] = metrics
    out = RUNS / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n")

    print(f"env: {json.dumps(env)}")
    timed = record.get("timed_passes", len(record["passes"]))
    print(f"workload {workload.name} seed {args.seed}: {len(record['passes'])} pass(es)"
          f", {timed} timed; record {out.relative_to(ROOT)}")
    for name, (value, limit, misses) in worst_checks(record["passes"]).items():
        print(f"  check {name}: worst {value:.6g} (limit {limit:.6g}), {misses} missed")
    for p in record["passes"]:
        for key, value in p["info"].items():
            print(f"  pass {p['k']} {key}: {value}")
    for name, value in metrics.items():
        idle = "  (not exercised by this workload)" if args.trace and value == 0 else ""
        print(f"  {name:36s} {value!r:>24} {units[name]}{idle}")
    print(f"  {'fail_ratio':36s} {failed / attempted!r:>24} 1 ({failed}/{attempted})")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def _record_pass(record, k, wall, results, traced=False) -> None:
    record["passes"].append({
        "k": k, "wall_s": wall, "traced": traced,
        "items": check_pass(results),
        "info": {key: v for step, _, _ in results for key, v in step.info.items()},
    })


def timed_run(workload, seed, seconds, tmp, record):
    setup = setup_seconds(workload.imports)
    start = time.perf_counter()
    k = 0
    while k < workload.inputs or time.perf_counter() - start < seconds:
        wall, results = run_pass(workload.steps(seed, k % workload.inputs, tmp))
        _record_pass(record, k, wall, results)
        k += 1
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls = whole_walls(record["passes"])
    record["timed_passes"] = len(walls)
    metrics = {"wall_s": statistics.median(walls), "setup_s": setup, "peak_rss_mb": peak}
    return metrics, {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def traced_run(workload, seed, tmp, record, tracing):
    from circdirac import verify

    criteria = list(verify.SUITES["all"])
    untraced, results = run_pass(workload.steps(seed, 0, tmp))
    _record_pass(record, 0, untraced, results)
    tr = tracing.Tracer()
    with tr:
        traced, results = run_pass(workload.steps(seed, 0, tmp), tracer=tr)
    _record_pass(record, 0, traced, results, traced=True)
    units = dict(tracing.layer_metric_names(criteria))
    values = tracing.layer_metrics(tr.spans, criteria, traced, untraced)
    record["bench_own_s"] = tracing.bench_own_time(tr.spans, traced)
    record["spans"] = tr.spans
    return {name: values[name] for name in units}, units


if __name__ == "__main__":
    sys.exit(main())
