"""Run the benchmark over several seeds and summarize each metric.

    python3 bench/sweep.py --workload kn-lift --seeds 1-10 [--seconds 10]
                           [--trace 0|1] [--out bench/baseline.json]

Runs ``bench/run.py`` once per seed, one run at a time, and prints for
every metric the median, the quartiles and the spread (quartile distance
over the median, from ``statistics.quantiles(values, n=4)``).  With
``--out`` the summary is merged into that JSON file under the workload's
name and trace mode.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, required=True)
    parser.add_argument("--seconds", default="10")
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            cwd=BENCH.parent, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(seed, result["correct"], f"{result['failed']}/{result['attempted']}",
              " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)

    names = runs[0]["metrics"]
    summary = {
        "seeds": args.seeds, "seconds": float(args.seconds),
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {name: {"unit": runs[0]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"] for r in runs])}
                    for name in names},
    }
    for name, m in summary["metrics"].items():
        spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
        print(f"{name:36s} median {m['median']:.6g} {m['unit']}  "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {spread}")
    if args.out:
        data = json.loads(args.out.read_text()) if args.out.exists() else {}
        data[f"{args.workload} trace={args.trace}"] = summary
        args.out.write_text(json.dumps(data, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
