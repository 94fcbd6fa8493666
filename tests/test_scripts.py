"""Smoke tests: the experiment scripts run end to end at tiny sizes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name, args, keys", [
    ("bias_trend.py",
     ["--replicas", "300", "--direct-draws", "1000", "--seed", "7"],
     {"experiment", "n", "beta", "replicas", "seed", "epsilon", "max_ks",
      "monotone_decreasing"}),
    ("sine_intensity.py",
     ["--cells", "64", "--replicas", "4", "--seed", "7"],
     {"experiment", "beta", "t_min", "cells", "replicas", "seed", "window",
      "mean_count", "mc_standard_error", "expected"}),
], ids=["bias_trend", "sine_intensity"])
def test_script_runs(tmp_path, name, args, keys):
    out = tmp_path / "run"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args, "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert set(json.loads(Path(f"{out}.json").read_text())) == keys
    assert Path(f"{out}.csv").exists()
