import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_code_lines():
    return load_tool("code_lines")


def test_code_lines_skip_comments_docstrings_and_blanks():
    snippet = '''"""Module docstring,
over two lines."""
import math  # a comment

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring."""
        text = """a string that is
not a docstring"""
        return math.sqrt(
            x)
'''
    # import, class, def, the two lines of text, the two lines of return
    assert load_code_lines().code_lines(snippet) == 7



def test_conversion_timing_prints_one_record(capsys):
    assert load_tool("conversion_timing").main(["3", "4"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert (record["rows"], record["n"]) == (3, 4)
    assert 0.0 < record["best_s"]
    assert 0.0 < record["maxrss_mb_before"] <= record["maxrss_mb_after"]


def test_criterion_peaks_prints_a_record_per_criterion(capsys):
    tool = load_tool("criterion_peaks")
    assert tool.main(["7", "trace-hs-closed-form"]) == 0
    [line] = capsys.readouterr().out.splitlines()
    record = json.loads(line)
    assert (record["criterion"], record["seed"]) == ("trace-hs-closed-form", 7)
    assert 0.0 < record["wall_s"]
    # the baseline holds numpy and the package
    assert 10.0 < record["baseline_mb"] <= record["peak_mb"]
    with pytest.raises(SystemExit) as exc:
        tool.main(["7", "no-such-criterion"])
    assert exc.value.code == 2


def test_criterion_peaks_chain_runs_the_criteria_in_one_process(capsys):
    tool = load_tool("criterion_peaks")
    names = ["lattice-closed-form", "trace-hs-closed-form"]
    assert tool.main(["7", "--chain", *names]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["criterion"] for r in records] == names
    # one interpreter: one baseline, and a peak that never falls
    assert len({r["baseline_mb"] for r in records}) == 1
    peaks = [records[0]["baseline_mb"]]
    for r in records:
        peaks += [r["before_mb"], r["peak_mb"]]
    assert peaks == sorted(peaks)


def test_sweep_timing_prints_a_record_per_case(capsys, monkeypatch):
    tool = load_tool("sweep_timing")
    # a small run: 64 Sine cells in 3 rows, a KN operator of 20 cells
    monkeypatch.setattr(tool, "SINE_ROWS", 3)
    monkeypatch.setattr(tool, "SINE_CELLS", 64)
    monkeypatch.setattr(tool, "KN_N", 20)
    monkeypatch.setattr(tool, "REPEAT", 1)
    assert tool.main(["1", "600"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [(r["case"], r["cells"], r["lanes"], r["variant"]) for r in records] == [
        (case, cells, lanes, variant) for case, cells in (("sine", 64), ("kn", 20))
        for lanes in (1, 600) for variant in ("phase", "derivative", "both")]
    # 64 cells run 8 chunks and 20 cells 4 below 512 lanes; 600 lanes the plain loop
    assert [r["chunks"] for r in records] == [8] * 3 + [1] * 3 + [4] * 3 + [1] * 3
    for r in records:
        assert 0.0 < r["best_ms"]
        assert r["ns_per_cell_lane"] == pytest.approx(
            1e6 * r["best_ms"] / (r["cells"] * r["lanes"]), rel=1e-2, abs=0.01)
    # forced chunks, whatever the lane count; the chunk rule is put back
    from circdirac import dirac

    assert tool.main(["--chunks", "chunked", "600"]) == 0
    records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [r["chunks"] for r in records] == [8] * 3 + [4] * 3
    assert dirac._chunk_count(600, 64) == 1 and dirac._chunk_count(1, 64) == 8


def test_solve_counts_prints_one_record(capsys, monkeypatch):
    tool = load_tool("solve_counts")
    # a small run: one KN size, one beta, four rows per Sine batch, the
    # palm-pins-zero rows in blocks of 3, one timed solve each
    from circdirac import ensembles

    monkeypatch.setattr(ensembles, "_BLOCK_ROWS", 3)
    monkeypatch.setattr(tool, "KN_SIZES", (50,))
    monkeypatch.setattr(tool, "REPLICAS", 4)
    monkeypatch.setattr(tool, "SINE_BETAS", (0.5,))
    monkeypatch.setattr(tool, "SINE_ROWS", 4)
    monkeypatch.setattr(tool, "REPEAT", 1)
    assert tool.main(["13"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert sorted(record) == ["kn50", "palm-pins-zero", "seed", "sine0.5"]
    assert record["seed"] == 13
    kn, palm, sine = record["kn50"], record["palm-pins-zero"], record["sine0.5"]
    # the endpoint sweep and at least one solver sweep of every root
    assert kn["roots"] == 50 and kn["sweeps"] >= 2 and kn["lane_sweeps"] >= 2 + 50
    assert palm["blocks"] == 2
    assert palm["roots"] >= 4 and palm["lane_sweeps"] >= 2 * 4 + palm["roots"]
    # [0, 20 pi) holds about ten eigenvalues of each row
    assert sine["roots"] >= 4 and sine["lane_sweeps"] >= 2 * 4 + sine["roots"]
    assert 0.0 < kn["best_s"] and 0.0 < palm["best_s"] and 0.0 < sine["best_s"]
    # every root of these batches sits at its own target's turn
    for rec in (kn, palm, sine):
        assert rec["off_target"] == 0 and 0.0 <= rec["worst_off_turns"] < 0.25
    # each root taken for the target before its own misses by one turn
    from circdirac.dirac import coefficient_operator
    from circdirac.ensembles import SeedSpec, sample_kn

    batch = coefficient_operator(sample_kn(50, 2.0, SeedSpec(13, 0))).batch
    window = (0.0, 100.0 * math.pi)
    lams, row = batch.eigenvalues(window)
    miss = tool.target_misses(batch, window, lams[1:], row[1:])
    assert all(abs(m - 1.0) < 1e-3 for m in miss)


def test_lift_errors_prints_one_record(capsys, monkeypatch):
    tool = load_tool("lift_errors")
    # one seed, both streams, two small sizes
    monkeypatch.setattr(tool, "KN_SIZES", (50, 100))
    assert tool.main(["203", "203"]) == 0
    record = json.loads(capsys.readouterr().out)
    assert record["seeds"] == [203, 203] and record["draws"] == 4
    assert record["misses"] == []
    assert 0.0 <= record["worst_lambda_err"] <= tool.LIFT_TOL
    assert 0.0 < record["worst_weight_err"] <= tool.LIFT_TOL
    assert record["worst_weight_at"]["seed"] == 203
    # the operators reloaded from their JSON give the same errors
    assert record["worst_reloaded_weight_err"] == record["worst_weight_err"]
    # under a gate no draw can meet, every draw is a miss with its errors,
    # and the tool exits 1
    monkeypatch.setattr(tool, "LIFT_TOL", -1.0)
    assert tool.main(["203", "203"]) == 1
    misses = json.loads(capsys.readouterr().out)["misses"]
    assert [(m["stream"], m["n"]) for m in misses] == [(0, 50), (0, 100), (1, 50), (1, 100)]
    assert max(m["weight_err"] for m in misses) == record["worst_weight_err"]


def test_lift_errors_exits_1_on_a_refused_draw(capsys, monkeypatch):
    tool = load_tool("lift_errors")
    monkeypatch.setattr(tool, "KN_SIZES", (50,))
    monkeypatch.setattr(tool, "STREAMS", (0,))

    def refuse(seed, stream, n):
        raise ValueError("conditioning: refused")

    monkeypatch.setattr(tool, "lift_errors", refuse)
    assert tool.main(["203", "203"]) == 1
    record = json.loads(capsys.readouterr().out)
    assert record["misses"] == [{"seed": 203, "stream": 0, "n": 50,
                                 "refused": "conditioning: refused"}]


@pytest.mark.parametrize("seed, stream, n", [(203, 1, 400), (257, 0, 200)])
def test_reloaded_kn_operators_meet_the_lift_gate(seed, stream, n):
    # an operator read back from its JSON is its steps: the draws that
    # missed the gate when the JSON held the path meet it
    tool = load_tool("lift_errors")
    direct, reloaded = tool.lift_errors(seed, stream, n)
    assert reloaded == direct
    assert max(reloaded) <= tool.LIFT_TOL


def write_report(path, checks):
    """A verify report of one criterion per (criterion, check, statistic, notes)."""
    criteria = [{"name": crit, "pass": stat < 1.0,
                 "reports": [{"check": check, "statistic": stat, "threshold": 1.0,
                              "sample_size": 10, "pass": stat < 1.0, "notes": notes}]}
                for crit, check, stat, notes in checks]
    path.write_text(json.dumps({"suite": "all", "seed": 7, "criteria": criteria,
                                "all_pass": all(c["pass"] for c in criteria)}, indent=2))
    return path


def test_report_diff_lists_each_moved_field(tmp_path, capsys):
    tool = load_tool("report_diff")
    old = write_report(tmp_path / "old.json", [
        ("chi", "cells", 0.5, "chi2 dof=9"), ("ks", "coords", 0.25, "KS"),
        ("nan", "stat", float("nan"), ""), ("gone", "check", 0.1, "")])
    new = write_report(tmp_path / "new.json", [
        ("chi", "cells", 0.5000000001, "chi2 dof=9"), ("ks", "coords", 2.0, "KS!"),
        ("nan", "stat", float("nan"), ""), ("added", "check", 0.1, "")])
    assert tool.main([str(old), str(new)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("old ") and out[0].endswith(f"  {old}")
    assert out[1].startswith("new ") and out[1].endswith(f"  {new}")
    assert len(out[0].split()[1]) == 64 and out[0].split()[1] != out[1].split()[1]
    assert out[2:] == [
        "chi | cells: statistic 0.5 -> 0.5000000001 (rel +2.0e-10)",
        "ks | coords: statistic 0.25 -> 2.0 (rel +7.0e+00)",
        "ks | coords: pass True -> False",
        "ks | coords: notes 'KS' -> 'KS!'",
        "gone | check: only in old",
        "added | check: only in new",
    ]


def test_report_diff_identical(tmp_path, capsys):
    tool = load_tool("report_diff")
    checks = [("chi", "cells", 0.5, "chi2 dof=9"), ("nan", "stat", float("nan"), "")]
    old = write_report(tmp_path / "old.json", checks)
    new = write_report(tmp_path / "new.json", checks)
    assert tool.main([str(old), str(new)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].split()[1] == out[1].split()[1]
    assert out[2:] == ["identical"]
