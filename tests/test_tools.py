import importlib.util
import json
from pathlib import Path

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


def test_solve_counts_prints_one_record(capsys, monkeypatch):
    tool = load_tool("solve_counts")
    # a small run: one KN size, one beta, four rows per Sine batch, one
    # timed solve each
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
    assert palm["roots"] >= 4 and palm["lane_sweeps"] >= 2 * 4 + palm["roots"]
    # [0, 20 pi) holds about ten eigenvalues of each row
    assert sine["roots"] >= 4 and sine["lane_sweeps"] >= 2 * 4 + sine["roots"]
    assert 0.0 < kn["best_s"] and 0.0 < palm["best_s"] and 0.0 < sine["best_s"]
