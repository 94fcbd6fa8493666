import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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

