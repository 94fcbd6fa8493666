"""Count the code lines of the package and the options of its command line.

A code line is a source line that holds a token other than a comment, a
docstring or layout (newlines and indentation); a statement that spans
several lines counts each line it covers.  A docstring is a string
literal that is a whole statement: the first statement of a module, a
class or a function, or a bare string elsewhere.  The option count is the
number of option strings, --help excluded, summed over the subcommands of
``circdirac.cli.build_parser()``.

Usage: python tools/code_lines.py [SRC_DIR]   (default: src/circdirac)
"""

from __future__ import annotations

import argparse
import io
import sys
import token
import tokenize
from pathlib import Path

LAYOUT = {token.COMMENT, token.NL, token.NEWLINE, token.INDENT, token.DEDENT,
          token.ENCODING, token.ENDMARKER}


def code_lines(source: str) -> int:
    """Lines of ``source`` that hold code: no comments, docstrings or blanks."""
    lines = set()
    statement_start = True
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in LAYOUT:
            statement_start = statement_start or tok.type in (
                token.NEWLINE, token.INDENT, token.DEDENT)
            continue
        if not (statement_start and tok.type == token.STRING and _bare(tok, source)):
            lines.update(range(tok.start[0], tok.end[0] + 1))
        statement_start = False
    return len(lines)


def _bare(tok, source: str) -> bool:
    """True if the string token ``tok`` is a statement on its own lines."""
    rest = source.splitlines()[tok.end[0] - 1][tok.end[1]:].strip()
    return rest == "" or rest.startswith("#")


def option_count() -> int:
    """Option strings over all subcommands of the circdirac parser, --help excluded."""
    from circdirac.cli import build_parser

    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sum(len([s for s in action.option_strings if s not in ("-h", "--help")])
               for p in sub.choices.values() for action in p._actions)


def main(argv=None) -> int:
    root = Path(__file__).resolve().parents[1]
    src = Path(argv[0]) if argv else root / "src" / "circdirac"
    total = 0
    for path in sorted(src.glob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(f"{path.name:16s} {n:5d}")
    print(f"{'total':16s} {total:5d}")
    sys.path.insert(0, str(src.parent))
    print(f"{'cli options':16s} {option_count():5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
