"""Compare two ``circdirac verify`` reports check by check.

Prints the sha256 of each file, then one line for each check whose
statistic, threshold, pass or notes differ, as

    <criterion> | <check>: statistic OLD -> NEW (rel +1.2e-15)

(one line per differing field; the relative change is (NEW - OLD) / |OLD|),
a line for each check that only one report holds, or ``identical`` when
no check differs.  Exits 0 when no check differs and 1 otherwise, as
diff does.

Usage: python tools/report_diff.py OLD NEW
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

FIELDS = ("statistic", "threshold", "pass", "notes")


def checks(report: dict) -> dict:
    """{(criterion, check): record} of a verify report."""
    return {(crit["name"], rec["check"]): rec
            for crit in report["criteria"] for rec in crit["reports"]}


def _change(field: str, old, new) -> str:
    text = f"{field} {old!r} -> {new!r}"
    if field in ("statistic", "threshold"):
        rel = (new - old) / abs(old) if old != 0 else float("inf")
        text += f" (rel {rel:+.1e})"
    return text


def differences(old: dict, new: dict) -> list:
    """One line per differing field, or per check held by one report only.

    Fields are compared by repr, so a nan statistic equals itself.
    """
    a, b = checks(old), checks(new)
    lines = []
    for key in list(a) + [k for k in b if k not in a]:
        name = " | ".join(key)
        if key not in b or key not in a:
            lines.append(f"{name}: only in {'old' if key in a else 'new'}")
            continue
        lines += [f"{name}: {_change(f, a[key][f], b[key][f])}"
                  for f in FIELDS if repr(a[key][f]) != repr(b[key][f])]
    return lines


def main(argv=None) -> int:
    paths = [Path(p) for p in (sys.argv[1:] if argv is None else argv)]
    if len(paths) != 2:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    for label, path in zip(("old", "new"), paths):
        print(f"{label} {hashlib.sha256(path.read_bytes()).hexdigest()}  {path}")
    old, new = (json.loads(p.read_text()) for p in paths)
    lines = differences(old, new)
    print("\n".join(lines) if lines else "identical")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
