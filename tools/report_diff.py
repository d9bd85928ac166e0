"""Compare the reports of two `tools/report_hashes.py` work dirs, leaf by leaf.

Usage (from the repository root):

    python tools/report_diff.py BASE_WORK_DIR HEAD_WORK_DIR

For each `out/<entry>/report.json` that differs between the two work dirs,
it prints the number of changed leaves, the largest absolute difference
among the changed float leaves (inf where one side is NaN) and the paths of
the changed leaves, list indices folded to [*].  Every other change is
flagged on a line of its own: a key or a whole report present on one side
only, a changed string, integer, bool or null, a list whose length changed,
and a leaf whose type changed.  Where only floats changed, the largest
difference says how far the numbers moved, which a hash cannot.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path


def _leaf_changes(base, head, path: str):
    """(path, base, head) for each changed leaf; a changed key set or list length is one leaf."""
    if isinstance(base, dict) and isinstance(head, dict):
        for key in sorted(base.keys() | head.keys()):
            sub = f"{path}.{key}" if path else key
            if key not in base or key not in head:
                yield sub, base.get(key, "<absent>"), head.get(key, "<absent>")
            else:
                yield from _leaf_changes(base[key], head[key], sub)
    elif isinstance(base, list) and isinstance(head, list):
        if len(base) != len(head):
            yield f"{path} (length)", len(base), len(head)
        else:
            for i, (b, h) in enumerate(zip(base, head)):
                yield from _leaf_changes(b, h, f"{path}[{i}]")
    elif type(base) is not type(head) or not (base == head or (_is_nan(base) and _is_nan(head))):
        yield path, base, head


def _is_nan(x) -> bool:
    return isinstance(x, float) and math.isnan(x)


def diff_reports(base: dict, head: dict) -> tuple[int, float | None, list[str], list[str]]:
    """Changed leaf count, largest float difference (None if no float changed), changed paths and flagged changes."""
    count, largest, paths, flagged = 0, None, set(), []
    for path, b, h in _leaf_changes(base, head, ""):
        count += 1
        paths.add(re.sub(r"\[\d+\]", "[*]", path))
        if type(b) is float and type(h) is float:
            gap = math.inf if _is_nan(b) or _is_nan(h) else abs(h - b)
            largest = gap if largest is None else max(largest, gap)
        else:
            flagged.append(f"{path}: {b!r} -> {h!r}")
    return count, largest, sorted(paths), flagged


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_work_dir")
    ap.add_argument("head_work_dir")
    args = ap.parse_args()
    roots = [Path(d, "out") for d in (args.base_work_dir, args.head_work_dir)]
    names = sorted({p.parent.name for root in roots for p in root.glob("*/report.json")})
    changed = 0
    for name in names:
        base_path, head_path = (root / name / "report.json" for root in roots)
        if not (base_path.exists() and head_path.exists()):
            changed += 1
            print(f"{name}: report.json only in the {'head' if head_path.exists() else 'base'} work dir")
            continue
        base, head = (json.loads(p.read_text(encoding="utf-8")) for p in (base_path, head_path))
        count, largest, paths, flagged = diff_reports(base, head)
        if not count:
            continue
        changed += 1
        gap = "no float leaf changed" if largest is None else f"largest float difference {largest:.3g}"
        print(f"{name}: {count} changed leaves, {gap}, in {', '.join(paths)}")
        for line in flagged:
            print(f"  flagged {line}")
    print(f"{changed} of {len(names)} reports differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
