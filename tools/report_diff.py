"""Compare the reports and CSV artifacts of two `tools/report_hashes.py` work dirs.

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

The CSV artifacts `eigenvalues.csv`, `field.csv` and `localization.csv` of
each entry are compared cell by cell: for each that differs it prints the
columns whose cells changed, with the count of changed cells in each, and
the largest numeric difference among them.  A changed header or row count,
or a file on one side only, is flagged instead.

It exits 1 when either work dir holds no `out/*/report.json` (a work dir
given one level too deep, say), else 0.
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


def diff_csv(base: str, head: str) -> tuple[dict[str, int], float | None, list[str]]:
    """Changed cells per column, largest numeric difference (None if no numeric cell changed), flagged changes."""
    base_rows, head_rows = ([line.split(",") for line in text.splitlines()] or [[]] for text in (base, head))
    if base_rows[0] != head_rows[0]:
        return {}, None, [f"header: {','.join(base_rows[0])} -> {','.join(head_rows[0])}"]
    if len(base_rows) != len(head_rows):
        return {}, None, [f"rows: {len(base_rows) - 1} -> {len(head_rows) - 1}"]
    columns, largest = {}, None
    for b_row, h_row in zip(base_rows[1:], head_rows[1:]):
        for col, b, h in zip(base_rows[0], b_row, h_row):
            if b == h:
                continue
            columns[col] = columns.get(col, 0) + 1
            try:
                b_val, h_val = float(b), float(h)
            except ValueError:
                continue
            gap = math.inf if math.isnan(b_val) or math.isnan(h_val) else abs(h_val - b_val)
            largest = gap if largest is None else max(largest, gap)
    return columns, largest, []


CSV_ARTIFACTS = ("eigenvalues.csv", "field.csv", "localization.csv")


def diff_entry(base_dir: Path, head_dir: Path) -> list[str]:
    """One line per changed file of an entry (report.json, then its CSV artifacts) and per flagged change."""
    lines = []
    for file in ("report.json", *CSV_ARTIFACTS):
        base_path, head_path = base_dir / file, head_dir / file
        if not (base_path.exists() and head_path.exists()):
            if base_path.exists() or head_path.exists():
                lines.append(f"{file} only in the {'head' if head_path.exists() else 'base'} work dir")
            continue
        base, head = (p.read_text(encoding="utf-8") for p in (base_path, head_path))
        if base == head:
            continue
        if file == "report.json":
            count, largest, paths, flagged = diff_reports(json.loads(base), json.loads(head))
            if count:
                gap = "no float leaf changed" if largest is None else f"largest float difference {largest:.3g}"
                lines.append(f"{file}: {count} changed leaves, {gap}, in {', '.join(paths)}")
            lines.extend(f"  flagged {line}" for line in flagged)
        else:
            columns, largest, flagged = diff_csv(base, head)
            if columns:
                gap = "no numeric cell changed" if largest is None else f"largest numeric difference {largest:.3g}"
                cells = ", ".join(f"{col} ({count})" for col, count in columns.items())
                lines.append(f"{file}: {sum(columns.values())} changed cells, {gap}, in {cells}")
            lines.extend(f"flagged {file} {line}" for line in flagged)
    return lines


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base_work_dir")
    ap.add_argument("head_work_dir")
    args = ap.parse_args()
    roots = [Path(d, "out") for d in (args.base_work_dir, args.head_work_dir)]
    empty = [str(root) for root in roots if not any(root.glob("*/report.json"))]
    if empty:
        print(f"error: no out/*/report.json under {' or '.join(empty)}", file=sys.stderr)
        return 1
    names = sorted({p.parent.name for root in roots for f in ("report.json", *CSV_ARTIFACTS) for p in root.glob(f"*/{f}")})
    changed = 0
    for name in names:
        lines = diff_entry(*(root / name for root in roots))
        if lines:
            changed += 1
            print(f"{name}:")
            for line in lines:
                print(f"  {line}")
    print(f"{changed} of {len(names)} entries differ")
    return 0


if __name__ == "__main__":
    sys.exit(main())
