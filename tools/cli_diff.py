"""Compare two tools/cli_outputs.py directories field by field.

    python3 tools/cli_diff.py A B

For every file whose bytes differ between A and B, print the number of
numeric fields that differ, the largest absolute and relative difference
among them, where the relative difference of a and b is
|a - b| / max(|a|, |b|), and the line (of A's file) of the largest relative
one.  Lines that start with "# probitgp " (the resolved-command headers)
are left out of the comparison.

A line is split into fields at whitespace, commas, "=" and ":", and the
separators must agree.  Any other difference is reported as non-numeric: a
file present in only one directory, a different number of lines or fields,
a field that differs and is not a number in both files, or a number that
is finite in one file and not in the other.  Exit status: 0 when every
difference is numeric, 1 when any is not, 2 on a usage error.
"""

import math
import re
import sys
from pathlib import Path

HEADER = "# probitgp "
_SPLIT = re.compile(r"([\s,=:]+)")


def _number(text):
    try:
        return float(text)
    except ValueError:
        return None


def _lines(path):
    """(line number, text) of every line of path but the headers."""
    text = path.read_text(encoding="utf-8", errors="surrogateescape")
    return [(row, line) for row, line in enumerate(text.splitlines(), 1)
            if not line.startswith(HEADER)]


def compare_files(a, b):
    """(count, max_abs, max_rel, rel_line, problem) over the numeric fields
    that differ between files a and b, rel_line holding the largest relative
    difference; problem names the first non-numeric difference, or is None."""
    lines_a, lines_b = _lines(a), _lines(b)
    if len(lines_a) != len(lines_b):
        return 0, 0.0, 0.0, 0, f"{len(lines_a)} lines against {len(lines_b)}"
    count, max_abs, max_rel, rel_line = 0, 0.0, 0.0, 0
    for (row, line_a), (_, line_b) in zip(lines_a, lines_b):
        if line_a == line_b:
            continue
        parts_a, parts_b = _SPLIT.split(line_a), _SPLIT.split(line_b)
        if len(parts_a) != len(parts_b):
            return count, max_abs, max_rel, rel_line, f"line {row}: the fields differ in number"
        for k, (x, y) in enumerate(zip(parts_a, parts_b)):
            if x == y:
                continue
            u, v = _number(x), _number(y)
            if k % 2 or u is None or v is None or not (math.isfinite(u) and math.isfinite(v)):
                return count, max_abs, max_rel, rel_line, f"line {row}: {x!r} against {y!r}"
            diff = abs(u - v)
            count += 1
            max_abs = max(max_abs, diff)
            if diff / max(abs(u), abs(v)) > max_rel:
                max_rel, rel_line = diff / max(abs(u), abs(v)), row
    return count, max_abs, max_rel, rel_line, None


def main(argv):
    if len(argv) != 2 or not all(Path(d).is_dir() for d in argv):
        print("usage: cli_diff.py A B  (two cli_outputs.py directories)", file=sys.stderr)
        return 2
    root_a, root_b = (Path(d) for d in argv)
    names = sorted(
        {p.relative_to(root_a) for p in root_a.rglob("*") if p.is_file()}
        | {p.relative_to(root_b) for p in root_b.rglob("*") if p.is_file()}
    )
    failed = False
    for name in names:
        a, b = root_a / name, root_b / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: only in {root_a if a.is_file() else root_b}")
            failed = True
            continue
        if a.read_bytes() == b.read_bytes():
            continue
        count, max_abs, max_rel, rel_line, problem = compare_files(a, b)
        if problem is not None:
            print(f"{name}: non-numeric difference, {problem}")
            failed = True
        elif count:
            print(f"{name}: {count} numeric fields differ, max abs {max_abs:.3g}, "
                  f"max rel {max_rel:.3g} (line {rel_line})")
        else:
            print(f"{name}: headers only")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
