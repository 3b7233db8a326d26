"""Count the lines of each module of a package by kind, so that a change's
size can be read without its comments and docstrings.

    python3 tools/src_loc.py [PATH]

PATH is a directory, whose *.py files are counted (not its subdirectories),
or one .py file; it defaults to src/probitgp of this repository.  For each
module, by name, and for their sum, it prints the total line count, which
is what `wc -l` reports for a file that ends in a newline, and how many of
those lines are blank, comment, docstring and code lines.  The four kinds
add up to the total.  Each line counts as the first kind that applies,
found with the tokenize module:

- code: the line holds a token of a statement that is not a docstring,
  including any line of a multi-line string such a statement holds;
- docstring: the line holds part of a statement made of string literals
  only (a module, class or function docstring, or any other bare string);
- comment: the line holds a comment;
- blank: anything else, a line of whitespace.

Exit status: 0, or 2 on a usage error or a file that does not tokenize.
"""

import sys
import tokenize
from pathlib import Path

KINDS = ("blank", "comment", "docstring", "code")
DEFAULT = Path(__file__).resolve().parent.parent / "src" / "probitgp"
_LAYOUT = {tokenize.ENCODING, tokenize.NL, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path):
    """{"total": lines, kind: lines of that kind, ...} for one source file."""
    with open(path, "rb") as f:
        tokens = list(tokenize.tokenize(f.readline))
        f.seek(0)
        total = len(f.read().splitlines())
    lines = {kind: set() for kind in KINDS}
    statement = []  # the tokens of the logical line read so far
    for tok in tokens:
        if tok.type == tokenize.COMMENT:
            lines["comment"].add(tok.start[0])
        elif tok.type == tokenize.NEWLINE:
            kind = "docstring" if all(t.type == tokenize.STRING for t in statement) else "code"
            for t in statement:
                lines[kind].update(range(t.start[0], t.end[0] + 1))
            statement = []
        elif tok.type not in _LAYOUT:
            statement.append(tok)
    counts = dict.fromkeys(KINDS, 0)
    for row in range(1, total + 1):
        kind = next((k for k in reversed(KINDS[1:]) if row in lines[k]), "blank")
        counts[kind] += 1
    return {"total": total, **counts}


def main(argv):
    if len(argv) > 1:
        print("usage: src_loc.py [PATH]", file=sys.stderr)
        return 2
    root = Path(argv[0]) if argv else DEFAULT
    files = sorted(root.glob("*.py")) if root.is_dir() else [root]
    rows = []
    try:
        for path in files:
            rows.append((path.name, count(path)))
    except (OSError, SyntaxError, tokenize.TokenError) as exc:
        print(f"src_loc.py: {exc}", file=sys.stderr)
        return 2
    columns = ("total",) + KINDS
    rows.append(("total", {c: sum(r[c] for _, r in rows) for c in columns}))
    width = max(len(name) for name, _ in rows)
    print(f"{'module':<{width}}" + "".join(f"{c:>11}" for c in columns))
    for name, counts in rows:
        print(f"{name:<{width}}" + "".join(f"{counts[c]:>11}" for c in columns))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
