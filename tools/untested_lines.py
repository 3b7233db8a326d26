"""List the statements of src/probitgp that no test executes.

    python3 tools/untested_lines.py [PYTEST_ARGS]

Runs pytest.main(PYTEST_ARGS) in this process, with src/ first on
sys.path, under a sys.settrace and threading.settrace hook that records
the lines run in frames of src/probitgp's modules.  Then it prints a line

    N statements not executed

and one line `module:line: source` for each statement that no test
executed, by module and line.  Counted are the statements inside function
bodies; docstrings, def and class lines, imports, global and nonlocal
declarations, try lines and the statements of a module or class body,
which run on import, are not.  A simple statement counts as executed when
any of its lines ran; an if, for, while or with statement when its header
did.

Only this process is traced: what the tests run in a subprocess (the CLI
process tests) or in a --jobs worker is not seen, so statements only those
reach are listed.  Tracing slows the run several times over.

Exit status: pytest's.
"""

import ast
import os
import sys
import threading
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "probitgp"
_SKIP = (ast.Import, ast.ImportFrom, ast.Global, ast.Nonlocal, ast.Try)


def statements(path):
    """{first line: lines that mark it run} of the counted statements of
    one source file."""
    found = {}

    def visit(body, in_function):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(node.body, True)
                continue
            if isinstance(node, ast.ClassDef):
                visit(node.body, False)
                continue
            docstring = isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str)
            if in_function and not docstring and not isinstance(node, _SKIP):
                inner = getattr(node, "body", None)
                last = inner[0].lineno - 1 if inner else node.end_lineno
                found[node.lineno] = range(node.lineno, max(last, node.lineno) + 1)
            for field in ("body", "orelse", "finalbody"):
                visit(getattr(node, field, []), in_function)
            for handler in getattr(node, "handlers", []):
                visit(handler.body, in_function)

    visit(ast.parse(path.read_text(), str(path)).body, False)
    return found


def trace_pytest(args):
    """(pytest's exit status, {file name: lines run}) of pytest.main(args)."""
    import pytest

    prefix = str(PACKAGE) + os.sep
    ran = defaultdict(set)
    traced = {}  # code object -> whether it is src/probitgp's

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        code = frame.f_code
        keep = traced.get(code)
        if keep is None:
            keep = traced[code] = os.path.realpath(code.co_filename).startswith(prefix)
        return local if keep else None

    threading.settrace(hook)
    sys.settrace(hook)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    by_name = defaultdict(set)
    for filename, lines in ran.items():
        by_name[os.path.realpath(filename)] |= lines
    return status, by_name


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    status, ran = trace_pytest(argv)
    missed = []
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path.resolve()), set())
        source = path.read_text().splitlines()
        for first, span in sorted(statements(path).items()):
            if lines.isdisjoint(span):
                missed.append(f"{path.name}:{first}: {source[first - 1].strip()}")
    print(f"{len(missed)} statements not executed")
    for line in missed:
        print(line)
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
