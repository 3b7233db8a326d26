"""tools/src_loc.py: line counts by kind, whose totals are wc -l's."""

import importlib.util
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_loc.py"
_SPEC = importlib.util.spec_from_file_location("src_loc", _PATH)
src_loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_loc)

# each line's kind is named at its end, where a comment would not change it
FIXTURE = '''"""Module docstring,

over three lines."""

import os  # code, with a trailing comment

# comment


def f(x):
    """One-line docstring."""
    text = """a string
in code"""
    return (x +
            1)


class C:
    "bare string"
    y = 2
'''
KINDS = ["docstring"] * 3 + ["blank", "code", "blank", "comment", "blank", "blank", "code",
         "docstring", "code", "code", "code", "code", "blank", "blank", "code", "docstring",
         "code"]


def test_fixture_counts(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    want = {kind: KINDS.count(kind) for kind in src_loc.KINDS}
    assert src_loc.count(path) == {"total": len(KINDS), **want}


def test_totals_are_wc_l(capsys):
    files = sorted(src_loc.DEFAULT.glob("*.py"))
    wc = subprocess.run(["wc", "-l", *map(str, files)], capture_output=True, text=True,
                        check=True).stdout.splitlines()
    by_name = {Path(line.split()[1]).name: int(line.split()[0]) for line in wc}
    assert src_loc.main([]) == 0
    printed = capsys.readouterr().out.splitlines()[1:]
    for line in printed:
        name, total, *kinds = line.split()
        assert int(total) == by_name[name], name
        assert sum(map(int, kinds)) == int(total), name
    assert [line.split()[0] for line in printed] == [p.name for p in files] + ["total"]


def test_a_missing_path_is_a_usage_error(tmp_path, capsys):
    assert src_loc.main([str(tmp_path / "absent.py")]) == 2
    assert src_loc.main(["a", "b"]) == 2
