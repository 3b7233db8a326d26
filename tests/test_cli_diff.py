"""tools/cli_diff.py: numeric moves are measured, anything else fails."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "cli_diff.py"
_SPEC = importlib.util.spec_from_file_location("cli_diff", _PATH)
cli_diff = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(cli_diff)

BASE = {
    "fit.stdout": "fit sonar: rounds=5 log_magnitude=-0.5 objective=-144.25 stopped=round_cap\n",
    "toy/cv.csv": "# probitgp cv --data a.csv\nfold,lpd\n0,-0.25\n1,-0.5\n",
}


def write(root, files):
    """files under root; a None text writes no file."""
    for name, text in files.items():
        if text is not None:
            (root / name).parent.mkdir(parents=True, exist_ok=True)
            (root / name).write_text(text)
    return str(root)


def compare(tmp_path, capsys, changed=()):
    """cli_diff's exit code and output for BASE against BASE with changed."""
    a = write(tmp_path / "a", BASE)
    b = write(tmp_path / "b", {**BASE, **dict(changed)})
    code = cli_diff.main([a, b])
    return code, capsys.readouterr().out


def test_identical_trees_print_nothing(tmp_path, capsys):
    assert compare(tmp_path, capsys) == (0, "")


def test_header_lines_are_left_out(tmp_path, capsys):
    moved = BASE["toy/cv.csv"].replace("a.csv", "b.csv")
    code, out = compare(tmp_path, capsys, {"toy/cv.csv": moved})
    assert (code, out) == (0, "toy/cv.csv: headers only\n")


def test_numeric_moves_are_measured(tmp_path, capsys):
    code, out = compare(tmp_path, capsys, {
        "toy/cv.csv": BASE["toy/cv.csv"].replace("-0.5", "-0.5000000001"),
        "fit.stdout": BASE["fit.stdout"].replace("-0.5 ", "-0.25 "),
    })
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "fit.stdout: 1 numeric fields differ, max abs 0.25, max rel 0.5 (line 1)"
    assert lines[1] == "toy/cv.csv: 1 numeric fields differ, max abs 1e-10, max rel 2e-10 (line 4)"


@pytest.mark.parametrize("name, text, problem", [
    ("fit.stdout", BASE["fit.stdout"].replace("round_cap", "tolerance"), "'round_cap'"),
    ("fit.stdout", BASE["fit.stdout"].replace("-144.25", "inf"), "'-144.25' against 'inf'"),
    ("fit.stdout", BASE["fit.stdout"].replace("rounds=5", "rounds:5"), "'=' against ':'"),
    ("fit.stdout", BASE["fit.stdout"].replace(" stopped=round_cap", ""), "in number"),
    ("toy/cv.csv", BASE["toy/cv.csv"] + "2,-1\n", "3 lines against 4"),
    ("toy/cv.csv", None, "only in"),
])
def test_other_differences_fail(tmp_path, capsys, name, text, problem):
    code, out = compare(tmp_path, capsys, {name: text})
    assert code == 1 and problem in out, out


def test_usage(tmp_path, capsys):
    assert cli_diff.main([str(tmp_path)]) == 2
    assert cli_diff.main([str(tmp_path), str(tmp_path / "missing")]) == 2
