"""tools/untested_lines.py: the statements of src/probitgp a test run leaves unexecuted."""

import re
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "untested_lines.py"
DATA = Path(__file__).resolve().parent.parent / "src" / "probitgp" / "data.py"

ONE_TEST = '''from probitgp import encode_labels


def test_encode():
    assert list(encode_labels(["R", "M"])) == [1.0, -1.0]
'''


def line_of(text):
    """The line number of the one line of data.py that holds text."""
    (number,) = [i for i, line in enumerate(DATA.read_text().splitlines(), 1) if text in line]
    return number


def test_one_test_file(tmp_path):
    (tmp_path / "test_one.py").write_text(ONE_TEST)
    run = subprocess.run([sys.executable, str(TOOL), "-q", "-p", "no:cacheprovider", "test_one.py"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    out = run.stdout.splitlines()
    head = next(i for i, line in enumerate(out) if line.endswith(" statements not executed"))
    listed = out[head + 1:]
    assert int(out[head].split()[0]) == len(listed) > 0
    assert all(re.fullmatch(r"[a-z_]+\.py:\d+: \S.*", line) for line in listed), listed
    unexecuted = {int(line.split(":")[1]) for line in listed if line.startswith("data.py:")}
    # encode_labels ran past its two-value check, and load_csv never ran
    assert line_of("mapping = {distinct[0]") not in unexecuted
    assert line_of("expected exactly two label values") in unexecuted
    assert line_of("X, labels = _read_table(") in unexecuted
    # def lines, docstrings and module-level statements are not counted
    assert line_of("def load_csv(") not in unexecuted
    assert line_of("FOLDS = 5") not in unexecuted
    assert not any(re.match(r"\S+: (def |class |import |from |\"\"\")", line) for line in listed)
