"""The README's Python API example runs against the library as it is."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def python_api_example():
    """The first fenced python block under the README's "Python API" heading."""
    section = README.read_text().split("\n## Python API\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_python_api_example_runs(capsys):
    exec(compile(python_api_example(), str(README), "exec"), {"__name__": "readme_example"})
    out = capsys.readouterr().out
    assert "bound:" in out and "energy:" in out and "p(y = +1):" in out
