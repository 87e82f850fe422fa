"""Smoke test: every script under demos/ and the README's quick start run
to completion, and every source file parses under the oldest Python the
package supports."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import indexcode

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _run(argv):
    src = str(Path(indexcode.__file__).resolve().parents[1])
    return subprocess.run([sys.executable, *argv], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=120)


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    done = _run([str(demo)])
    assert done.returncode == 0, done.stderr
    assert done.stdout


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    [code] = re.findall(r"## Quick start\n\n```python\n(.*?)```", readme, re.S)
    done = _run(["-c", code])
    assert done.returncode == 0, done.stderr
    assert done.stdout == "2 2 True\n"


def test_sources_parse_as_python_3_10():
    # pyproject.toml declares requires-python >= 3.10; a 3.11 construct
    # such as `except*` fails here under any newer interpreter.
    paths = [p for d in ("src/indexcode", "tests", "demos") for p in sorted((ROOT / d).glob("*.py"))]
    assert len(paths) > 20
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
