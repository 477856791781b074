"""The README's runnable claims: its library quick start, its install line
and the size of the library surface."""

import contextlib
import io
import re
from pathlib import Path

import pytest

import dire

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quick_start_prints_what_it_says():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == ["(0, 3) 12"]
    # and the comment beside the print says the same
    assert re.findall(r"# (.+)", code)[-1:] == ["(0, 3) 12"]


def test_test_extra_installs_what_the_suite_imports():
    tomllib = pytest.importorskip("tomllib")
    with open(ROOT / "pyproject.toml", "rb") as fh:
        extra = tomllib.load(fh)["project"]["optional-dependencies"]["test"]
    assert {"pytest", "hypothesis"} <= set(extra)
    assert "pip install -e .[test]    # with pytest and hypothesis" in (ROOT / "README.md").read_text(
        encoding="utf-8")


def test_readme_states_the_surface_size():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    stated = re.search(r"`dire.__all__` is the library surface \((\d+) names\)", readme)
    assert stated and int(stated.group(1)) == len(dire.__all__)
