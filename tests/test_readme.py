"""The examples in README.md run as they are written."""

import contextlib
import io
import re
import warnings
from pathlib import Path

import pytest

from clifract.cli import main

# Found from this file, so that the test runs from any working directory.
README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _blocks(language):
    """The ```language blocks, one pytest param each, numbered in README order."""
    found = re.findall(rf"^```{language}\n(.*?)^```$", README, flags=re.DOTALL | re.MULTILINE)
    assert found, f"README.md has no {language} block"
    return [pytest.param(block, id=f"{language}-{i}") for i, block in enumerate(found)]


@pytest.mark.parametrize("config", _blocks("json"))
def test_readme_configs_pass_check(tmp_path, config):
    path = tmp_path / "problem.json"
    path.write_text(config)
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(["check", str(path)])
    assert code in (0, 1), err.getvalue()


@pytest.mark.parametrize("code", _blocks("python"))
def test_readme_library_example_runs(code):
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        exec(compile(code, "README.md", "exec"), {})
