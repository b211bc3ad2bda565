"""Each demo runs to completion in-process and prints its report."""

import contextlib
import io
import pathlib
import runpy

import pytest

DEMOS = sorted((pathlib.Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_demos_are_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.stem)
def test_demo_completes(path):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        runpy.run_path(str(path), run_name="__main__")
    assert stdout.getvalue().strip()
