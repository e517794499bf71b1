"""The scripts under ``tools``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _tool(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_digests_prints_the_pinned_sphere2_row(capsys):
    # the sphere(2) certificate digest, and the report digest that
    # test_cli pins
    assert _tool("digests").main(["sphere(2)"]) == 0
    assert capsys.readouterr().out == (
        "| sphere(2) "
        "| 16531f9edf5e46b6e53a40dc67088f95e80e2d27db5bd2e43158a36bf7ee9aa5 "
        "| c8a09e7bfe864f83f73fb4f457676b286f28b424c80acbb2b8a7a2fa08f98585 "
        "|\n")


_MODULE = '''"""A module docstring,
on two lines."""

import os  # a line with a trailing comment is code

# a comment line


def f(x):
    """A function docstring."""
    y = """a string on two lines
that is no docstring"""
    return (x +
            len(y))


class C:
    """A class
    docstring."""
    z = os.sep
'''


def test_code_lines_counts_a_known_module(tmp_path, capsys):
    # code: the import, def, the two string lines, the two return lines,
    # class and z; not: docstrings, comment lines and blank lines
    tool = _tool("code_lines")
    assert tool.code_lines(_MODULE) == 8
    (tmp_path / "b.py").write_text(_MODULE)
    (tmp_path / "a.py").write_text("x = 1\n\n# done\n")
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out == "| a | 1 |\n| b | 8 |\n| total | 9 |\n"
