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
