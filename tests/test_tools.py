"""The scripts under ``tools``, and the sweep of every descriptor that
``tools/descriptors.py`` prints."""

import hashlib
import importlib.util
import json
from pathlib import Path

import pytest

from paradoxcert.certificates import (
    cert_from_json,
    cert_to_json,
    check,
    derive,
)
from paradoxcert.errors import DescriptorError
from paradoxcert.verification import verify

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


def test_descriptors_prints_spheres_then_flags(capsys):
    assert _tool("descriptors").main(["3"]) == 0
    assert capsys.readouterr().out.split() == [
        "sphere(2)", "sphere(3)", "sphere(4)",
        "flag(R;1,2)", "flag(R;1,3)", "flag(R;2,3)", "flag(R;1,2,3)",
        "flag(C;1,2)", "flag(C;1,3)", "flag(C;2,3)", "flag(C;1,2,3)",
        "flag(H;1,2)", "flag(H;1,3)", "flag(H;2,3)", "flag(H;1,2,3)"]


def test_every_descriptor_to_n6_derives_checks_and_round_trips():
    # every shape each catalog map states, up to n = 6; the digest is of
    # the certificates, in print order
    descs = _tool("descriptors").descriptors(6)
    digest = hashlib.sha256()
    refused = []
    for desc in descs:
        try:
            root = derive(desc)
        except DescriptorError:
            refused.append(desc)
            continue
        text = json.dumps(cert_to_json(root), sort_keys=True)
        assert json.dumps(cert_to_json(derive(desc)), sort_keys=True) == text
        assert check(root)["ok"], desc
        again = cert_to_json(cert_from_json(json.loads(text)))
        assert json.dumps(again, sort_keys=True) == text
        digest.update(f"{text}\n".encode())
    assert len(descs) == 177
    assert refused == ["flag(R;1,2)"]
    assert digest.hexdigest() == (
        "ee30379e0988fb887b3a3e7f0cb65755dce3de5cbedfe6731f0d95254c8ee8b0")


@pytest.mark.parametrize("desc", ["grass(R,6,3)", "grass(C,6,3)",
                                  "grass(H,6,3)"])
def test_the_first_slices_of_3_planes_verify(desc):
    # the smallest certificates whose grass_slice has k = 3
    report = verify(derive(desc), depth=1, samples=2)
    failed = [(n["path"], n["rule"], n["failures"])
              for n in report["nodes"] if n["status"] == "fail"]
    assert report["overall"] == "pass", failed
    assert report["unknown"] == 0


def test_work_counts_pins_the_exact_work_of_a_verify(tmp_path, capsys):
    # Cayley transforms, row reductions, scalars made and map applies of
    # one derive and verify; each run starts from emptied memos, so the
    # order of the runs does not move a count
    tool = _tool("work_counts")
    status, counts = tool.work_counts(
        "grass(C,4,2)", tmp_path, ["--depth", "2", "--samples", "10"])
    assert status == 0
    assert dict(counts) == {"cayley": 20, "rref": 350, "scalars": 5620,
                            "applies": 163}
    capsys.readouterr()
    assert tool.main(["sphere(2)"]) == 0
    assert capsys.readouterr().out == "| sphere(2) | 0 | 160 | 10163 | 0 |\n"
