"""Negative controls through ``verify``: each case patches one kernel of
the sphere(2) certificate so that one failure branch of one rule handler
must fire, and names the rule, the node path and the failure text that
branch reports."""

import pytest

from paradoxcert import verification, words
from paradoxcert.certificates import derive
from paradoxcert.verification import verify
from paradoxcert.words import B, check_translate_identity


def _longer_witness(monkeypatch):
    # h^-1 u is always one letter longer, so every u in W(h) gets a
    # witness in W(h^-1) as well; the scan alone must already fail
    monkeypatch.setattr(words, "translate_witness",
                        lambda head, u: (head ^ 1,) + u)
    scan = check_translate_identity(3)
    assert not scan["ok"]
    assert scan["violations"][0] == (
        "word a vs generator a: piece=True translate=True")


def _wrong_translate(monkeypatch):
    # translating the W(a^-1) piece by b instead of a covers as many
    # points once each, but not the radius-2 fragment
    reassembly = verification.reassembly_check
    monkeypatch.setattr(verification, "reassembly_check",
                        lambda frag: reassembly(frag, translate_a=B))


def _shallow_fragment(monkeypatch):
    # one level short of the run depth: a radius-2 fragment at depth 3
    fragment = verification.orbit_fragment
    monkeypatch.setattr(
        verification, "orbit_fragment",
        lambda space, seed, pair, depth: fragment(space, seed, pair,
                                                  depth - 1))


@pytest.mark.parametrize("rule,tamper,path,text", [
    pytest.param("BaseF2", _longer_witness, "0.0.0.0",
                 "translate-identity violated: ['word a vs generator a: "
                 "piece=True translate=True'",
                 id="BaseF2-translate-identity"),
    pytest.param("FreeTransport", _wrong_translate, "0.0.0",
                 "reassembly cover failed: {'a': {'targets': 17, "
                 "'covered': 17, 'multiplicity_one': True, 'ok': False}, "
                 "'b': {'targets': 17, 'covered': 17, "
                 "'multiplicity_one': True, 'ok': True}}",
                 id="FreeTransport-reassembly-cover"),
    pytest.param("FreeTransport", _shallow_fragment, "0.0.0",
                 "fragment has 17 points, expected 53",
                 id="FreeTransport-fragment-size"),
])
def test_a_tampered_kernel_fails_its_branch(monkeypatch, rule, tamper, path,
                                            text):
    tamper(monkeypatch)
    report = verify(derive("sphere(2)"), depth=3, samples=20)
    assert report["overall"] == "fail"
    failed = [n for n in report["nodes"] if n["status"] == "fail"]
    assert [(n["path"], n["rule"]) for n in failed] == [(path, rule)]
    assert [f for f in failed[0]["failures"] if f.startswith(text)]
