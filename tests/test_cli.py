"""The command-line front end: exit codes, file emission, determinism."""

import hashlib
import json

import pytest

from paradoxcert.cli import main


def test_derive_writes_a_certificate(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    assert blob["schema"] == "paradox-cert/1"


def test_derive_to_stdout(capsys):
    assert main(["derive", "sphere(2)"]) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["schema"] == "paradox-cert/1"


@pytest.mark.parametrize("descriptor,fragment", [
    ("sphere(1)", "n >= 2"),
    ("proj(R,2)", "n >= 3"),
    ("flag(R;3)", "proper component"),
])
def test_invalid_descriptors_exit_2(descriptor, fragment, capsys):
    assert main(["derive", descriptor]) == 2
    assert fragment in capsys.readouterr().err


def test_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    rc = main(["verify", str(cert), "--depth", "3", "--samples", "25",
               "-o", str(report)])
    assert rc == 0
    blob = json.loads(report.read_text())
    assert blob["schema"] == "paradox-report/1"
    assert blob["overall"] == "pass"
    assert "unknown" in blob


def test_verify_reports_are_byte_identical(tmp_path):
    cert = tmp_path / "cert.json"
    r1 = tmp_path / "r1.json"
    r2 = tmp_path / "r2.json"
    main(["derive", "proj(R,3)", "-o", str(cert)])
    assert main(["verify", str(cert), "--depth", "3", "--samples", "20",
                 "-o", str(r1)]) == 0
    assert main(["verify", str(cert), "--depth", "3", "--samples", "20",
                 "-o", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()


def test_sphere2_default_report_digest(tmp_path, capsys):
    # the sphere(2) report has no float fields, so its bytes are the same
    # on every platform
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "c8a09e7bfe864f83f73fb4f457676b286f28b424c80acbb2b8a7a2fa08f98585")


def test_verify_has_no_mode_option(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["derive", "sphere(2)", "-o", str(cert)])
    assert main(["verify", str(cert), "--mode", "float"]) == 2
    assert "--mode" in capsys.readouterr().err


def _transport(blob):
    """params of the sphere(2) certificate's FreeTransport node (0.0.0)."""
    return blob["root"]["children"][0]["children"][0]["params"]


def _absorber_entries(blob):
    """Entry rows of the sphere(2) certificate's absorber literal."""
    return blob["root"]["params"]["absorber"]["__matrix__"]["entries"]


@pytest.mark.parametrize("mutate,message", [
    (lambda blob: blob.update(space={}),
     "certificate space {} does not match"),
    (lambda blob: blob.update(group="SO(7)"),
     "certificate group 'SO(7)' does not match"),
    (lambda blob: blob.pop("root"), "certificate has no root node"),
    (lambda blob: blob["root"].update(params=[1, 2]),
     "node params must be an object, not list"),
    (lambda blob: blob["root"]["children"][0]["space"].update(removed="axis"),
     "removed set must be an object or null, not str"),
    (lambda blob: _transport(blob).update(seed=["1", "2", "3"]),
     "seed must be a nonzero 3-vector"),
    (lambda blob: _transport(blob).update(seed=[[1], [2], [3]]),
     "seed must be a nonzero 3-vector"),
    (lambda blob: _transport(blob).update(seed=7),
     "seed must be a nonzero 3-vector"),
    (lambda blob: _transport(blob).update(seed=[True, 2, 3]),
     "seed must be a nonzero 3-vector"),
    (lambda blob: _transport(blob).update(seed=[1.5, 2, 3]),
     "seed must be a nonzero 3-vector"),
    (lambda blob: _transport(blob).update(seed=[1e300, 2, 3]),
     "seed must be a nonzero 3-vector"),
    (lambda blob: _absorber_entries(blob)[0].__setitem__(0, "x"),
     "param 'absorber' is not a matrix literal"),
    (lambda blob: _absorber_entries(blob)[0].__setitem__(0, "1/0"),
     "param 'absorber' is not a matrix literal"),
], ids=["space", "group", "root", "params", "removed", "seed-strings",
        "seed-lists", "seed-number", "seed-bool", "seed-float",
        "seed-huge-float", "absorber-literal", "absorber-zero-denominator"])
def test_verify_rejects_a_broken_envelope(tmp_path, capsys, mutate, message):
    cert = tmp_path / "cert.json"
    main(["derive", "sphere(2)", "-o", str(cert)])
    blob = json.loads(cert.read_text())
    mutate(blob)
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_python_m_paradoxcert_runs_the_cli():
    import os
    import subprocess
    import sys
    from pathlib import Path
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "paradoxcert", "--help"],
                          capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert "usage: paradoxcert" in done.stdout
    assert "verify" in done.stdout


def test_verify_missing_file_exits_2(capsys):
    assert main(["verify", "/nonexistent/cert.json"]) == 2


def test_verify_guard_rails(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["derive", "sphere(2)", "-o", str(cert)])
    assert main(["verify", str(cert), "--depth", "0"]) == 2
    assert main(["verify", str(cert), "--tol", "-1"]) == 2


def test_verify_tampered_certificate_exits_1(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["derive", "sphere(2)", "-o", str(cert)])
    blob = json.loads(cert.read_text())
    transport = blob["root"]["children"][0]["children"][0]
    transport["params"]["seed"] = [0, 0, 0]      # structurally invalid seed
    cert.write_text(json.dumps(blob))
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5"]) == 1


def test_freeness_exits_0(capsys):
    assert main(["freeness", "--pair", "so3-ab", "--max-len", "3"]) == 0
    err = capsys.readouterr().err
    assert "52 words" in err


def test_absorber_default_passes_identity_fails(capsys):
    assert main(["absorber", "--max-len", "2", "--bound", "10"]) == 0
    assert main(["absorber", "--max-len", "2", "--bound", "10",
                 "--identity"]) == 1
    assert "(0, 1)" in capsys.readouterr().err


def test_orbit_dump(tmp_path, capsys):
    out = tmp_path / "orbit.json"
    assert main(["orbit", "sphere(2)", "--depth", "3",
                 "-o", str(out)]) == 0
    blob = json.loads(out.read_text())
    assert blob["count"] == 2 * 3 ** 3 - 1
    words = [r["word"] for r in blob["points"]]
    assert words[0] == "e"
    assert len(set(words)) == len(words)


def test_orbit_fixed_seed_exits_1(capsys):
    assert main(["orbit", "sphere(2)", "--seed-point", "1,0,0",
                 "--depth", "2"]) == 1
    assert "'b'" in capsys.readouterr().err


def test_orbit_bad_seed_point_exits_2(capsys):
    assert main(["orbit", "sphere(2)", "--seed-point", "1,q,0"]) == 2


def test_axes_dump_is_deterministic(tmp_path):
    a1 = tmp_path / "a1.json"
    a2 = tmp_path / "a2.json"
    assert main(["axes", "--max-len", "2", "-o", str(a1)]) == 0
    assert main(["axes", "--max-len", "2", "-o", str(a2)]) == 0
    assert a1.read_bytes() == a2.read_bytes()
    blob = json.loads(a1.read_text())
    assert blob["count"] == 6
    assert {r["word"] for r in blob["axes"]} >= {"a", "b"}


def test_maps_selftest(capsys):
    assert main(["maps", "selftest", "--samples", "2"]) == 0
    err = capsys.readouterr().err
    assert "pass" in err


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_version_matches_pyproject():
    from pathlib import Path

    import paradoxcert

    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    meta = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert paradoxcert.__version__ == meta["project"]["version"]
