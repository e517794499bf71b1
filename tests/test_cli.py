"""The command-line front end: exit codes, file emission, determinism."""

import hashlib
import json

import pytest

from fractions import Fraction

from paradoxcert.cli import main
from paradoxcert.freegroup import (
    absorber_check,
    default_absorber,
    evaluate,
    exceptional_set,
    get_pair,
)
from paradoxcert.linalg import (
    Matrix,
    mat_vec,
    matrix_to_json,
    normalize_leading,
)
from paradoxcert.scalars import RINGS, scalar_from_json
from paradoxcert.words import parse_word


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


def test_proj_r3_default_report_digest(tmp_path, capsys):
    # a line certificate pinned beside sphere(2): its report has no float
    # field either
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    assert main(["derive", "proj(R,3)", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "d9cbd9f86aa628404229a3852890cb2f9ab89f0f321f594068a02d232a0d613c")


def test_grass_r42_default_report_digest(tmp_path, capsys):
    # the first pinned report whose certificate moves k >= 2 subspaces;
    # it has no float field either
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    assert main(["derive", "grass(R,4,2)", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "3aeea75e1c06bd27c254cc762d92b6e0065cc19fcd2dc41f843e09ed86996d3d")


def test_proj_c2_default_report_digest(tmp_path, capsys):
    # the first pinned report with an Intertwine node: its samples are the
    # exact chart lifts of its child's samples, each with its label
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    assert main(["derive", "proj(C,2)", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "-o", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == (
        "fc761f32cf419d32af629d879997e948fe3e4a268ce15bce72839309ad5f4ec9")


def test_verify_has_no_mode_option(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    main(["derive", "sphere(2)", "-o", str(cert)])
    assert main(["verify", str(cert), "--mode", "float"]) == 2
    assert "--mode" in capsys.readouterr().err


def _transport_node(blob):
    """The sphere(2) certificate's FreeTransport node (0.0.0)."""
    return blob["root"]["children"][0]["children"][0]


def _transport(blob):
    """params of the sphere(2) certificate's FreeTransport node."""
    return _transport_node(blob)["params"]


def _base(blob):
    """The sphere(2) certificate's BaseF2 node (0.0.0.0)."""
    return _transport_node(blob)["children"][0]


def _projective(value):
    return lambda blob: _transport_node(blob)["space"]["removed"].update(
        projective=value)


def _absorber_entries(blob):
    """Entry rows of the sphere(2) certificate's absorber literal."""
    return blob["root"]["params"]["absorber"]["__matrix__"]["entries"]


def _sphere_child(desc):
    """The Intertwine's child replaced by the derived certificate of the
    sphere ``desc``, the child every Intertwine had before its child
    walked the pair its chart induces."""
    def mutate(blob):
        from paradoxcert.certificates import cert_to_json, derive
        sphere = json.loads(json.dumps(cert_to_json(derive(desc))))
        blob["root"]["children"][0] = sphere["root"]
    return mutate


def _absorber_over(ring, entry):
    """The sphere(2) certificate's absorber made a literal over ``ring``,
    the identity written entry by entry as ``entry(0)`` and ``entry(1)``."""
    def mutate(blob):
        blob["root"]["params"]["absorber"]["__matrix__"] = {
            "ring": ring, "entries": [[entry(int(i == j)) for j in range(3)]
                                      for i in range(3)]}
    return mutate


def _on(desc, mutate):
    """``mutate`` applied to the certificate of ``desc``, not sphere(2)."""
    mutate.desc = desc
    return mutate


def _map_params(path):
    """A mutation of the params of the grass(R,4,2) node at ``path``."""
    def node_params(blob):
        node = blob["root"]
        for i in path:
            node = node["children"][i]
        return node["params"]
    return node_params


_SLICE = _map_params((0, 0))      # Pullback by grass_slice
_DUALITY = _map_params((0, 1, 0))  # EquidecompTransfer by duality


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
    (lambda blob: _base(blob)["space"].update(star_ambient=3),
     "BaseF2 concludes about F2 itself"),
    (lambda blob: _base(blob)["group"].update(star_ambient=3),
     "BaseF2 group is the abstract F2"),
    (lambda blob: _base(blob)["group"].update(n=3),
     "BaseF2 group is the abstract F2"),
    (lambda blob: _transport_node(blob)["group"].update(star_ambient=4),
     "group must be the free group of the pair"),
    (lambda blob: _transport_node(blob)["group"].update(n=4),
     "group must be the free group of the pair"),
    (lambda blob: _transport_node(blob)["group"].update(n=3.0),
     "field 'n' must be an integer, not float"),
    (_projective([]), "flag 'projective' must be a boolean, not list"),
    (_projective({}), "flag 'projective' must be a boolean, not dict"),
    (_projective(None), "flag 'projective' must be a boolean, not NoneType"),
    (_projective(0), "flag 'projective' must be a boolean, not int"),
    (lambda blob: blob["root"]["group"].update(pair="x"),
     "only a free group names a pair"),
    (_on("grass(R,4,2)",
         lambda blob: _SLICE(blob)["args"].__setitem__(1, "x")),
     "grass_slice args must be (field, n, k), not ('R', 'x', 2)"),
    (_on("grass(R,4,2)", lambda blob: _SLICE(blob).update(args=[1])),
     "grass_slice args must be (field, n, k), not (1,)"),
    (_on("grass(R,4,2)",
         lambda blob: _SLICE(blob)["args"].__setitem__(0, "X")),
     "grass_slice args must be (field, n, k), not ('X', 4, 2)"),
    (_on("grass(R,4,2)", lambda blob: _SLICE(blob).update(map={})),
     "unknown pullback map {}"),
    (_on("grass(R,4,2)", lambda blob: _DUALITY(blob).update(args=[1])),
     "duality args must be (field, n, k), not (1,)"),
    (_on("grass(R,4,2)", lambda blob: _DUALITY(blob).update(args=None)),
     "duality args must be (field, n, k), not None"),
    (_on("flag(R;1,3,4)",
         lambda blob: blob["root"]["params"]["args"].__setitem__(1, 4)),
     "flag_to_grass args must be (field, dims, i), not ('R', 4, 0)"),
    (_on("flag(R;1,3,4)", lambda blob: blob["root"]["children"][0]
         ["children"][0]["children"][0]["params"].update(args=["R"])),
     "proj_drop args must be (field, n), not ('R',)"),
    (_on("sphere(3)", lambda blob: blob["root"]["children"][0]["children"][0]
         ["params"].update(args="x")),
     "sphere_drop args must be (k), not 'x'"),
    (lambda blob: _base(blob).update(children={}),
     "node children must be an array, not dict"),
    (lambda blob: _base(blob).update(children="x"),
     "node children must be an array, not str"),
    (_absorber_over("float", float), "unknown exact ring 'float'"),
    (_absorber_over("complex", lambda x: {"re": x, "im": 0.0}),
     "unknown exact ring 'complex'"),
    (_absorber_over("quat_float", lambda x: {
        "w": float(x), "x": 0.0, "y": 0.0, "z": 0.0}),
     "unknown exact ring 'quat_float'"),
    (_absorber_over("octonion", lambda x: [str(x)] + ["0"] * 7),
     "unknown exact ring 'octonion'"),
    (_on("proj(C,2)", _sphere_child("sphere(2)")),
     "structure: 0: child must walk so3-su2, the pair the chart induces"),
    (_on("proj(H,2)", _sphere_child("sphere(4)")),
     "structure: 0: child must walk so5-sp1, the pair the chart induces"),
], ids=["space", "group", "root", "params", "removed", "seed-strings",
        "seed-lists", "seed-number", "seed-bool", "seed-float",
        "seed-huge-float", "absorber-literal", "absorber-zero-denominator",
        "base-space-star", "base-group-star", "base-group-n",
        "transport-group-star", "transport-group-n", "group-n-float",
        "projective-list", "projective-object", "projective-null",
        "projective-zero", "root-group-pair", "grass-slice-arg-type",
        "grass-slice-arity", "grass-slice-field", "pullback-map-object",
        "duality-arity",
        "duality-args-null", "flag-dims-type", "proj-drop-arity",
        "sphere-drop-args-type", "children-object", "children-string",
        "absorber-ring-float", "absorber-ring-complex",
        "absorber-ring-quat-float", "absorber-ring-octonion",
        "intertwine-C-over-so3-ab", "intertwine-H-13-nodes"])
def test_verify_rejects_a_broken_envelope(tmp_path, capsys, mutate, message):
    cert = tmp_path / "cert.json"
    main(["derive", getattr(mutate, "desc", "sphere(2)"), "-o", str(cert)])
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


@pytest.mark.parametrize("tol", ["1e-6", "nan", "inf", "-inf"])
def test_verify_has_no_tol_option(tol, tmp_path, capsys):
    # every check is exact, so no tolerance is read, valid or not; the
    # report keeps "tol": 1e-9 as a constant of its schema
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    assert main(["derive", "proj(C,2)", "-o", str(cert)]) == 0
    capsys.readouterr()
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5",
                 f"--tol={tol}", "-o", str(report)]) == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err
    assert not report.exists()
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5",
                 "-o", str(report)]) == 0
    assert json.loads(report.read_text())["config"]["tol"] == 1e-9


@pytest.mark.parametrize("argv", [
    ["verify", "{cert}", "--samples", "-5"],
    ["verify", "{cert}", "--absorber-bound", "-1"],
    ["freeness", "--max-len", "0"],
    ["axes", "--max-len", "-1"],
    ["absorber", "--max-len", "-2"],
    ["absorber", "--bound", "-1"],
    ["orbit", "sphere(2)", "--depth", "-1"],
    ["maps", "selftest", "--samples", "0"],
], ids=lambda argv: " ".join(argv[:1] + argv[-2:]))
def test_count_flags_below_one_exit_2(argv, tmp_path, capsys):
    cert = tmp_path / "cert.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    capsys.readouterr()
    assert main([a.format(cert=cert) for a in argv]) == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


def _sphere2_with_absorber(tmp_path, g):
    """A sphere(2) certificate file whose absorber is g."""
    cert = tmp_path / "cert.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    blob["root"]["params"]["absorber"] = {"__matrix__": matrix_to_json(g)}
    cert.write_text(json.dumps(blob))
    return cert


def _default_absorber_over(ring_name):
    ring = RINGS[ring_name]
    return Matrix([[ring.from_rational(x) for x in r]
                   for r in default_absorber().data])


def _verify_at_depth_3(tmp_path, cert, capsys):
    """(exit code, report, stderr) of CLI verify at depth 3."""
    report = tmp_path / "report.json"
    capsys.readouterr()
    rc = main(["verify", str(cert), "--depth", "3", "-o", str(report)])
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return rc, report, err


def _root_failures(report):
    blob = json.loads(report.read_text())
    return [f for n in blob["nodes"] if n["path"] == "0"
            for f in n["failures"]]


@pytest.mark.parametrize("ring", ["gauss_sqrt5", "quat_rational",
                                  "quat_sqrt5"])
def test_an_absorber_over_a_foreign_field_is_a_named_violation(
        ring, tmp_path, capsys):
    # still exactly unitary, but no line of S^2 can be moved by it
    cert = _sphere2_with_absorber(tmp_path, _default_absorber_over(ring))
    rc, _, err = _verify_at_depth_3(tmp_path, cert, capsys)
    assert rc == 1
    assert f"structure: 0: absorber over {ring} does not act on a space " \
           f"over R" in err


def test_a_real_absorber_over_another_field_reports_the_same_bytes(
        tmp_path, capsys):
    # Q(sqrt5) does not mix with the pair's Q(sqrt2): the pair-word scan
    # reads the rational values the absorber holds
    reports = []
    for ring in ("rational", "qsqrt5"):
        out = tmp_path / ring
        out.mkdir()
        cert = _sphere2_with_absorber(out, _default_absorber_over(ring))
        rc, report, _ = _verify_at_depth_3(out, cert, capsys)
        assert rc == 0
        reports.append(report.read_bytes())
    assert reports[0] == reports[1]


def test_an_irrational_absorber_off_the_pair_field_is_a_named_violation(
        tmp_path, capsys):
    # cosine 1/sqrt5 about z: real and exactly unitary, but Q(sqrt5) and
    # the Q(sqrt2) lines of D[so3-ab] share no exact field
    from paradoxcert.scalars import QSqrt5
    c, s = QSqrt5(0, Fraction(1, 5)), QSqrt5(0, Fraction(2, 5))
    zero, one = QSqrt5(0), QSqrt5(1)
    g = Matrix([[c, -s, zero], [s, c, zero], [zero, zero, one]])
    cert = _sphere2_with_absorber(tmp_path, g)
    capsys.readouterr()
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert "structure: 0: absorber over qsqrt5 does not act on the lines " \
           "of D[so3-ab]" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("name", ["nope", "so3-ab@x", 123])
def test_a_removed_set_of_no_pair_is_named(tmp_path, capsys, name):
    cert = tmp_path / "cert.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    blob["root"]["children"][0]["space"]["removed"]["pair"] = name
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert f"structure: 0: unknown pair {name!r}" in err
    assert "Traceback" not in err


def test_the_identity_absorber_is_a_pair_word_and_keeps_d_in_place(
        tmp_path, capsys):
    ident = Matrix.identity(3, RINGS["rational"])
    cert = _sphere2_with_absorber(tmp_path, ident)
    rc, report, _ = _verify_at_depth_3(tmp_path, cert, capsys)
    assert rc == 1
    failures = _root_failures(report)
    assert "absorber orbit self-intersects: (0, 1)" in failures
    assert "absorber equals pair word e" in failures
    assert any(f.startswith("image of absorbed-orbit sample left the target")
               for f in failures)


def _rotation_by_90(axis, norm):
    """The quarter turn about the rational unit vector axis / norm."""
    n = [Fraction(c, norm) for c in axis]
    cross = [[0, -n[2], n[1]], [n[2], 0, -n[0]], [-n[1], n[0], 0]]
    return Matrix([[n[i] * n[j] + cross[i][j] for j in range(3)]
                   for i in range(3)])


def test_a_quarter_turn_absorber_names_the_least_collision(tmp_path, capsys):
    g = _rotation_by_90((2, 3, 6), 7)
    lines = sorted(exceptional_set(get_pair("so3-ab"), 4), key=repr)
    levels = []
    current = list(lines)
    for _ in range(51):
        levels.append({normalize_leading(v) for v in current})
        current = [mat_vec(g, v) for v in current]
    pairs = [(m, n) for m in range(51) for n in range(m + 1, 51)
             if levels[m] & levels[n]]
    assert min(pairs) == (0, 2)   # g^4 = I, but g^2 already meets D
    assert absorber_check(g, lines, 50)["first_collision"] == min(pairs)
    cert = _sphere2_with_absorber(tmp_path, g)
    rc, report, _ = _verify_at_depth_3(tmp_path, cert, capsys)
    assert rc == 1
    assert "absorber orbit self-intersects: (0, 2)" in _root_failures(report)


def test_a_sample_in_the_removed_set_is_named(tmp_path, capsys,
                                              monkeypatch):
    # a removed set that also holds the line of the transport seed (1, 2, 3)
    from paradoxcert import verification
    real = verification.exceptional_set

    def with_the_seed_line(pair, max_len):
        return real(pair, max_len) | {normalize_leading(
            (Fraction(1), Fraction(2), Fraction(3)))}
    monkeypatch.setattr(verification, "exceptional_set", with_the_seed_line)
    cert = tmp_path / "cert.json"
    assert main(["derive", "sphere(2)", "-o", str(cert)]) == 0
    rc, report, _ = _verify_at_depth_3(tmp_path, cert, capsys)
    assert rc == 1
    assert "1 child samples lie in the removed set claimed deleted" in \
        _root_failures(report)


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
    # every record's point is the exact vector evaluate(word) seed; the
    # default seed (1,2,3) does not fit proj(C,2), and (1,2) is fixed by
    # the word baB, so proj(C,2) walks the seed (1,3)
    for space, args, ring in (
            ("sphere(2)", [], "qsqrt2"),
            ("proj(C,2)", ["--pair", "su2-sqrt5", "--seed-point", "1,3"],
             "gauss_sqrt5")):
        out = tmp_path / "orbit.json"
        assert main(["orbit", space, "--depth", "3", *args,
                     "-o", str(out)]) == 0
        blob = json.loads(out.read_text())
        assert blob["count"] == 2 * 3 ** 3 - 1
        words = [r["word"] for r in blob["points"]]
        assert words[0] == "e"
        assert len(set(words)) == len(words)
        pair = get_pair(blob["pair"])
        seed = tuple(map(Fraction, blob["seed"]))
        for r in blob["points"]:
            point = tuple(Fraction(x) if isinstance(x, str)
                          else scalar_from_json(x, RINGS[ring])
                          for x in r["point"])
            assert point == mat_vec(evaluate(parse_word(r["word"]), pair),
                                    seed), r["word"]


def test_orbit_fixed_seed_exits_1(capsys):
    assert main(["orbit", "sphere(2)", "--seed-point", "1,0,0",
                 "--depth", "2"]) == 1
    assert "'b'" in capsys.readouterr().err


def test_orbit_bad_seed_point_exits_2(capsys):
    assert main(["orbit", "sphere(2)", "--seed-point", "1,q,0"]) == 2


@pytest.mark.parametrize("space", ["proj(R,3)", "sphere(2)"])
def test_orbit_zero_seed_point_exits_2(space, capsys):
    assert main(["orbit", space, "--seed-point", "0,0,0"]) == 2
    assert "seed point must be nonzero" in capsys.readouterr().err


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


def _intertwine_root(blob):
    assert blob["root"]["rule"] == "Intertwine"
    return blob["root"]["params"]


@pytest.mark.parametrize("desc,mutate,message", [
    ("sphere(2)", lambda blob: blob["root"]["params"].update(foo=[1, 2]),
     "unknown key 'foo' in CountableAbsorb params"),
    ("sphere(2)", lambda blob: blob["root"].update(bogus=1),
     "unknown key 'bogus' in a CountableAbsorb node"),
    ("sphere(2)", lambda blob: _base(blob)["params"].update(seed=[1, 2, 3]),
     "unknown key 'seed' in BaseF2 params"),
    ("proj(C,2)", lambda blob: _intertwine_root(blob).update(
        absorber={"__matrix__": matrix_to_json(default_absorber())}),
     "unknown key 'absorber' in Intertwine params"),
    ("proj(H,2)", lambda blob: _intertwine_root(blob).update(
        absorber={"__matrix__": matrix_to_json(default_absorber())}),
     "unknown key 'absorber' in Intertwine params"),
    ("sphere(2)", lambda blob: blob.update(note="x"),
     "unknown key 'note' in the certificate"),
    ("sphere(2)", lambda blob: _transport_node(blob)["space"]["removed"]
     .update(extra=0), "unknown key 'extra' in removed set"),
    ("sphere(2)", lambda blob: blob["root"]["params"]["absorber"].update(
        ring="rational"), "unknown key 'ring' in param 'absorber'"),
    ("sphere(2)", lambda blob: blob["root"]["params"]["absorber"][
        "__matrix__"].update(den=9), "unknown key 'den' in param 'absorber'"),
    ("sphere(2)", lambda blob: blob["root"]["space"].update(dim=2),
     "unknown key 'dim' in space"),
    ("sphere(2)", lambda blob: _base(blob)["group"].update(rank=2),
     "unknown key 'rank' in group"),
], ids=["root-params", "root-node", "base-seed", "intertwine-C",
        "intertwine-H", "certificate", "removed-set", "matrix-literal",
        "matrix-entries", "space", "group"])
def test_an_unknown_key_is_named(tmp_path, capsys, desc, mutate, message):
    cert = tmp_path / "cert.json"
    assert main(["derive", desc, "-o", str(cert)]) == 0
    blob = json.loads(cert.read_text())
    mutate(blob)
    cert.write_text(json.dumps(blob))
    capsys.readouterr()
    assert main(["verify", str(cert), "--depth", "2", "--samples", "5"]) == 1
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv,message", [
    (["freeness", "--pair", "so3"], "argument --pair: unknown generator"),
    (["axes", "--pair", "nope"], "argument --pair: unknown generator"),
    (["orbit", "sphere(2)", "--pair", "x"], "argument --pair: unknown"),
    (["freeness", "--pair", "so3-ab@x"], "argument --pair: invalid literal"),
    (["freeness", "--pair", "so3-ab@2"],
     "argument --pair: cannot embed into a smaller dimension"),
    (["orbit", "sphere(2)", "--pair", "su2-sqrt5"],
     "seed point has 3 coordinates, pair su2-sqrt5 acts on 2"),
    (["orbit", "proj(C,2)", "--depth", "1"],
     "pair so3-ab acts on 3 coordinates, proj(C,2) on 2"),
    (["orbit", "sphere(5)", "--depth", "1"],
     "pair so3-ab acts on 3 coordinates, sphere(5) on 6"),
], ids=["freeness", "axes", "orbit", "embedding-text", "embedding-smaller",
        "orbit-seed-length", "orbit-proj-dimension",
        "orbit-sphere-dimension"])
def test_a_bad_pair_is_a_usage_error(capsys, argv, message):
    assert main(argv) == 2
    assert message in capsys.readouterr().err


def test_exact_runs_never_import_numpy(tmp_path):
    # every run is exact, Intertwine lifts included: derive and verify of
    # sphere(2), proj(C,2) and proj(H,2) leave numpy unloaded
    import os
    import subprocess
    import sys
    from pathlib import Path
    script = """if True:
        import sys
        from paradoxcert.cli import main
        def numpy_loaded():
            return any(m.split(".")[0] == "numpy" for m in sys.modules)
        for desc in ("sphere(2)", "proj(C,2)", "proj(H,2)"):
            assert main(["derive", desc, "-o", "c.json"]) == 0
            assert main(["verify", "c.json", "--depth", "3", "--samples",
                         "30", "-o", "r.json"]) == 0
            print(numpy_loaded())
    """
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "False", "False"]


def test_verify_at_absorber_bound_1_writes_a_passing_report(tmp_path):
    # the absorbed samples stop at the power the bound covers, so none of
    # them is taken for the complement or sent down to the chart
    cert, report = tmp_path / "cert.json", tmp_path / "report.json"
    assert main(["derive", "proj(C,3)", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "--absorber-bound", "1",
                 "-o", str(report)]) == 0
    blob = json.loads(report.read_text())
    assert blob["config"]["absorber_bound"] == 1
    assert (blob["overall"], blob["unknown"]) == ("pass", 0)
