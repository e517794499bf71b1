"""Orbit fragments, paradoxical reassembly, witnesses, and full runs."""

from collections import Counter
from fractions import Fraction

import pytest

from paradoxcert.certificates import derive
from paradoxcert.errors import (
    BackendMismatchError,
    SeedFixedError,
    VerificationError,
)
from paradoxcert.freegroup import default_absorber, get_pair
from paradoxcert.linalg import Matrix
from paradoxcert.scalars import RING_RATIONAL
from paradoxcert.spaces import SpherePoint
from paradoxcert.verification import (
    EquidecompWitness,
    RunConfig,
    WitnessPiece,
    _decade_ceiling,
    classify,
    equidecomp_verify,
    orbit_fragment,
    piece_sizes,
    reassembly_check,
    verify,
)
from paradoxcert.words import A, B, ball_size, classify_prefix

SEED = (Fraction(1), Fraction(2), Fraction(3))


def test_fragment_counts_match_the_ball():
    for depth in (1, 2, 3):
        frag = orbit_fragment("sphere(2)", SEED, "so3-ab", depth)
        assert len(frag.words) == ball_size(depth) == 2 * 3 ** depth - 1
        # all points distinct by construction
        assert len(frag.index) == len(frag.words)


def test_fragment_pieces_partition():
    frag = orbit_fragment("sphere(2)", SEED, "so3-ab", 3)
    sizes = piece_sizes(frag)
    assert sizes["identity"] == 1
    assert sizes["W(a)"] == sizes["W(A)"] == sizes["W(b)"] == sizes["W(B)"]
    assert sum(sizes.values()) == len(frag.words)


def test_fixed_seed_is_reported_with_the_word():
    # the b generator fixes the first coordinate axis
    e1 = (Fraction(1), Fraction(0), Fraction(0))
    with pytest.raises(SeedFixedError) as err:
        orbit_fragment("sphere(2)", e1, "so3-ab", 2)
    assert err.value.word_text == "b"


@pytest.mark.parametrize("space", ["sphere(2)", "proj(R,3)"])
def test_a_float_seed_coordinate_is_rejected(space):
    # only exact scalars give point keys, and 1.5 is a float
    with pytest.raises(BackendMismatchError, match="1.5 is not exact"):
        orbit_fragment(space, (1.5, Fraction(2), Fraction(3)), "so3-ab", 1)


def test_projective_fragment():
    frag = orbit_fragment("proj(R,3)", SEED, "so3-ab", 2)
    assert len(frag.words) == ball_size(2)
    assert frag.kind == "line"


def test_reassembly_two_piece_cover():
    frag = orbit_fragment("sphere(2)", SEED, "so3-ab", 3)
    result = reassembly_check(frag)
    assert result["ok"], result
    for side in ("a", "b"):
        stats = result["sides"][side]
        assert stats["targets"] == ball_size(2)
        assert stats["covered"] == stats["targets"]
        assert stats["multiplicity_one"]


def test_reassembly_depth_one_is_trivial():
    frag = orbit_fragment("sphere(2)", SEED, "so3-ab", 1)
    result = reassembly_check(frag)
    assert result["ok"]
    assert result["sides"]["a"]["targets"] == 1


def test_reassembly_fails_with_the_wrong_translate():
    frag = orbit_fragment("sphere(2)", SEED, "so3-ab", 3)
    # translating the W(a^-1) piece by b instead of a breaks the cover
    result = reassembly_check(frag, translate_a=B)
    assert not result["ok"]
    assert not result["sides"]["a"]["ok"]
    assert result["sides"]["b"]["ok"]


def test_equidecomp_witness_passes_on_a_partition():
    pts = [SpherePoint.from_vector((Fraction(x), Fraction(y), Fraction(1)))
           for x in range(-2, 3) for y in range(-2, 3)]
    witness = EquidecompWitness(pieces=(
        WitnessPiece("x<0", lambda p: p.direction[0] * p.sign < 0, None),
        WitnessPiece("x>=0", lambda p: p.direction[0] * p.sign >= 0, None),
    ))
    result = equidecomp_verify(witness, pts)
    assert result["ok"], result
    assert result["points"] == len(pts)


def test_equidecomp_witness_rejects_overlap():
    pts = [SpherePoint.from_vector((Fraction(1), Fraction(0), Fraction(0)))]
    witness = EquidecompWitness(pieces=(
        WitnessPiece("all", lambda p: True, None),
        WitnessPiece("also-all", lambda p: True, None),
    ))
    result = equidecomp_verify(witness, pts)
    assert not result["ok"]
    assert "2 pieces" in result["failures"][0]


def test_equidecomp_witness_rejects_gaps():
    pts = [SpherePoint.from_vector((Fraction(1), Fraction(0), Fraction(0)))]
    witness = EquidecompWitness(pieces=(
        WitnessPiece("none", lambda p: False, None),
    ))
    result = equidecomp_verify(witness, pts)
    assert not result["ok"]


def test_equidecomp_witness_checks_the_image():
    g = default_absorber()
    pts = [SpherePoint.from_vector((Fraction(1), Fraction(0), Fraction(0)))]
    witness = EquidecompWitness(
        pieces=(WitnessPiece("moved", lambda p: True, g),),
        target_predicate=lambda q: False)
    result = equidecomp_verify(witness, pts)
    assert not result["ok"]
    assert "left the target" in result["failures"][0]


def test_run_config_defaults():
    cfg = RunConfig()
    assert (cfg.depth, cfg.samples, cfg.seed) == (6, 500, 42)
    assert cfg.tol == 1e-9
    assert cfg.absorber_bound == 50


def test_verify_small_sphere_run():
    root = derive("sphere(2)")
    report = verify(root, depth=3, samples=30)
    assert report["overall"] == "pass"
    assert report["structure"]["ok"]
    assert report["provenance"]["ok"]
    assert report["provenance"]["labelled_samples"] > 0
    assert report["totals"]["failures"] == 0
    rules = [n["rule"] for n in report["nodes"]]
    assert rules == ["CountableAbsorb", "SubgroupLift", "FreeTransport",
                     "BaseF2"]


def test_verify_accepts_config_overrides():
    root = derive("sphere(2)")
    report = verify(root, RunConfig(depth=2, samples=10))
    assert report["config"]["depth"] == 2
    assert report["config"]["samples"] == 10


def test_verify_is_deterministic():
    import json
    root = derive("proj(R,3)")
    r1 = verify(root, depth=3, samples=25)
    r2 = verify(root, depth=3, samples=25)
    assert json.dumps(r1, sort_keys=True) == json.dumps(r2, sort_keys=True)


def test_verify_flags_structural_damage():
    import dataclasses
    root = derive("sphere(2)")
    shear = Matrix([(Fraction(1), Fraction(1), Fraction(0)),
                    (Fraction(0), Fraction(1), Fraction(0)),
                    (Fraction(0), Fraction(0), Fraction(1))])
    bad = dataclasses.replace(root, params={**root.params, "absorber": shear})
    report = verify(bad, depth=2, samples=5)
    assert report["overall"] == "fail"
    assert not report["structure"]["ok"]
    assert report["nodes"] == []


def test_classify_labels_of_fragment_points():
    from paradoxcert.verification import CertVerifier
    root = derive("sphere(2)")
    v = CertVerifier(root, RunConfig(depth=3, samples=10))
    frag = orbit_fragment("sphere(2)", root.children[0].children[0]
                          .params["seed"], "so3-ab", 3)
    for w in frag.words[:20]:
        assert v.classify(frag.point_for(w)) == classify_prefix(w)


def test_classify_marks_absorbed_points():
    from paradoxcert.freegroup import exceptional_set
    from paradoxcert.spaces import act
    from paradoxcert.verification import CertVerifier
    root = derive("sphere(2)")
    v = CertVerifier(root, RunConfig(depth=3, samples=10))
    pair = get_pair("so3-ab")
    g = default_absorber()
    axis = sorted(exceptional_set(pair, 1), key=repr)[0]
    p = SpherePoint(1, axis, True)
    # the axis itself and its first few absorber images all label "absorbed"
    for _ in range(4):
        assert v.classify(p) == "absorbed"
        p = act(g, p)
    # so does a float copy of an image, matched in the float lane
    fp = SpherePoint.from_vector(p.to_float_vector())
    assert not fp.exact
    assert v.classify(fp) == "absorbed"


def test_classify_carries_an_exact_line_through_the_exact_chart():
    from paradoxcert.scalars import GaussSqrt5
    from paradoxcert.spaces import ProjectivePoint
    from paradoxcert.verification import CertVerifier
    v = CertVerifier(derive("proj(C,2)"), RunConfig(depth=3, samples=10))
    one, zero, i = GaussSqrt5(1), GaussSqrt5(0), GaussSqrt5(0, 0, 1, 0)
    # [1 : 0] and [1 : 1] go to the axes e_3 and e_1, which lie in D[so3-ab]
    for vec in ((one, zero), (one, one)):
        assert v.classify(ProjectivePoint.from_vector(vec)) == "absorbed"
    # [i : 1] goes to e_2, which is neither absorbed nor a fragment point
    assert v.classify(ProjectivePoint.from_vector((i, one))) == "Unknown"


def test_a_float_line_is_refused_at_a_line_fragment():
    # float points reach a FreeTransport fragment only from an Intertwine
    # lift, whose fragments are rays; a float line that passes the absorber
    # of proj(R,3) meets its line fragment and is refused by name
    from paradoxcert.spaces import ProjectivePoint
    from paradoxcert.verification import CertVerifier
    line = ProjectivePoint.from_vector((2.0, -1.0, 5.0))
    assert not line.exact
    with pytest.raises(VerificationError, match="line fragment"):
        CertVerifier(derive("proj(R,3)")).classify(line)


def test_free_transport_names_a_trivial_word(monkeypatch):
    from paradoxcert import verification

    def trivial_word(pair, max_len):
        return {"pair": pair.name, "max_len": max_len, "words_checked": 7,
                "ok": False, "counterexample": "abAB", "elapsed_s": 0.0}

    monkeypatch.setattr(verification, "check_freeness", trivial_word)
    report = verify(derive("sphere(2)"), depth=2, samples=5)
    assert report["overall"] == "fail"
    failed = [n for n in report["nodes"] if n["status"] == "fail"]
    assert [n["rule"] for n in failed] == ["FreeTransport"]
    assert any("word abAB is trivial" in f for f in failed[0]["failures"])


def test_verify_classifies_intertwine_lifted_float_samples():
    # proj(C,2) lifts its sphere(2) samples through the float chart, so the
    # root classification of those labelled samples runs the FreeTransport
    # float index and the absorber float lane
    from paradoxcert.verification import CertVerifier, _content_key
    root = derive("proj(C,2)")
    v = CertVerifier(root, RunConfig(depth=3, samples=30))
    report = v.verify()
    assert report["overall"] == "pass"
    assert report["provenance"]["ok"]
    assert report["provenance"]["labelled_samples"] > 0
    nodes = dict(root.walk())
    assert sorted((path, _content_key(nodes[path], v.config)[0])
                  for path, fact in v._node_facts.items()
                  if ("float index", id(fact)) in v._facts) == [
        ("0.0", "absorber"), ("0.0.0.0", "fragment")]


def test_grass_h42_runs_the_quaternion_paths():
    # no other certificate found multiplies a rational by a quaternion
    # (Quaternion.__rmul__, in the slice intersection of an H 2-plane),
    # flattens float quaternions (_flatten_scalar), decodes real absorber
    # keys into float quaternions (_float_in_field) and reads real
    # quaternion entries into a real absorber's integer keys
    # (IntegerReader._form); depth 1 and one sample reach all four
    report = verify(derive("grass(H,4,2)"), depth=1, samples=1)
    assert report["overall"] == "pass"
    assert report["unknown"] == 0
    assert report["provenance"]["labelled_samples"] == 1
    assert [n["stats"]["lifted"] for n in report["nodes"]
            if n["rule"] == "Intertwine"] == [1, 1]


def _failures_at_root(report):
    assert report["overall"] == "fail"
    failed = [n for n in report["nodes"] if n["status"] == "fail"]
    assert [(n["path"], n["rule"]) for n in failed] == [
        ("0", "CountableAbsorb")]
    return failed[0]["failures"]


def test_countable_absorb_rejects_an_absorber_that_is_a_pair_word():
    import dataclasses
    from paradoxcert.freegroup import evaluate
    from paradoxcert.words import parse_word
    root = derive("sphere(2)")
    word = evaluate(parse_word("abAb"), get_pair("so3-ab"))
    bad = dataclasses.replace(root, params={**root.params, "absorber": word})
    report = verify(bad, depth=4, samples=5)
    assert "absorber equals pair word abAb" in _failures_at_root(report)


def test_countable_absorb_rejects_an_absorber_fixing_the_removed_line():
    import dataclasses
    root = derive("sphere(3)")
    ident = Matrix.identity(4, RING_RATIONAL)
    bad = dataclasses.replace(root, params={**root.params, "absorber": ident})
    report = verify(bad, depth=2, samples=5)
    assert "absorber fixes the removed line" in _failures_at_root(report)


# grass(C,4,2) holds the proj(C,3) -> proj(C,2) -> sphere(2) chain twice:
# once under 0.0.0.0 and once under 0.0.1.0, with the same suffixes
GRASS_SMALL = {"depth": 3, "samples": 30}


def _grass_c42_with(path, tamper):
    import json
    from paradoxcert.certificates import cert_from_json, cert_to_json
    blob = json.loads(json.dumps(cert_to_json(derive("grass(C,4,2)"))))
    node = blob["root"]
    for i in path.split(".")[1:]:
        node = node["children"][int(i)]
    tamper(node["params"])
    return cert_from_json(blob)


def _identity_absorber(params):
    params["absorber"] = {"__matrix__": {
        "ring": "rational",
        "entries": [["1" if i == j else "0" for j in range(3)]
                    for i in range(3)]}}


def _fixed_seed(params):
    params["seed"] = [0, 0, 1]


@pytest.mark.parametrize("path,tamper,rule,reason", [
    ("0.0.1.0.0.0.0.0.0.0", _identity_absorber, "CountableAbsorb",
     "absorber orbit self-intersects: (0, 1)"),
    ("0.0.1.0.0.0.0.0.0.0.0.0", _fixed_seed, "FreeTransport",
     "seed rejected"),
    ("0.0.0.0.0.0.0.0.0.0", _identity_absorber, "CountableAbsorb",
     "absorber orbit self-intersects: (0, 1)"),
    ("0.0.0.0.0.0.0.0.0.0.0.0", _fixed_seed, "FreeTransport",
     "seed rejected"),
], ids=["absorber-second", "seed-second", "absorber-first", "seed-first"])
def test_a_tampered_copy_of_a_repeated_subtree_fails_alone(
        path, tamper, rule, reason):
    report = verify(_grass_c42_with(path, tamper), **GRASS_SMALL)
    failed = [n for n in report["nodes"] if n["status"] == "fail"]
    assert [(n["path"], n["rule"]) for n in failed] == [(path, rule)]
    assert any(reason in f for f in failed[0]["failures"])
    parts = path.split(".")
    twin = ".".join(parts[:2] + [str(1 - int(parts[2]))] + parts[3:])
    assert [n["status"] for n in report["nodes"]
            if n["path"] == twin] == ["pass"]


def test_repeated_subtrees_compute_each_fact_once(monkeypatch):
    from paradoxcert import verification
    calls = Counter()
    for name in ("absorber_check", "orbit_fragment", "selftest",
                 "check_freeness", "check_translate_identity",
                 "exceptional_set", "pair_word_scan"):
        def counted(*args, _fn=getattr(verification, name), _name=name,
                    **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(verification, name, counted)
    report = verify(derive("grass(C,4,2)"), **GRASS_SMALL)
    assert report["overall"] == "pass"
    assert calls == {"absorber_check": 2, "orbit_fragment": 2, "selftest": 5,
                     "check_freeness": 1, "check_translate_identity": 1,
                     "exceptional_set": 1, "pair_word_scan": 1}


@pytest.mark.parametrize("raw,reported", [
    (0.0, 0.0),
    (4.440892098500624e-16, 1e-15),
    (1.6375789613221059e-15, 1e-14),
    (2.3473410715180165e-14, 1e-13),
    (2.3096542040024204e-14, 1e-13),
    (1e-15, 1e-15),
])
def test_lift_deviations_are_reported_as_a_power_of_ten(raw, reported):
    assert _decade_ceiling(raw) == reported


def test_absorbed_levels_match_a_brute_force_orbit(monkeypatch):
    # every exact point the default sphere(2) verify classifies at its
    # CountableAbsorb root gets the least k of its line in g^k(D), as a
    # walk of exact mat_vec and normalize_leading finds it
    from paradoxcert.freegroup import exceptional_set
    from paradoxcert.linalg import mat_vec, normalize_leading
    from paradoxcert.verification import CertVerifier, _point_line_key
    seen = []
    level = CertVerifier._absorbed_level

    def recorded(self, node, path, point):
        seen.append((path, point))
        return level(self, node, path, point)
    monkeypatch.setattr(CertVerifier, "_absorbed_level", recorded)
    v = CertVerifier(derive("sphere(2)"), RunConfig())
    assert v.verify()["overall"] == "pass"
    monkeypatch.undo()
    g = default_absorber()
    current = sorted(exceptional_set(get_pair("so3-ab"), 4), key=repr)
    brute = {}
    for k in range(51):
        for line in current:
            brute.setdefault(normalize_leading(line), k)
        current = [mat_vec(g, line) for line in current]
    points = {p for path, p in seen if path == "0" and p.exact}
    assert len(points) > 500 and {path for path, _ in seen} == {"0"}
    levels = [v._absorbed_level(v.root, "0", p) for p in points]
    assert levels == [brute.get(_point_line_key(p)) for p in points]
    assert {0, 1, 2} <= set(levels) and None in levels
