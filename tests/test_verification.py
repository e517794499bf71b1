"""Orbit fragments, paradoxical reassembly, witnesses, and full runs."""

import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from paradoxcert.certificates import derive
from paradoxcert.errors import (
    BackendMismatchError,
    DomainError,
    SeedFixedError,
    VerificationError,
)
from paradoxcert.freegroup import (
    absorber_check,
    default_absorber,
    exceptional_set,
    get_pair,
)
from paradoxcert.linalg import (
    Matrix,
    mat_vec,
    normalize_leading,
    ray_canonical,
)
from paradoxcert.scalars import RING_RATIONAL, GaussSqrt5, QSqrt5, Quaternion
from paradoxcert.spaces import ProjectivePoint, SpherePoint
from paradoxcert.verification import (
    EquidecompWitness,
    RunConfig,
    WitnessPiece,
    classify,
    equidecomp_verify,
    orbit_fragment,
    piece_sizes,
    reassembly_check,
    verify,
)
from paradoxcert.words import (
    A,
    B,
    ball_size,
    classify_prefix,
    inverse_word,
    reduce,
    word_text,
)

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
    # only exact scalars give point keys, and 1.5 is a float: the integer
    # reading of the seed refuses it
    with pytest.raises(BackendMismatchError,
                       match="no integer form for float"):
        orbit_fragment(space, (1.5, Fraction(2), Fraction(3)), "so3-ab", 1)


def test_projective_fragment():
    frag = orbit_fragment("proj(R,3)", SEED, "so3-ab", 2)
    assert len(frag.words) == ball_size(2)
    assert frag.kind == "line"


def _exact_point(kind, v):
    """The ray or line of an exact vector, keyed as the exact walk keys it:
    by ``ray_canonical`` or ``normalize_leading``."""
    if kind == "ray":
        return SpherePoint(*ray_canonical(v))
    return ProjectivePoint(normalize_leading(v))


def _exact_walk(kind, seed, pair, depth):
    """(words, vectors, points) of the orbit walk on exact vectors, one
    ``mat_vec`` per step: the reference the integer walk must equal."""
    mats = [pair.letter_matrix(x) for x in range(4)]
    words, vectors = [()], {(): seed}
    points = {(): _exact_point(kind, seed)}
    index = {points[()]: ()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            for x in range(4):
                if w and x == (w[0] ^ 1):
                    continue
                w2 = (x,) + w
                v2 = mat_vec(mats[x], vectors[w])
                p2 = _exact_point(kind, v2)
                if p2 in index:
                    fix = reduce(inverse_word(index[p2]) + w2)
                    raise SeedFixedError(word_text(fix))
                words.append(w2)
                vectors[w2] = v2
                points[w2] = p2
                index[p2] = w2
                nxt.append(w2)
        frontier = nxt
    return words, vectors, points


_GAUSS_SEED = (GaussSqrt5(1), GaussSqrt5(2, 0, 1))
_QUAT_SEED = (Quaternion(*map(QSqrt5, (1, 0, 0, 0))),
              Quaternion(*map(QSqrt5, (2, 1, 0, 0))))
# the pair of each projective line and the line [1 : 2+i] whose chart image
# the sphere certificate under its Intertwine walks
_LINE_WALKS = {"C": ("su2-sqrt5", _GAUSS_SEED),
               "H": ("sp1-sqrt5@2", _QUAT_SEED)}


@pytest.mark.parametrize("space,seed,pair,depth", [
    ("sphere(2)", SEED, "so3-ab", 4),
    ("proj(R,3)", SEED, "so3-ab", 4),
    ("proj(C,2)", _GAUSS_SEED, "su2-sqrt5", 4),
    ("proj(H,2)", _QUAT_SEED, "sp1-sqrt5@2", 3),
], ids=["sphere2", "projR3", "projC2", "projH2"])
def test_the_integer_orbit_walk_equals_the_exact_walk(space, seed, pair,
                                                      depth):
    frag = orbit_fragment(space, seed, pair, depth)
    pair = get_pair(pair)
    words, vectors, points = _exact_walk(frag.kind, seed, pair, depth)
    assert frag.words == words
    assert [frag.vector(w) for w in words] == [vectors[w] for w in words]
    assert [frag.point_for(w) for w in words] == [points[w] for w in words]
    # classify's key of each exact point finds its word, and the key of a
    # translate (the wrong-translate branch of reassembly_check) is that of
    # the moved exact point
    mats = [pair.letter_matrix(x) for x in range(4)]
    for w in words:
        assert frag.index[frag.key_of(points[w])] == w
        for x in range(4):
            moved = _exact_point(frag.kind, mat_vec(mats[x], vectors[w]))
            assert frag.moved_key(w, x) == frag.key_of(moved)


@pytest.mark.parametrize("space", ["sphere(2)", "proj(R,3)"])
@pytest.mark.parametrize("seed", [(0, 0, 1), (1, 0, 0)])
def test_the_integer_walk_names_the_fixing_word_as_the_exact_walk_does(
        space, seed):
    seed = tuple(map(Fraction, seed))
    kind = "ray" if space.startswith("sphere") else "line"
    with pytest.raises(SeedFixedError) as want:
        _exact_walk(kind, seed, get_pair("so3-ab"), 3)
    with pytest.raises(SeedFixedError) as got:
        orbit_fragment(space, seed, "so3-ab", 3)
    assert str(got.value) == str(want.value)


def _index_digest(index):
    return hashlib.sha256(repr(sorted(index.items())).encode()).hexdigest()


def test_the_kernels_fragment_and_absorber_indexes_are_pinned():
    # the keys of the depth-8 sphere(2) fragment and of the default
    # absorber orbit, as the kernels benchmark walks them
    frag = orbit_fragment("sphere(2)", SEED, "so3-ab", 8)
    assert len(frag.index) == 13121
    assert _index_digest(frag.index) == (
        "ae7ca210a9a5d88c1345364cb1e9fff1151f2cd8db5fe882a6464e10f6eb1b95")
    lines = exceptional_set(get_pair("so3-ab"), 4)
    index = absorber_check(default_absorber(), lines, 50)["index"]
    assert len(index) == 66 * 51
    assert _index_digest(index) == (
        "b2a003c800301868bf39fae6be1e35b773af36faa358913aa637559eddf3974e")


def test_a_ray_walk_needs_a_real_pair():
    seed = tuple(map(Fraction, (1, 2, 3, 4)))
    with pytest.raises(DomainError, match="no real ordering"):
        orbit_fragment("sphere(3)", seed, "su2-sqrt5@4", 1)


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
    p = SpherePoint(1, axis)
    # the axis itself and its first few absorber images all label "absorbed"
    for _ in range(4):
        assert v.classify(p) == "absorbed"
        p = act(g, p)


def test_classify_carries_an_exact_line_through_the_exact_chart():
    from paradoxcert.scalars import GaussSqrt5
    from paradoxcert.spaces import ProjectivePoint
    from paradoxcert.verification import CertVerifier
    v = CertVerifier(derive("proj(C,2)"), RunConfig(depth=3, samples=10))
    one, zero, i = GaussSqrt5(1), GaussSqrt5(0), GaussSqrt5(0, 0, 1, 0)
    # [1 : 0] and [i : 1] go to e_3 and e_2, the letter axes of the
    # induced pair so3-su2, which lie in D[so3-su2]
    for vec in ((one, zero), (i, one)):
        assert v.classify(ProjectivePoint.from_vector(vec)) == "absorbed"
    # [1 : 1] goes to e_1, which is neither absorbed nor a fragment point
    assert v.classify(ProjectivePoint.from_vector((one, one))) == "Unknown"


def test_a_float_line_is_refused_at_a_line_fragment():
    # only exact points have keys, and no line holds a float: it is
    # refused where it is built, so the line fragment of proj(R,3) and the
    # absorber above it only ever key the exact line
    from paradoxcert.verification import CertVerifier
    with pytest.raises(BackendMismatchError, match="is not exact"):
        ProjectivePoint.from_vector((2.0, -1.0, 5.0))
    line = ProjectivePoint.from_vector((2, -1, 5))
    root = derive("proj(R,3)")
    v = CertVerifier(root)
    fragment = root.children[0].children[0]
    assert fragment.rule == "FreeTransport"
    for node, path in ((fragment, "0.0.0"), (root, "0")):
        assert v.classify(line, node, path) == "Unknown"


@pytest.mark.parametrize("columns", [
    [(complex(1.0), complex(2.0, 1.0))],
    [(1 + 0j, 0j, 0.5j, 0j), (0j, 1 + 0j, 0j, 2 + 0j)],
], ids=["intertwine-line", "grass-plane"])
def test_classify_refuses_a_float_point(columns):
    # no point holds a float to classify: a line of proj(C,2) or a plane
    # of grass(C,4,2) over complex floats is refused where it is built
    from paradoxcert.spaces import Subspace
    with pytest.raises(BackendMismatchError, match="is not exact"):
        Subspace.from_basis(columns)


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


@pytest.mark.parametrize("field,space,pair,seed", [
    ("C", "sphere(2)", "so3-su2", (2, -1, -2)),
    ("H", "sphere(4)", "so5-sp1", (2, -1, 0, 0, -2)),
], ids=["C", "H"])
def test_every_charted_fragment_point_lifts_exactly_and_replays(
        field, space, pair, seed):
    # the chart carries the fragment of the projective line's own pair
    # onto the fragment of the pair it induces, word by word, and the exact
    # lift carries it back: the lifts of the sphere walk are the line walk
    from paradoxcert.equimaps import stereographic_apply, stereographic_lift
    from paradoxcert.spaces import Projective
    line_pair, line_seed = _LINE_WALKS[field]
    frag = orbit_fragment(space, seed, pair, 6)
    lines = orbit_fragment(Projective(field, 2), line_seed, line_pair, 6)
    assert frag.words == lines.words and len(frag.words) == 1457
    for w in frag.words:
        point = frag.point_for(w)
        line = stereographic_lift(field, point)
        assert line == lines.point_for(w)
        assert stereographic_apply(field, line) == point


@pytest.mark.parametrize("desc", ["proj(C,2)", "proj(H,2)"])
def test_verify_lifts_every_intertwine_sample_exactly(desc):
    # the child walks the pair the chart induces, so every child sample
    # lifts to an exact line that replays; the labelled lifts are all the
    # node sends up, and the root classifies each of them exactly
    report = verify(derive(desc), depth=3, samples=30)
    assert report["overall"] == "pass"
    assert report["unknown"] == 0
    provenance = report["provenance"]
    assert provenance["matched"] == provenance["labelled_samples"] == \
        report["totals"]["samples"] > 0
    nodes = {n["path"]: n for n in report["nodes"]}
    assert nodes["0"]["stats"]["lifted"] == \
        nodes["0.0"]["stats"]["samples_out"] == 30
    assert "orbit_fragment" not in nodes["0"]["stats"]
    assert nodes["0.0"]["stats"]["absorbed_samples"] == \
        (12 if desc == "proj(C,2)" else 3)


def test_grass_h42_runs_the_quaternion_paths():
    # no other certificate found multiplies a rational by a quaternion
    # (Quaternion.__rmul__, in the slice intersection of an H 2-plane) and
    # reads real quaternion entries into a real absorber's integer keys
    # (IntegerReader._form); depth 1 and one sample reach both
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
    assert calls == {"absorber_check": 2, "orbit_fragment": 1, "selftest": 5,
                     "check_freeness": 1, "check_translate_identity": 1,
                     "exceptional_set": 1, "pair_word_scan": 1}


def test_absorbed_levels_match_a_brute_force_orbit(monkeypatch):
    # every exact point the default sphere(2) verify classifies at its
    # CountableAbsorb root gets the least k of its line in g^k(D), as a
    # walk of exact mat_vec and normalize_leading finds it
    from paradoxcert.freegroup import exceptional_set
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
    points = {p for path, p in seen if path == "0"}
    assert len(points) > 500 and {path for path, _ in seen} == {"0"}
    levels = [v._absorbed_level(v.root, "0", p) for p in points]
    assert levels == [brute.get(_point_line_key(p)) for p in points]
    assert {0, 1, 2} <= set(levels) and None in levels


@pytest.mark.parametrize("desc", ["sphere(2)", "proj(C,2)", "proj(C,3)",
                                  "proj(H,2)", "grass(R,4,2)",
                                  "grass(C,4,2)", "flag(R;1,3,4)"])
def test_small_configs_pass_at_every_absorber_bound(desc):
    # one certificate per rule shape, at absorber bounds 1 to 3
    root = derive(desc)
    wrong = []
    for bound in (1, 2, 3):
        for depth, samples in ((1, 2), (2, 5)):
            report = verify(root, depth=depth, samples=samples, seed=7,
                            absorber_bound=bound)
            if report["overall"] != "pass" or report["unknown"]:
                wrong.append((bound, depth, samples, report["unknown"]))
    assert wrong == []


def test_classify_charts_a_rational_line_exactly():
    # a rational line lies in proj(C,2): the chart reads each entry by
    # value and puts it where it puts the same line written over
    # Q(sqrt5, i), and both are absorbed
    from paradoxcert.equimaps import stereographic_apply
    from paradoxcert.scalars import GaussSqrt5
    root = derive("proj(C,2)")
    for vec in ((1, 2), (1, 0)):
        line = ProjectivePoint.from_vector(tuple(map(Fraction, vec)))
        gauss = ProjectivePoint.from_vector(tuple(map(GaussSqrt5, vec)))
        assert stereographic_apply("C", line) == \
            stereographic_apply("C", gauss)
        assert classify(root, line) == classify(root, gauss) == "absorbed"
