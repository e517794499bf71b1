"""Acceptance suite: the ten headline guarantees at full scale.

Each test prints one summary line; run with -s (or read the -v test lines)
to see them. These are the desk-scale guarantees the package makes:
exact freeness scans, the word-level translate identities, the sphere
orbit paradox, equivariance of the map catalog, duality, end-to-end
certificate verification for all fifteen supported spaces, pullback
coherence, the absorber, the invalid-input contract, and the induced
rotation of the projective line chart.
"""

import json
import time
from fractions import Fraction

import pytest

from paradoxcert.certificates import derive
from paradoxcert.cli import main
from paradoxcert.equimaps import (
    _random_su2_like,
    corrupted,
    default_catalog,
    induced_rotation,
    selftest,
)
from paradoxcert.freegroup import (
    absorber_check,
    check_freeness,
    default_absorber,
    exceptional_set,
    get_pair,
)
from paradoxcert.linalg import Matrix, matmul, projector_of_basis
from paradoxcert.sampling import random_subspace, random_unitary, rng_for
from paradoxcert.scalars import RING_RATIONAL, GaussSqrt5
from paradoxcert.spaces import act, exact_ring_for_field, orthogonal_complement
from paradoxcert.verification import (
    CertVerifier,
    RunConfig,
    map_from_params,
    orbit_fragment,
    reassembly_check,
)
from paradoxcert.words import (
    ball_size,
    check_translate_identity,
    classify_prefix,
    enumerate_ball,
)

ALL_DESCRIPTORS = (
    "sphere(2)", "sphere(3)", "sphere(4)",
    "proj(R,3)", "proj(R,4)", "proj(C,2)", "proj(C,3)", "proj(H,2)",
    "grass(R,4,2)", "grass(R,4,3)", "grass(C,4,2)",
    "flag(R;1,2,3)", "flag(C;1,2)", "flag(H;1,2)", "flag(R;1,3,4)",
)


def test_criterion_01_freeness_scans_at_depth_10():
    for pair_name in ("so3-ab", "su2-sqrt5", "sp1-sqrt5"):
        result = check_freeness(get_pair(pair_name), 10)
        assert result["ok"], result
        assert result["words_checked"] == 118096 == 2 * (3 ** 10 - 1)
        assert result["elapsed_s"] < 60.0
    print("criterion 1 PASS: 118,096 words identity-free for all three pairs")


def test_criterion_02_translate_identities_at_depth_12():
    # words of length <= 11 are checked so the translated witnesses stay
    # within the radius-12 ball
    result = check_translate_identity(12)
    assert result["ok"], result
    assert result["violations"] == []
    assert result["words_checked"] == ball_size(11) == 354293
    print("criterion 2 PASS: translate identities hold for "
          f"{result['words_checked']:,} words inside the radius-12 ball")


def test_criterion_03_sphere_orbit_paradox():
    start = time.monotonic()
    seed = (Fraction(1), Fraction(2), Fraction(3))
    frag = orbit_fragment("sphere(2)", seed, "so3-ab", 8)
    assert len(frag.words) == 13121 == 2 * 3 ** 8 - 1
    assert len(frag.index) == len(frag.words)   # zero collisions

    # the four letter pieces are pairwise disjoint point sets
    pieces = {}
    for w in frag.words:
        pieces.setdefault(classify_prefix(w), set()).add(frag.keys[w])
    names = ["W(a)", "W(A)", "W(b)", "W(B)"]
    for i, p in enumerate(names):
        for q in names[i + 1:]:
            assert not pieces[p] & pieces[q]

    # both two-piece reassemblies cover the radius-7 fragment exactly once;
    # the target size comes from the independent word enumeration
    radius7 = sum(1 for _ in enumerate_ball(7))
    assert radius7 == 4373
    result = reassembly_check(frag)
    assert result["ok"], result
    for side in ("a", "b"):
        stats = result["sides"][side]
        assert stats["targets"] == radius7
        assert stats["covered"] == radius7
        assert stats["multiplicity_one"]

    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    print(f"criterion 3 PASS: 13,121-point orbit reassembled twice "
          f"in {elapsed:.1f}s")


def test_criterion_04_equivariance_suite():
    # >= 10,000 checks spread over the catalog, weighted so the expensive
    # quaternionic maps do not dominate the runtime
    counts = {
        "sphere_drop(3)": 1500, "sphere_drop(4)": 1500,
        "proj_drop(R,4)": 600, "proj_drop(C,3)": 1000,
        "proj_drop(H,3)": 150,
        "grass_slice(R,4,2)": 400, "grass_slice(C,4,2)": 600,
        "duality(R,4,2)": 400, "duality(R,4,3)": 400,
        "duality(C,3,1)": 1000, "duality(H,3,1)": 150,
        "flag_to_grass(R;1,2,3;i=0)": 600,
        "flag_to_grass(C;1,2,3;i=1)": 600,
        "stereographic(C)": 1000, "stereographic(H)": 300,
        "induced_rotation(C)": 1000, "induced_rotation(H)": 300,
    }
    catalog = default_catalog()
    assert set(counts) == {m.name for m in catalog}
    total = 0
    for m in catalog:
        result = selftest(m, counts[m.name], seed=42)
        assert result["ok"], result
        total += result["samples"]
        assert m.exact and result["max_deviation"] == 0.0, result
    assert total >= 10000

    control = selftest(corrupted(catalog[0]), 30, seed=42)
    assert not control["ok"]
    print(f"criterion 4 PASS: {total:,} equivariance checks, "
          "corrupted control rejected")


def _proj(sub):
    """The orthogonal projector of a subspace, from its echelon basis."""
    return projector_of_basis(sub.basis)


def test_criterion_05_duality_on_500_subspaces_per_space():
    for field, n in (("R", 4), ("C", 3), ("H", 3)):
        ring = exact_ring_for_field(field)
        rng = rng_for(42, "duality", field, n)
        for i in range(500):
            k = 1 + (i % (n - 1))
            v = random_subspace(n, k, ring, rng)
            w = orthogonal_complement(v)
            assert w.dim == n - k
            assert _proj(orthogonal_complement(w)) == _proj(v)
            g = random_unitary(n, ring, rng)
            assert _proj(act(g, w)) == \
                _proj(orthogonal_complement(act(g, v)))
    print("criterion 5 PASS: duality exact on 1,500 subspaces "
          "over R^4, C^3, H^3")


def test_criterion_06_end_to_end_certificates(tmp_path):
    slowest = 0.0
    for desc in ALL_DESCRIPTORS:
        stem = desc.replace("(", "_").replace(")", "").replace(",", "-") \
                   .replace(";", "-")
        cert = tmp_path / f"{stem}.cert.json"
        rep1 = tmp_path / f"{stem}.r1.json"
        rep2 = tmp_path / f"{stem}.r2.json"
        assert main(["derive", desc, "-o", str(cert)]) == 0

        start = time.monotonic()
        assert main(["verify", str(cert), "-o", str(rep1)]) == 0, desc
        elapsed = time.monotonic() - start
        assert elapsed < 120.0, f"{desc} took {elapsed:.1f}s"
        slowest = max(slowest, elapsed)

        assert main(["verify", str(cert), "-o", str(rep2)]) == 0, desc
        assert rep1.read_bytes() == rep2.read_bytes(), desc

        report = json.loads(rep1.read_text())
        assert report["overall"] == "pass"
        assert report["config"] == {
            "depth": 6, "samples": 500, "seed": 42, "mode": "exact",
            "tol": 1e-9, "absorber_bound": 50, "absorber_depth": 4}
    print(f"criterion 6 PASS: 15 certificates verified twice, "
          f"byte-identical reports, slowest {slowest:.1f}s")


def test_criterion_07_pullback_coherence_on_the_flag_certificate():
    root = derive("flag(R;1,2,3)")
    assert root.rule == "Pullback"
    verifier = CertVerifier(root, RunConfig())
    _, samples = verifier._run(root, "0")
    m = map_from_params(root.params)
    labelled = len(samples)
    for s in samples:
        flag_label = verifier.classify(s.point)
        image_label = verifier.classify(m.apply(s.point),
                                        node=root.children[0], path="0.0")
        assert flag_label == image_label == s.label, (
            s.label, flag_label, image_label)
    assert labelled > 0
    print(f"criterion 7 PASS: flag and projected labels agree on "
          f"{labelled}/{labelled} provenanced samples")


def test_criterion_08_absorber_at_bound_50():
    lines = exceptional_set(get_pair("so3-ab"), 4)
    result = absorber_check(default_absorber(), lines, 50)
    assert result["ok"], result
    assert result["set_size"] == len(lines) == 66

    ident = Matrix.identity(3, RING_RATIONAL)
    control = absorber_check(ident, lines, 50)
    assert not control["ok"]
    assert control["first_collision"] == (0, 1)
    print("criterion 8 PASS: default absorber disjoint to power 50, "
          "identity collides at (0, 1)")


def test_criterion_09_invalid_input_contract(capsys):
    expectations = {
        "proj(R,2)": "n >= 3",
        "sphere(1)": "n >= 2",
        "flag(R;3)": "proper component",
    }
    for descriptor, fragment in expectations.items():
        assert main(["derive", descriptor]) == 2, descriptor
        err = capsys.readouterr().err
        assert fragment in err, (descriptor, err)
    print("criterion 9 PASS: all three invalid inputs exit 2 naming "
          "the violated hypothesis")


def test_criterion_10_induced_rotation_of_a_unit_quaternion():
    # g = (1/sqrt5) [[1, 2], [-2, 1]] over Q(sqrt5, i), exactly
    s = GaussSqrt5(0, 1, 0, 0, 5)
    g = Matrix([(s, 2 * s), (-2 * s, s)])
    r = induced_rotation("C", g)
    assert r.rows == 3
    assert matmul(r, r.transpose()) == Matrix.identity(3, RING_RATIONAL)
    assert sum(r.data[i][i] for i in range(3)) == Fraction(-1, 5)

    rng = rng_for(42, "hom")
    for _ in range(200):
        g1 = _random_su2_like("C", rng)
        g2 = _random_su2_like("C", rng)
        lhs = induced_rotation("C", matmul(g1, g2))
        rhs = matmul(induced_rotation("C", g1), induced_rotation("C", g2))
        assert lhs == rhs
    print("criterion 10 PASS: induced rotation orthogonal, trace -1/5, "
          "homomorphism on 200 pairs")
