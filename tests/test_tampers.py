"""Negative controls through ``verify``: each case patches one kernel or
edits one field of a certificate so that one failure branch of one rule
handler must fire, and names the rule, the node path and the failure text
that branch reports, and how many samples the root then classifies as
"Unknown"."""

import dataclasses
import json

import pytest

from paradoxcert import equimaps, verification, words
from paradoxcert.certificates import cert_from_json, cert_to_json, derive
from paradoxcert.cli import main
from paradoxcert.errors import DomainError, ParadoxError
from paradoxcert.spaces import ProjectivePoint, SpherePoint
from paradoxcert.verification import verify
from paradoxcert.words import B, check_translate_identity


def _longer_witness(monkeypatch, root):
    # h^-1 u is always one letter longer, so every u in W(h) gets a
    # witness in W(h^-1) as well; the scan alone must already fail
    monkeypatch.setattr(words, "translate_witness",
                        lambda head, u: (head ^ 1,) + u)
    scan = check_translate_identity(3)
    assert not scan["ok"]
    assert scan["violations"][0] == (
        "word a vs generator a: piece=True translate=True")
    return root


def _wrong_translate(monkeypatch, root):
    # translating the W(a^-1) piece by b instead of a covers as many
    # points once each, but not the radius-2 fragment
    reassembly = verification.reassembly_check
    monkeypatch.setattr(verification, "reassembly_check",
                        lambda frag: reassembly(frag, translate_a=B))
    return root


def _shallow_fragment(monkeypatch, root):
    # one level short of the run depth: a radius-2 fragment at depth 3
    fragment = verification.orbit_fragment
    monkeypatch.setattr(
        verification, "orbit_fragment",
        lambda space, seed, pair, depth: fragment(space, seed, pair,
                                                  depth - 1))
    return root


def _moved_lift(monkeypatch, root):
    # [q : 1] lifts to [q + 1 : 1], which the chart puts elsewhere: the
    # leading-1 vector (v, w) of a line off the north pole has q = v / w
    lift = verification.stereographic_lift

    def moved(field, p):
        v, w = lift(field, p).vector
        return ProjectivePoint.from_vector((v + w, w))
    monkeypatch.setattr(verification, "stereographic_lift", moved)
    return root


def _off_chart_seed(monkeypatch, root):
    # (1, 1, 0) has norm sqrt2, and the rotations keep it: no ray of its
    # fragment has a unit vector over Q(sqrt5), the field of the chart
    blob = cert_to_json(root)
    transport = blob["root"]["children"][0]["children"][0]["children"][0]
    assert transport["rule"] == "FreeTransport"
    transport["params"]["seed"] = [1, 1, 0]
    return cert_from_json(blob)


def _corrupted_chart(monkeypatch, root):
    monkeypatch.setattr(verification, "stereographic",
                        lambda field: equimaps.corrupted(
                            equimaps.stereographic(field)))
    return root


def _transposed_rotation(monkeypatch, root):
    # R(g)^T is orthogonal, but R(gh)^T = R(h)^T R(g)^T is no product
    # R(g)^T R(h)^T for most g and h
    rotation = equimaps.induced_rotation
    monkeypatch.setattr(equimaps, "induced_rotation",
                        lambda field, g: rotation(field, g).transpose())
    return root


def _changed_map(monkeypatch, root, change):
    # every map a certificate names, changed: in sphere(3) that is the
    # sphere_drop(3) of its one Pullback
    build = verification.map_from_params
    monkeypatch.setattr(verification, "map_from_params",
                        lambda params: change(build(params)))
    return root


def _section(section):
    def tamper(monkeypatch, root):
        return _changed_map(monkeypatch, root,
                            lambda m: dataclasses.replace(m, section=section))
    return tamper


def _corrupted_drop(monkeypatch, root):
    return _changed_map(monkeypatch, root, equimaps.corrupted)


def _not_unitary(monkeypatch, root):
    monkeypatch.setattr(verification, "is_unitary", lambda g: False)
    return root


def _non_unitary_member(monkeypatch, root):
    # the letters of the sphere(2) pair are 3x3, the members of SO(4) 4x4
    unitary = verification.is_unitary
    monkeypatch.setattr(verification, "is_unitary",
                        lambda g: g.rows != 4 and unitary(g))
    return root


def _swapped_embedding(monkeypatch, root):
    # the padded point with its first two coordinates swapped: a motion of
    # the first two coordinates of the point alone, not of the action
    embed = verification.block_embed_point

    def swapped(point, n):
        p = embed(point, n)
        d = p.direction
        return SpherePoint.from_vector(
            tuple(p.sign * x for x in (d[1], d[0]) + d[2:]))
    monkeypatch.setattr(verification, "block_embed_point", swapped)
    return root


def _wrong_side(monkeypatch, root):
    contained = verification._contained_in
    monkeypatch.setattr(verification, "_contained_in",
                        lambda m, point: not contained(m, point))
    return root


def _corrupted_duality(monkeypatch, root):
    # the duality map of the grass(R,4,3) transfer; its proj_drop(R,4)
    # Pullback below keeps its map
    return _changed_map(
        monkeypatch, root,
        lambda m: (equimaps.corrupted(m) if m.name.startswith("duality")
                   else m))


def _corrupted_back(monkeypatch, root):
    # grass(R,4,3) transfers through duality(R,4,1), and the way back is
    # that map's section, the complement of a 3-plane, which is corrupted
    def change(m):
        back = equimaps.corrupted(dataclasses.replace(m, apply=m.section))
        return dataclasses.replace(m, section=back.apply)
    return _changed_map(
        monkeypatch, root,
        lambda m: change(m) if m.name.startswith("duality") else m)


def _refused(q):
    raise DomainError("no lift")


def _north_pole(q):
    # a pole, which sphere_drop.apply refuses
    return SpherePoint.from_vector((0, 0, 0, 1))


def _antipode(q):
    # a point of the domain, but not a lift of q
    return SpherePoint(-q.sign, q.direction)


@pytest.mark.parametrize("desc,rule,tamper,path,text,unknown", [
    pytest.param("sphere(2)", "BaseF2", _longer_witness, "0.0.0.0",
                 "translate-identity violated: ['word a vs generator a: "
                 "piece=True translate=True'", 0,
                 id="BaseF2-translate-identity"),
    pytest.param("sphere(2)", "FreeTransport", _wrong_translate, "0.0.0",
                 "reassembly cover failed: {'a': {'targets': 17, "
                 "'covered': 17, 'multiplicity_one': True, 'ok': False}, "
                 "'b': {'targets': 17, 'covered': 17, "
                 "'multiplicity_one': True, 'ok': True}}", 0,
                 id="FreeTransport-reassembly-cover"),
    pytest.param("sphere(2)", "FreeTransport", _shallow_fragment, "0.0.0",
                 "fragment has 17 points, expected 53", 0,
                 id="FreeTransport-fragment-size"),
    pytest.param("sphere(2)", "SubgroupLift", _not_unitary, "0.0",
                 "letter 0 of so3-ab is not orthogonal", 0,
                 id="SubgroupLift-letter"),
    pytest.param("sphere(3)", "SubgroupLift", _non_unitary_member, "0.0",
                 "embedded member is not unitary", 0,
                 id="SubgroupLift-member"),
    pytest.param("sphere(3)", "StarEmbed", _swapped_embedding, "0.0.0.0",
                 "embedding does not intertwine the action", 16,
                 id="StarEmbed-intertwine"),
    pytest.param("grass(R,4,2)", "DisjointUnion", _wrong_side, "0.0",
                 "branch A sample on the wrong side of the padded-subspace "
                 "split", 0, id="DisjointUnion-side"),
    # the swap of rows 0 and 1 commutes with the generators whose plane
    # avoids both, so the samples that draw one of those pass
    pytest.param("grass(R,4,3)", "EquidecompTransfer", _corrupted_duality,
                 "0", "duality selftest failed: 19", 18,
                 id="EquidecompTransfer-selftest"),
    pytest.param("grass(R,4,3)", "EquidecompTransfer", _corrupted_back, "0",
                 "duality failed to be an involution on 18 samples", 18,
                 id="EquidecompTransfer-involution"),
    pytest.param("proj(C,2)", "Intertwine", _moved_lift, "0",
                 "chart lift did not replay on 20 samples", 0,
                 id="Intertwine-lift-replay"),
    pytest.param("proj(C,2)", "Intertwine", _off_chart_seed, "0",
                 "chart lift left the field on 12 samples", 0,
                 id="Intertwine-lift-field"),
    pytest.param("proj(C,2)", "Intertwine", _corrupted_chart, "0",
                 "chart selftest failed", 0, id="Intertwine-chart-selftest"),
    pytest.param("proj(H,2)", "Intertwine", _transposed_rotation, "0",
                 "induced rotation selftest failed", 0,
                 id="Intertwine-rotation-selftest"),
    pytest.param("sphere(3)", "Pullback", _corrupted_drop, "0.0.0",
                 "map selftest failed for corrupted:sphere_drop(3)", 16,
                 id="Pullback-selftest"),
    pytest.param("sphere(3)", "Pullback", _section(_refused), "0.0.0",
                 "section failed: no lift", 0, id="Pullback-section"),
    pytest.param("sphere(3)", "Pullback", _section(_north_pole), "0.0.0",
                 "section left the map domain", 0, id="Pullback-domain"),
    pytest.param("sphere(3)", "Pullback", _section(_antipode),
                 "0.0.0",
                 "20 section lifts did not replay to their target point", 9,
                 id="Pullback-replay"),
])
def test_a_tampered_kernel_fails_its_branch(monkeypatch, desc, rule, tamper,
                                            path, text, unknown):
    report = verify(tamper(monkeypatch, derive(desc)), depth=3, samples=20)
    assert report["overall"] == "fail"
    failed = [n for n in report["nodes"] if n["status"] == "fail"]
    assert [(n["path"], n["rule"]) for n in failed] == [(path, rule)]
    assert [f for f in failed[0]["failures"] if f.startswith(text)]
    # the samples the root could not classify
    assert report["unknown"] == unknown


def test_an_error_inside_a_handler_fails_its_node(monkeypatch, tmp_path,
                                                 capsys):
    # every domain draw gives up, as grass_slice does on a hyperplane that
    # no k-plane meets in a line: the Pullback of sphere(3) fails, by its
    # path, and the report is still written
    def gives_up(apply, draw, rng):
        raise ParadoxError("could not sample a domain point")
    monkeypatch.setattr(equimaps, "_draw_accepted", gives_up)
    cert, report = tmp_path / "cert.json", tmp_path / "report.json"
    assert main(["derive", "sphere(3)", "-o", str(cert)]) == 0
    assert main(["verify", str(cert), "--depth", "3", "--samples", "20",
                 "-o", str(report)]) == 1
    nodes = json.loads(report.read_text())["nodes"]
    assert [(n["path"], n["rule"], n["failures"]) for n in nodes
            if n["status"] == "fail"] == [
        ("0.0.0", "Pullback", ["could not sample a domain point"])]
    assert ("node 0.0.0 [Pullback]: could not sample a domain point"
            in capsys.readouterr().err)


def test_an_absorbed_image_past_the_bound_collides(monkeypatch):
    # the absorbed samples g^0 d, g^1 d and g^2 d whatever the bound: at
    # bound 1 the index holds no g^2 d, so the witness takes it for the
    # complement, and g^1 d, which is absorbed, maps onto it
    root = derive("sphere(2)")
    assert verify(root, depth=3, samples=20, absorber_bound=1)[
        "overall"] == "pass"
    absorbed = verification._absorbed_samples

    def every_power_to_two(node, ctx):
        powers = dict(ctx["absorber_check"], bound=2)
        return absorbed(node, dict(ctx, absorber_check=powers))
    monkeypatch.setattr(verification, "_absorbed_samples",
                        every_power_to_two)
    report = verify(root, depth=3, samples=20, absorber_bound=1)
    assert report["overall"] == "fail"
    failed = [n for n in report["nodes"] if n["status"] == "fail"]
    assert [(n["path"], n["rule"]) for n in failed] == [
        ("0", "CountableAbsorb")]
    assert failed[0]["failures"] == [
        "image collision between pieces absorbed-orbit and complement"] * 4
    assert report["unknown"] == 2
