"""Certificate derivation trees: shapes, structural checks, serialization."""

import dataclasses
import json
from fractions import Fraction

import pytest

from paradoxcert.certificates import (
    Node,
    RULES,
    SCHEMA_CERT,
    cert_from_json,
    cert_to_json,
    check,
    derive,
)
from paradoxcert.errors import CertificateError, DescriptorError

ALL_DESCRIPTORS = (
    "sphere(2)", "sphere(3)", "sphere(4)",
    "proj(R,3)", "proj(R,4)", "proj(C,2)", "proj(C,3)", "proj(H,2)",
    "grass(R,4,2)", "grass(R,4,3)", "grass(C,4,2)",
    "flag(R;1,2,3)", "flag(C;1,2)", "flag(H;1,2)", "flag(R;1,3,4)",
)


def test_rule_vocabulary():
    assert set(RULES) == {
        "BaseF2", "FreeTransport", "SubgroupLift", "StarEmbed", "Pullback",
        "DisjointUnion", "EquidecompTransfer", "CountableAbsorb",
        "Intertwine"}


def test_sphere2_certificate_shape():
    root = derive("sphere(2)")
    chain = []
    node = root
    while True:
        chain.append(node.rule)
        if not node.children:
            break
        node = node.children[0]
    assert chain == ["CountableAbsorb", "SubgroupLift", "FreeTransport",
                     "BaseF2"]
    assert root.space.text == "sphere(2)"
    assert root.group.text == "SO(3)"


def test_sphere_induction_adds_four_nodes_per_dimension():
    # each induction step wraps the lower sphere in
    # StarEmbed / Pullback / SubgroupLift / CountableAbsorb
    n4 = sum(1 for _ in derive("sphere(2)").walk())
    n5 = sum(1 for _ in derive("sphere(3)").walk())
    n6 = sum(1 for _ in derive("sphere(4)").walk())
    assert n4 == 4
    assert n5 - n4 == n6 - n5 == 4


def test_intertwine_base_cases():
    # the child walks the pair the chart induces, from the chart image of
    # the Intertwine seed [1 : 2+i]
    for desc, sphere, pair, seed, removed in (
            ("proj(C,2)", "sphere(2)", "so3-su2", (2, -1, -2),
             "D[so3-su2]"),
            ("proj(H,2)", "sphere(4)", "so5-sp1", (2, -1, 0, 0, -2),
             "poles")):
        root = derive(desc)
        assert root.rule == "Intertwine"
        assert root.children[0].space.text == sphere
        chain = [node for _, node in root.walk()]
        assert [node.rule for node in chain] == [
            "Intertwine", "CountableAbsorb", "SubgroupLift",
            "FreeTransport", "BaseF2"]
        transport = chain[3]
        assert transport.params == {"pair": pair, "seed": seed}
        assert transport.space.text == f"{sphere} minus {removed}"


def test_grassmann_high_k_uses_duality():
    # 3-planes in R^4 are equidecomposable with their orthogonal
    # complements: lines in R^4
    root = derive("grass(R,4,3)")
    assert root.rule == "EquidecompTransfer"
    assert root.params["map"] == "duality"
    assert root.params["args"] == ("R", 4, 1)
    assert root.children[0].space.text == "proj(R,4)"


def test_flag_pulls_back_through_first_component():
    root = derive("flag(R;1,2,3)")
    assert root.rule == "Pullback"
    assert root.params["map"] == "flag_to_grass"
    assert root.children[0].space.text == "proj(R,3)"


def test_every_acceptance_descriptor_checks_out():
    for desc in ALL_DESCRIPTORS:
        root = derive(desc)
        result = check(root)
        assert result["ok"], (desc, result["violations"])
        for path, node in root.walk():
            assert node.rule in RULES


def test_derive_rejects_invalid_descriptors():
    for bad in ("sphere(1)", "proj(R,2)", "flag(R;3)"):
        with pytest.raises(DescriptorError):
            derive(bad)


def test_json_round_trip_is_exact_and_deterministic():
    for desc in ALL_DESCRIPTORS:
        root = derive(desc)
        blob = cert_to_json(root)
        assert blob["schema"] == SCHEMA_CERT
        again = cert_from_json(blob)
        assert cert_to_json(again) == blob
        text1 = json.dumps(blob, sort_keys=True)
        text2 = json.dumps(cert_to_json(derive(desc)), sort_keys=True)
        assert text1 == text2


def test_bad_schema_is_rejected():
    blob = cert_to_json(derive("sphere(2)"))
    blob["schema"] = "paradox-cert/999"
    with pytest.raises(CertificateError):
        cert_from_json(blob)


def test_tampered_pullback_map_is_a_structural_violation():
    root = derive("flag(R;1,2,3)")
    bad = dataclasses.replace(
        root, params={**root.params, "args": ("R", (1, 2, 3), 1)})
    result = check(bad)
    assert not result["ok"]
    assert any("component" in v for v in result["violations"])


def test_map_args_that_name_no_map_are_violations():
    # a flag with no proper component has no component to read, and there
    # is no hyperplane to slice the 5-planes of R^4 by: check names both,
    # and stating the slice's shape builds no hyperplane
    flag = derive("flag(R;1,2,3)")
    bad = dataclasses.replace(
        flag, params={**flag.params, "args": ("R", (3,), 0)})
    assert check(bad)["violations"] == [
        "0: flag_to_grass args name no map: component index 0 out of range"]
    blob = cert_to_json(derive("grass(R,4,2)"))
    pullback = blob["root"]["children"][0]["children"][0]
    assert pullback["params"]["map"] == "grass_slice"
    pullback["params"]["args"] = ["R", 4, 5]
    assert ("0.0.0: grass_slice target is proj(R,0)*@4"
            in check(cert_from_json(blob))["violations"])


def test_tampered_group_breaks_subgroup_lift():
    from paradoxcert.spaces import GroupTag
    root = derive("sphere(2)")
    lift = root.children[0]
    assert lift.rule == "SubgroupLift"
    bad_lift = dataclasses.replace(lift, group=GroupTag("SO", 7))
    bad = dataclasses.replace(root, children=(bad_lift,))
    result = check(bad)
    assert not result["ok"]
    assert any("inclusion" in v or "match" in v
               for v in result["violations"])


def test_overlapping_union_branches_are_rejected():
    root = derive("grass(R,4,2)")
    union = root.children[0]
    assert union.rule == "DisjointUnion"
    # duplicate the first branch: the branches no longer cover disjoint
    # halves of the split
    bad_union = dataclasses.replace(
        union, children=(union.children[0], union.children[0]))
    bad = dataclasses.replace(root, children=(bad_union,))
    result = check(bad)
    assert not result["ok"]
    assert any("branch" in v for v in result["violations"])


def test_tampered_union_split_dimension():
    root = derive("grass(R,4,2)")
    union = root.children[0]
    bad_union = dataclasses.replace(union, params={**union.params, "m": 2})
    bad = dataclasses.replace(root, children=(bad_union,))
    result = check(bad)
    assert not result["ok"]
    assert any("hyperplane dimension" in v for v in result["violations"])


def test_absorber_must_be_exactly_unitary():
    from paradoxcert.linalg import Matrix
    from paradoxcert.scalars import RING_RATIONAL
    from fractions import Fraction
    root = derive("sphere(2)")
    shear = Matrix([(Fraction(1), Fraction(1), Fraction(0)),
                    (Fraction(0), Fraction(1), Fraction(0)),
                    (Fraction(0), Fraction(0), Fraction(1))])
    bad = dataclasses.replace(root, params={**root.params, "absorber": shear})
    result = check(bad)
    assert not result["ok"]
    assert any("unitary" in v for v in result["violations"])


def test_a_float_absorber_is_one_violation():
    # the 3x3 identity in floats, and with a Fraction first entry: every
    # entry is read, so the floats after an exact one are refused too
    from paradoxcert.linalg import Matrix
    root = derive("sphere(2)")
    for first in (1.0, Fraction(1)):
        g = Matrix([(first, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0)])
        bad = dataclasses.replace(root, params={**root.params, "absorber": g})
        assert check(bad)["violations"] == [
            "0: absorber must be exactly unitary"]


def test_walk_paths_are_in_preorder():
    root = derive("grass(C,4,2)")
    paths = [path for path, _ in root.walk()]
    assert paths[0] == "0"
    assert len(paths) == len(set(paths))
    for path in paths:
        assert all(p.isdigit() for p in path.split("."))
        # every non-root path extends its parent's path
        if "." in path:
            parent = path.rsplit(".", 1)[0]
            assert parent in paths


# --------------------------------------------------------------------------
# single-field mutations: check refuses every one that changes the JSON
# --------------------------------------------------------------------------

_FIELDS = ("R", "C", "H")
_PAIR_NAMES = ("so3-ab", "so3-su2", "so5-sp1", "su2-sqrt5", "so3-ab@4",
               "nope")
_MAP_NAMES = ("sphere_drop", "proj_drop", "grass_slice", "flag_to_grass",
              "duality", "nope")
_FAMILIES = ("SO", "O", "U", "Sp", "free")


def _json_nodes(node, path=()):
    yield path, node
    for i, c in enumerate(node["children"]):
        yield from _json_nodes(c, path + (i,))


def _catalog():
    """Every base text and every removed set the 15 certificates name."""
    bases, removed = {"F2"}, {"null": None}
    for desc in ALL_DESCRIPTORS:
        for _, node in _json_nodes(cert_to_json(derive(desc))["root"]):
            bases.add(node["space"]["base"])
            r = node["space"]["removed"]
            removed[json.dumps(r, sort_keys=True)] = r
    for r in ({"kind": "poles"}, {"kind": "axis"}):
        removed[json.dumps(r, sort_keys=True)] = r
    return sorted(bases), [removed[k] for k in sorted(removed)]


def _shifted(value):
    """An int field one up and one down; None gains a value."""
    return (2, 3, 4, 5) if value is None else (value - 1, value + 1, None)


def _arg_values(value):
    if isinstance(value, str):
        return [f for f in _FIELDS + ("X",) if f != value]
    if isinstance(value, list):
        return [value[:j] + [d + s] + value[j + 1:]
                for j, d in enumerate(value) for s in (-1, 1)]
    return [value - 1, value + 1]


def _node_mutations(node, bases, removed):
    """(label, setter) for each single-field mutation of one JSON node."""
    sp, gr, params = node["space"], node["group"], node["params"]
    for b in bases:
        yield f"space.base={b}", lambda n, b=b: n["space"].update(base=b)
    for s in _shifted(sp["star_ambient"]):
        yield (f"space.star_ambient={s}",
               lambda n, s=s: n["space"].update(star_ambient=s))
    for r in removed:
        yield f"space.removed={r}", lambda n, r=r: n["space"].update(removed=r)
    if (sp["removed"] or {}).get("kind") == "exceptional":
        for p in _PAIR_NAMES:
            yield (f"removed.pair={p}",
                   lambda n, p=p: n["space"]["removed"].update(pair=p))
        yield ("removed.projective flipped",
               lambda n: n["space"]["removed"].update(
                   projective=not n["space"]["removed"]["projective"]))
    for f in _FAMILIES:
        yield f"group.family={f}", lambda n, f=f: n["group"].update(family=f)
    for v in (gr["n"] - 1, gr["n"] + 1):
        yield f"group.n={v}", lambda n, v=v: n["group"].update(n=v)
    for s in _shifted(gr["star_ambient"]):
        yield (f"group.star_ambient={s}",
               lambda n, s=s: n["group"].update(star_ambient=s))
    if "map" in params:
        for m in _MAP_NAMES:
            yield f"params.map={m}", lambda n, m=m: n["params"].update(map=m)
        args = params["args"]
        for j, a in enumerate(args):
            for v in _arg_values(a):
                yield (f"params.args[{j}]={v}", lambda n, j=j, v=v:
                       n["params"]["args"].__setitem__(j, v))
        yield "params.args longer", lambda n: n["params"]["args"].append(1)
        yield "params.args shorter", lambda n: n["params"]["args"].pop()
    if "pair" in params:
        for p in _PAIR_NAMES:
            yield f"params.pair={p}", lambda n, p=p: n["params"].update(pair=p)
    if "field" in params:
        for f in _FIELDS + ("X",):
            yield (f"params.field={f}",
                   lambda n, f=f: n["params"].update(field=f))
    if "m" in params:
        for v in (params["m"] - 1, params["m"] + 1):
            yield f"params.m={v}", lambda n, v=v: n["params"].update(m=v)


def single_field_mutations(desc):
    """(label, mutated certificate JSON) for every single-field mutation of
    every node of desc's certificate that changes the JSON."""
    text = json.dumps(cert_to_json(derive(desc)), sort_keys=True)
    blob = json.loads(text)
    bases, removed = _catalog()
    for path, node in _json_nodes(blob["root"]):
        for label, mutate in _node_mutations(node, bases, removed):
            copy = json.loads(text)
            target = copy["root"]
            for i in path:
                target = target["children"][i]
            mutate(target)
            if json.dumps(copy, sort_keys=True) != text:
                yield f"{'.'.join(map(str, (0,) + path))} {label}", copy


def mutation_verdict(blob) -> str:
    """'parse' when cert_from_json refuses the JSON, 'violation' when check
    names a violation, 'accepted' otherwise."""
    try:
        root = cert_from_json(blob)
    except CertificateError:
        return "parse"
    return "violation" if check(root)["violations"] else "accepted"


@pytest.mark.parametrize("desc", ALL_DESCRIPTORS)
def test_every_single_field_mutation_is_refused(desc):
    accepted = [label for label, blob in single_field_mutations(desc)
                if mutation_verdict(blob) == "accepted"]
    assert accepted == []
