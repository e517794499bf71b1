"""Paradoxicality certificates: rule trees, derivation, structural checking.

A certificate is a finite tree of inference steps. Each node claims
"this space is paradoxical under this group" and names the rule that
concludes it from the children:

* ``BaseF2``            -- the rank-2 free group acting on itself
* ``FreeTransport``     -- a free action transports the group paradox to the
                           orbit space minus the fixed-point locus
* ``SubgroupLift``      -- a paradox under a subgroup is one under the group
* ``StarEmbed``         -- identify a space with its zero-padded copy and
                           the group with the block-diagonal copy
* ``Pullback``          -- pull a paradox back through an equivariant map
                           with small fibers (drop/slice/component maps)
* ``DisjointUnion``     -- paradoxical pieces glue over an invariant split
* ``EquidecompTransfer``-- transport along an invertible equivariant map
                           (duality V -> V-perp)
* ``CountableAbsorb``   -- reabsorb a removed thin set using powers of one
                           extra element (a derived equidecomposition
                           transfer: X = (X - A) | A vs X - D = (X - A) | gA)
* ``Intertwine``        -- carry the sphere paradox through the
                           stereographic chart and the induced rotations

Certificates are built exactly (derive), checked structurally (check), and
verified empirically at finite depth (see ``verification``). A node through
a catalog map reads the map's shape, its source, target and acting group,
from the instance ``equimaps.CATALOG`` builds: ``derive`` builds the node
from it and ``check`` compares the node against it. The spaces each
transport pair acts freely on are stated once here (``_free_spaces``).
"""

from __future__ import annotations

from dataclasses import dataclass

from .equimaps import CATALOG, grass_slice
from .errors import (
    BackendMismatchError,
    CertificateError,
    DescriptorError,
    ParadoxError,
)
from .freegroup import (
    default_absorber,
    get_pair,
    mixes_with_pair,
    plane_rotation,
)
from .linalg import Matrix, is_unitary, matrix_from_json, matrix_to_json
from .scalars import ring_of
from .spaces import (
    Flag,
    Grassmann,
    GroupTag,
    Projective,
    RemovedAxis,
    RemovedExceptional,
    RemovedPoles,
    RemovedStar,
    Sphere,
    SpaceExpr,
    FIELDS,
    natural_group,
    parse_descriptor,
)

RULES = ("BaseF2", "FreeTransport", "SubgroupLift", "StarEmbed", "Pullback",
         "DisjointUnion", "EquidecompTransfer", "CountableAbsorb",
         "Intertwine")

# the params each rule reads; a certificate may hold no other key
_PARAMS = {"BaseF2": (), "FreeTransport": ("pair", "seed"),
           "SubgroupLift": (), "StarEmbed": (), "Pullback": ("map", "args"),
           "DisjointUnion": ("m",), "EquidecompTransfer": ("map", "args"),
           "CountableAbsorb": ("absorber",), "Intertwine": ("field",)}

SCHEMA_CERT = "paradox-cert/1"


@dataclass(frozen=True)
class F2Space:
    """The free group as a space it acts on by left translation."""

    @property
    def text(self):
        return "F2"


@dataclass(frozen=True)
class Node:
    rule: str
    space: SpaceExpr
    group: GroupTag
    params: dict
    children: tuple

    def walk(self, path="0"):
        yield path, self
        for i, c in enumerate(self.children):
            yield from c.walk(f"{path}.{i}")


# an absorber is real or over one of the exact rings of the space's field
_REAL_RINGS = ("rational", "qsqrt2", "qsqrt5")
_ABSORBER_RINGS = {"R": _REAL_RINGS,
                   "C": _REAL_RINGS + ("gauss_sqrt5",),
                   "H": _REAL_RINGS + ("quat_rational", "quat_sqrt5")}


def _free_spaces(pair: str) -> tuple:
    """The spaces on which the pair's words act freely, as the space minus
    the removed set: a rotation pair of R^3 fixes the lines D[pair] of its
    words' axes, and diag(L_w, 1) on R^5 fixes the poles alone, since
    L_w v = v forces w = 1 over the division ring H."""
    if pair in ("so3-ab", "so3-su2"):
        return (SpaceExpr(Sphere(2), removed=RemovedExceptional(pair, False)),
                SpaceExpr(Projective("R", 3),
                          removed=RemovedExceptional(pair, True)))
    if pair == "so5-sp1":
        return (SpaceExpr(Sphere(4), removed=RemovedPoles()),)
    return ()


def _base_f2() -> Node:
    return Node("BaseF2", SpaceExpr(F2Space()), GroupTag("free", 0), {}, ())


# the pair the chart of proj(K,2) induces on its sphere from the
# Intertwine's own pair (su2-sqrt5, or sp1-sqrt5@2 = diag(q, 1)), so the
# child subtree's samples are chart images of exact lines
_CHART_PAIRS = {"C": "so3-su2", "H": "so5-sp1"}


def _absorbed(child: Node, absorber) -> Node:
    """The paradox of child's space minus its removed set, lifted to the
    space's natural group and reabsorbed: CountableAbsorb -> SubgroupLift
    -> child."""
    space = SpaceExpr(child.space.base)
    group = natural_group(space.base)
    lift = Node("SubgroupLift", child.space, group, {}, (child,))
    return Node("CountableAbsorb", space, group, {"absorber": absorber},
                (lift,))


def _free_base(base, pair: str, seed: tuple, absorber) -> Node:
    """The free pair's paradox of base minus the set it frees, lifted and
    reabsorbed: CountableAbsorb -> SubgroupLift -> FreeTransport ->
    BaseF2."""
    space = next(s for s in _free_spaces(pair) if s.base == base)
    return _absorbed(Node("FreeTransport", space,
                          GroupTag("free", len(seed), pair=pair),
                          {"pair": pair, "seed": seed}, (_base_f2(),)),
                     absorber)


def _link(rule: str, name: str, args: tuple) -> Node:
    """The rule's node through the catalog map name(args) over the derived
    certificate of the map's target, padded by a StarEmbed when the target
    is a padded copy."""
    build, _ = CATALOG[name]
    m = build(*args)
    child = derive(m.target.base)
    if m.target.star_ambient is not None:
        child = Node("StarEmbed", m.target, m.group, {}, (child,))
    return Node(rule, m.source, m.group, {"map": name, "args": args},
                (child,))


def _derive_sphere(n: int) -> Node:
    if n == 2:
        return _free_base(Sphere(2), "so3-ab", (1, 2, 3), default_absorber())
    return _absorbed(_link("Pullback", "sphere_drop", (n - 1,)),
                     plane_rotation(n + 1, 0, n))


def _derive_chart_sphere(field: str) -> Node:
    """The sphere certificate under the Intertwine of proj(K,2): its pair
    walks the chart image of the Intertwine seed [1 : 2+i], (2, -1, -2)/3
    on S^2 and (2, -1, 0, 0, -2)/3 on S^4."""
    pair = _CHART_PAIRS[field]
    if field == "C":
        return _free_base(Sphere(2), pair, (2, -1, -2), default_absorber())
    return _free_base(Sphere(4), pair, (2, -1, 0, 0, -2),
                      plane_rotation(5, 0, 4))


def _derive_projective(field: str, n: int) -> Node:
    if field == "R" and n == 3:
        return _free_base(Projective("R", 3), "so3-ab", (1, 2, 3),
                          default_absorber())
    if field in ("C", "H") and n == 2:
        space = Projective(field, 2)
        return Node("Intertwine", SpaceExpr(space), natural_group(space),
                    {"field": field},
                    (_derive_chart_sphere(field),))
    return _absorbed(_link("Pullback", "proj_drop", (field, n)),
                     plane_rotation(n, 0, n - 1))


def _derive_grassmann(field: str, n: int, k: int) -> Node:
    if k == 1:
        return _derive_projective(field, n)
    if 2 * k > n:
        return _link("EquidecompTransfer", "duality", (field, n, n - k))
    # the k-planes off the hyperplane K^m by grass_slice, and those inside
    # it, the removed set, by its own padded certificate; G(m)*@n acts
    pb = _link("Pullback", "grass_slice", (field, n, k))
    small = pb.space.removed.sub
    inside = Node("StarEmbed", SpaceExpr(small, star_ambient=n), pb.group,
                  {}, (derive(small),))
    du = Node("DisjointUnion", SpaceExpr(Grassmann(field, n, k)), pb.group,
              {"m": pb.group.n}, (pb, inside))
    return Node("SubgroupLift", du.space, natural_group(du.space.base), {},
                (du,))


def derive(desc) -> Node:
    """Build the certificate tree for a descriptor (or descriptor text)."""
    if isinstance(desc, str):
        desc = parse_descriptor(desc)
    if isinstance(desc, Sphere):
        return _derive_sphere(desc.n)
    if isinstance(desc, Projective):
        return _derive_projective(desc.field, desc.n)
    if isinstance(desc, Grassmann):
        return _derive_grassmann(desc.field, desc.n, desc.k)
    if isinstance(desc, Flag):
        return _link("Pullback", "flag_to_grass",
                     (desc.field, tuple(desc.dims), 0))
    raise DescriptorError(f"cannot derive a certificate for {desc!r}")


# --------------------------------------------------------------------------
# structural checking
# --------------------------------------------------------------------------

def _expect(cond, violations, path, msg):
    if not cond:
        violations.append(f"{path}: {msg}")


def _known_subgroup(sub: GroupTag, sup: GroupTag) -> bool:
    if sub.family == "free":
        pair = _known_pair(sub.pair)
        return (pair is not None and bool(_free_spaces(pair.name))
                and sup.n == pair.dim and sup.family in ("SO", "O")
                and sup.star_ambient is None)
    if sub.star_ambient is not None:
        return (sup.star_ambient is None and sub.family == sup.family
                and sub.star_ambient == sup.n and sub.n <= sup.n)
    return False


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _fits(kind: str, value) -> bool:
    if kind == "field":
        return isinstance(value, str) and value in FIELDS
    if kind == "dims":
        return (isinstance(value, (list, tuple)) and len(value) > 0
                and all(map(_is_int, value)))
    return _is_int(value)


def _named_map(params: dict, ex):
    """The catalog map a node names, when its args fit the map's argument
    kinds and the catalog builds a map from them; otherwise None, and the
    violation is named (an unknown map is the caller's)."""
    name, args = params["map"], params.get("args")
    build, kinds = CATALOG[name]
    ok = (isinstance(args, tuple) and len(args) == len(kinds)
          and all(map(_fits, kinds, args)))
    ex(ok, f"{name} args must be ({', '.join(kinds)}), not {args!r}")
    try:
        return build(*args) if ok else None
    except ParadoxError as e:
        ex(False, f"{name} args name no map: {e}")
        return None


def _known_pair(name):
    """The generator pair a certificate names, or None for a name that is
    no pair."""
    try:
        return get_pair(name) if isinstance(name, str) else None
    except (ParadoxError, ValueError):
        return None


def _expect_shape(node: Node, m, ex):
    """A node through a catalog map concludes about the map's source from
    one child on its target, both under the map's group."""
    name, child = node.params["map"], node.children[0]
    ex(node.space == m.source, f"{name} source is {m.source.text}")
    ex(child.space == m.target, f"{name} target is {m.target.text}")
    ex(node.group == m.group, f"{name} acts by {m.group.text}")
    ex(child.group == node.group, f"{node.rule} acts with the child's group")


def _check_node(node: Node, path: str, violations: list):
    if node.rule not in RULES:
        violations.append(f"{path}: unknown rule {node.rule!r}")
        return
    sp, gr, ch = node.space, node.group, node.children
    ex = lambda c, m: _expect(c, violations, path, m)
    if gr.family != "free":
        ex(gr.pair is None, "only a free group names a pair")

    if node.rule == "BaseF2":
        ex(len(ch) == 0, "BaseF2 takes no children")
        ex(isinstance(sp.base, F2Space) and sp.star_ambient is None
           and sp.removed is None, "BaseF2 concludes about F2 itself")
        ex(gr == GroupTag("free", 0), "BaseF2 group is the abstract F2")

    elif node.rule == "FreeTransport":
        ex(len(ch) == 1 and ch[0].rule == "BaseF2",
           "FreeTransport consumes the BaseF2 fact")
        pairname = node.params.get("pair")
        pair = _known_pair(pairname)
        ex(pair is not None, f"unknown pair {pairname!r}")
        spaces = () if pair is None else _free_spaces(pair.name)
        ex(pair is None or spaces,
           f"no removed set is known to free {pairname}")
        dim = 3 if pair is None else pair.dim
        ex(gr == GroupTag("free", dim, pair=pairname),
           "group must be the free group of the pair")
        ex(not spaces or sp in spaces,
           f"{pairname} acts freely on "
           f"{' or '.join(s.text for s in spaces)}, not on {sp.text}")
        seed = node.params.get("seed")
        ex(isinstance(seed, (list, tuple)) and len(seed) == dim
           and all(map(_is_int, seed)) and any(seed),
           f"seed must be a nonzero {dim}-vector")

    elif node.rule == "SubgroupLift":
        ex(len(ch) == 1, "SubgroupLift takes one child")
        if ch:
            ex(ch[0].space == sp, "lift must not change the space")
            ex(_known_subgroup(ch[0].group, gr),
               f"no known inclusion {ch[0].group.text} <= {gr.text}")

    elif node.rule == "StarEmbed":
        ex(len(ch) == 1, "StarEmbed takes one child")
        if ch:
            c = ch[0]
            ex(c.space.star_ambient is None and c.space.removed is None,
               "StarEmbed embeds a fully concluded space")
            ex(sp.base == c.space.base, "StarEmbed keeps the base space")
            ex(sp.star_ambient is not None
               and sp.star_ambient == gr.star_ambient,
               "starred space and group must share the ambient dimension")
            ex(gr.family == c.group.family and gr.n == c.group.n,
               "starred group must be the block copy of the child group")
            if sp.star_ambient is not None:
                ex(sp.star_ambient >= getattr(sp.base, "ambient_dim", 0),
                   "embedding must not shrink the ambient space")

    elif node.rule in ("Pullback", "EquidecompTransfer"):
        ex(len(ch) == 1, f"{node.rule} takes one child")
        name = node.params.get("map")
        if node.rule == "Pullback":
            known = (isinstance(name, str) and name in CATALOG
                     and name != "duality")
            ex(known, f"unknown pullback map {name!r}")
        else:
            known = name == "duality"
            ex(known, "transfer map must be the duality involution")
        m = _named_map(node.params, ex) if known else None
        first = (m is None or name != "flag_to_grass"
                 or node.params["args"][2] == 0)
        ex(first, "certificates pull back through the first component")
        if m is not None and first and ch:
            _expect_shape(node, m, ex)

    elif node.rule == "DisjointUnion":
        ex(len(ch) == 2, "DisjointUnion takes two children")
        if len(ch) == 2 and isinstance(sp.base, Grassmann):
            # the split of grass_slice: its source, and the padded copy of
            # the k-planes it leaves out, across the hyperplane K^m of its
            # group G(m)*@n
            cut = grass_slice(sp.base.field, sp.base.n, sp.base.k)
            ex(node.params.get("m") == cut.group.n,
               "split hyperplane dimension mismatch")
            a, b = ch
            ex(a.space == cut.source,
               "first branch must cover the complement of the padded copy")
            ex(b.space == SpaceExpr(cut.source.removed.sub,
                                    star_ambient=sp.base.n),
               "second branch must cover the padded copy")
            ex(a.group == gr and b.group == gr,
               "both branches act with the same group")
        else:
            ex(isinstance(sp.base, Grassmann),
               "DisjointUnion splits a Grassmannian")

    elif node.rule == "CountableAbsorb":
        ex(len(ch) == 1, "CountableAbsorb takes one child")
        if ch:
            c = ch[0]
            ex(sp.removed is None, "conclusion must be the full space")
            ex(c.space.base == sp.base
               and c.space.star_ambient == sp.star_ambient
               and c.space.removed is not None,
               "child must be the space minus a removed thin set")
            ex(gr == c.group, "absorption does not change the group")
        g = node.params.get("absorber")
        ex(isinstance(g, Matrix) and g.rows == g.cols,
           "absorber must be a square matrix")
        if isinstance(g, Matrix):
            try:
                # the first entry's ring, once every entry has one: a float
                # is refused wherever it sits
                ring = [ring_of(x) for row in g.data for x in row][0]
            except BackendMismatchError:
                ring = None
            ex(ring is not None and is_unitary(g),
               "absorber must be exactly unitary")
            field = getattr(sp.base, "field", None)
            if ring is not None:
                ex(ring.name in _ABSORBER_RINGS.get(field, ()),
                   f"absorber over {ring.name} does not act on a space over "
                   f"{field}")
            amb = getattr(sp.base, "ambient_dim", None)
            ex(amb == g.rows, "absorber dimension must match the space")
            removed = ch[0].space.removed if ch else None
            if ring is not None and isinstance(removed, RemovedExceptional):
                pair = _known_pair(removed.pair)
                ex(pair is not None, f"unknown pair {removed.pair!r}")
                ex(pair is None or mixes_with_pair(g, pair),
                   f"absorber over {ring.name} does not act on the lines "
                   f"of {removed.text}")

    elif node.rule == "Intertwine":
        ex(len(ch) == 1, "Intertwine takes one child")
        field = node.params.get("field")
        ex(field in ("C", "H"), "intertwining is defined over C and H")
        if ch and field in ("C", "H"):
            sphere_dim = 2 if field == "C" else 4
            ex(sp == SpaceExpr(Projective(field, 2)),
               "conclusion must be the projective line")
            ex(gr == natural_group(Projective(field, 2)),
               "group must be the 2x2 unitary group")
            ex(ch[0].space == SpaceExpr(Sphere(sphere_dim)),
               "child must be the matching sphere certificate")
            ex(ch[0].group == GroupTag("SO", sphere_dim + 1),
               "child group must be the rotation group")
            induced = _CHART_PAIRS[field]
            walked = [n.params.get("pair") for _, n in ch[0].walk()
                      if n.rule == "FreeTransport"]
            ex(walked and all(p == induced for p in walked),
               f"child must walk {induced}, the pair the chart induces")

    for i, c in enumerate(ch):
        _check_node(c, f"{path}.{i}", violations)


def check(root: Node) -> dict:
    """Structural validation; no sampling, exact arithmetic only."""
    violations = []
    _check_node(root, "0", violations)
    return {"ok": not violations, "violations": violations}


# --------------------------------------------------------------------------
# serialization
# --------------------------------------------------------------------------

def _desc_to_text(base) -> str:
    return base.text


def _desc_from_text(text: str):
    if text == "F2":
        return F2Space()
    return parse_descriptor(text)


def _removed_to_json(r):
    if r is None:
        return None
    if isinstance(r, RemovedExceptional):
        return {"kind": "exceptional", "pair": r.pair,
                "projective": r.projective}
    if isinstance(r, RemovedPoles):
        return {"kind": "poles"}
    if isinstance(r, RemovedAxis):
        return {"kind": "axis"}
    if isinstance(r, RemovedStar):
        return {"kind": "star", "sub": r.sub.text}
    raise CertificateError(f"cannot serialize removed set {r!r}")


def _closed(obj, keys, what):
    """Raise CertificateError when the JSON object obj has a key outside
    keys; anything that is not an object is left to its reader."""
    if isinstance(obj, dict):
        unknown = sorted(set(obj) - set(keys))
        if unknown:
            raise CertificateError(f"unknown key {unknown[0]!r} in {what}")


_REMOVED_KEYS = {"exceptional": ("kind", "pair", "projective"),
                 "poles": ("kind",), "axis": ("kind",),
                 "star": ("kind", "sub")}


def _removed_from_json(obj):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise CertificateError(
            f"removed set must be an object or null, not {type(obj).__name__}")
    kind = obj.get("kind")
    if kind not in _REMOVED_KEYS:
        raise CertificateError(f"unknown removed-set kind {kind!r}")
    _closed(obj, _REMOVED_KEYS[kind], "removed set")
    if kind == "exceptional":
        projective = obj["projective"]
        if not isinstance(projective, bool):
            raise CertificateError(
                f"removed set flag 'projective' must be a boolean, not "
                f"{type(projective).__name__}")
        return RemovedExceptional(obj["pair"], projective)
    if kind == "poles":
        return RemovedPoles()
    if kind == "axis":
        return RemovedAxis()
    return RemovedStar(parse_descriptor(obj["sub"]))


def _space_to_json(sp: SpaceExpr):
    return {"base": _desc_to_text(sp.base),
            "star_ambient": sp.star_ambient,
            "removed": _removed_to_json(sp.removed)}


def _int_from_json(obj, key, optional=False):
    """An int field (3.0 and true are not 3 and 1); None if optional."""
    value = obj.get(key) if optional else obj[key]
    if (value is None and optional) or _is_int(value):
        return value
    raise CertificateError(
        f"field {key!r} must be an integer, not {type(value).__name__}")


def _space_from_json(obj) -> SpaceExpr:
    _closed(obj, ("base", "star_ambient", "removed"), "space")
    return SpaceExpr(_desc_from_text(obj["base"]),
                     _int_from_json(obj, "star_ambient", optional=True),
                     _removed_from_json(obj.get("removed")))


def _group_to_json(g: GroupTag):
    return {"family": g.family, "n": g.n,
            "star_ambient": g.star_ambient, "pair": g.pair}


def _group_from_json(obj) -> GroupTag:
    _closed(obj, ("family", "n", "star_ambient", "pair"), "group")
    return GroupTag(obj["family"], _int_from_json(obj, "n"),
                    _int_from_json(obj, "star_ambient", optional=True),
                    obj.get("pair"))


def _params_to_json(params: dict):
    out = {}
    for k, v in params.items():
        if isinstance(v, Matrix):
            out[k] = {"__matrix__": matrix_to_json(v)}
        elif isinstance(v, tuple):
            out[k] = list(v)
        else:
            out[k] = v
    return out


def _params_from_json(obj, rule: str) -> dict:
    if not isinstance(obj, dict):
        raise CertificateError(
            f"node params must be an object, not {type(obj).__name__}")
    _closed(obj, _PARAMS[rule], f"{rule} params")
    out = {}
    for k, v in obj.items():
        if isinstance(v, dict) and "__matrix__" in v:
            _closed(v, ("__matrix__",), f"param {k!r}")
            _closed(v["__matrix__"], ("ring", "entries"), f"param {k!r}")
            try:
                out[k] = matrix_from_json(v["__matrix__"])
            except (KeyError, TypeError, ValueError, ZeroDivisionError,
                    ParadoxError) as e:
                raise CertificateError(
                    f"param {k!r} is not a matrix literal: {e}")
        elif isinstance(v, list):
            out[k] = tuple(v)
        else:
            out[k] = v
    return out


def _node_to_json(n: Node):
    return {"rule": n.rule,
            "space": _space_to_json(n.space),
            "group": _group_to_json(n.group),
            "params": _params_to_json(n.params),
            "children": [_node_to_json(c) for c in n.children]}


def _node_from_json(obj) -> Node:
    try:
        rule = obj["rule"]
        if rule not in RULES:
            raise CertificateError(f"unknown rule {rule!r}")
        _closed(obj, ("rule", "space", "group", "params", "children"),
                f"a {rule} node")
        children = obj.get("children", [])
        if not isinstance(children, list):
            raise CertificateError(
                f"node children must be an array, not "
                f"{type(children).__name__}")
        return Node(rule,
                    _space_from_json(obj["space"]),
                    _group_from_json(obj["group"]),
                    _params_from_json(obj.get("params", {}), rule),
                    tuple(_node_from_json(c) for c in children))
    except (KeyError, TypeError) as e:
        raise CertificateError(f"malformed certificate node: {e}")


def cert_to_json(root: Node) -> dict:
    return {"schema": SCHEMA_CERT,
            "space": root.space.text,
            "group": root.group.text,
            "root": _node_to_json(root)}


def cert_from_json(obj) -> Node:
    if not isinstance(obj, dict) or obj.get("schema") != SCHEMA_CERT:
        raise CertificateError(
            f"expected schema {SCHEMA_CERT!r}, got {obj.get('schema')!r}"
            if isinstance(obj, dict) else "certificate must be a JSON object")
    if "root" not in obj:
        raise CertificateError("certificate has no root node")
    _closed(obj, ("schema", "space", "group", "root"), "the certificate")
    root = _node_from_json(obj["root"])
    for field, text in (("space", root.space.text),
                        ("group", root.group.text)):
        if obj.get(field) != text:
            raise CertificateError(
                f"certificate {field} {obj.get(field)!r} does not match "
                f"its root node's {text!r}")
    return root
