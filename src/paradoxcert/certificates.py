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
verified empirically at finite depth (see ``verification``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import CertificateError, DescriptorError, ParadoxError
from .freegroup import default_absorber, get_pair, plane_rotation
from .linalg import Matrix, is_unitary, matrix_from_json, matrix_to_json
from .spaces import (
    Flag,
    Grassmann,
    GroupTag,
    Projective,
    Sphere,
    natural_group,
    n_min,
    parse_descriptor,
)

RULES = ("BaseF2", "FreeTransport", "SubgroupLift", "StarEmbed", "Pullback",
         "DisjointUnion", "EquidecompTransfer", "CountableAbsorb",
         "Intertwine")

SCHEMA_CERT = "paradox-cert/1"


@dataclass(frozen=True)
class F2Space:
    """The free group as a space it acts on by left translation."""

    @property
    def text(self):
        return "F2"


@dataclass(frozen=True)
class RemovedExceptional:
    """The fixed locus D of a generator pair (or its line image)."""
    pair: str
    projective: bool

    @property
    def text(self):
        return f"pi(D[{self.pair}])" if self.projective else f"D[{self.pair}]"


@dataclass(frozen=True)
class RemovedPoles:
    """The two points {+-e_last} of a sphere."""

    @property
    def text(self):
        return "poles"


@dataclass(frozen=True)
class RemovedAxis:
    """The coordinate line span{e_last} of a projective space."""

    @property
    def text(self):
        return "axis"


@dataclass(frozen=True)
class RemovedStar:
    """The zero-padded copy of a smaller space sitting inside the base."""
    sub: object  # descriptor

    @property
    def text(self):
        return f"star({self.sub.text})"


@dataclass(frozen=True)
class SpaceExpr:
    base: object                 # descriptor or F2Space
    star_ambient: int | None = None
    removed: object | None = None

    @property
    def text(self):
        t = self.base.text
        if self.star_ambient is not None:
            t = f"{t}*@{self.star_ambient}"
        if self.removed is not None:
            t = f"{t} minus {self.removed.text}"
        return t


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


Derivation = Node  # a certificate is its root node


def _grass_desc(field, n, k):
    return Projective(field, n) if k == 1 else Grassmann(field, n, k)


def _base_f2() -> Node:
    return Node("BaseF2", SpaceExpr(F2Space()), GroupTag("free", 0), {}, ())


def _derive_sphere(n: int) -> Node:
    if n == 2:
        ft_space = SpaceExpr(Sphere(2),
                             removed=RemovedExceptional("so3-ab", False))
        free_tag = GroupTag("free", 3, pair="so3-ab")
        ft = Node("FreeTransport", ft_space, free_tag,
                  {"pair": "so3-ab", "seed": (1, 2, 3)}, (_base_f2(),))
        sl = Node("SubgroupLift", ft_space, GroupTag("SO", 3), {}, (ft,))
        return Node("CountableAbsorb", SpaceExpr(Sphere(2)),
                    GroupTag("SO", 3),
                    {"absorber": default_absorber()}, (sl,))
    child = _derive_sphere(n - 1)
    ambient = n + 1
    star_tag = GroupTag("SO", n, star_ambient=ambient)
    star = Node("StarEmbed", SpaceExpr(Sphere(n - 1), star_ambient=ambient),
                star_tag, {}, (child,))
    pb_space = SpaceExpr(Sphere(n), removed=RemovedPoles())
    pb = Node("Pullback", pb_space, star_tag,
              {"map": "sphere_drop", "args": (n - 1,)}, (star,))
    sl = Node("SubgroupLift", pb_space, GroupTag("SO", ambient), {}, (pb,))
    return Node("CountableAbsorb", SpaceExpr(Sphere(n)),
                GroupTag("SO", ambient),
                {"absorber": plane_rotation(ambient, 0, ambient - 1)}, (sl,))


def _derive_projective(field: str, n: int) -> Node:
    if field == "R" and n == 3:
        ft_space = SpaceExpr(Projective("R", 3),
                             removed=RemovedExceptional("so3-ab", True))
        free_tag = GroupTag("free", 3, pair="so3-ab")
        ft = Node("FreeTransport", ft_space, free_tag,
                  {"pair": "so3-ab", "seed": (1, 2, 3)}, (_base_f2(),))
        sl = Node("SubgroupLift", ft_space, GroupTag("O", 3), {}, (ft,))
        return Node("CountableAbsorb", SpaceExpr(Projective("R", 3)),
                    GroupTag("O", 3),
                    {"absorber": default_absorber()}, (sl,))
    if field in ("C", "H") and n == 2:
        sphere_dim = 2 if field == "C" else 4
        child = _derive_sphere(sphere_dim)
        fam = "U" if field == "C" else "Sp"
        return Node("Intertwine", SpaceExpr(Projective(field, 2)),
                    GroupTag(fam, 2), {"field": field}, (child,))
    child = _derive_projective(field, n - 1)
    star_tag = GroupTag(child.group.family, n - 1, star_ambient=n)
    star = Node("StarEmbed",
                SpaceExpr(Projective(field, n - 1), star_ambient=n),
                star_tag, {}, (child,))
    pb_space = SpaceExpr(Projective(field, n), removed=RemovedAxis())
    pb = Node("Pullback", pb_space, star_tag,
              {"map": "proj_drop", "args": (field, n)}, (star,))
    big = natural_group(Projective(field, n))
    sl = Node("SubgroupLift", pb_space, big, {}, (pb,))
    return Node("CountableAbsorb", SpaceExpr(Projective(field, n)), big,
                {"absorber": plane_rotation(n, 0, n - 1)}, (sl,))


def _derive_grassmann(field: str, n: int, k: int) -> Node:
    if k == 1:
        return _derive_projective(field, n)
    if 2 * k > n:
        child = derive(_grass_desc(field, n, n - k))
        tag = natural_group(Grassmann(field, n, k))
        return Node("EquidecompTransfer", SpaceExpr(Grassmann(field, n, k)),
                    tag, {"map": "duality", "args": (field, n, n - k)},
                    (child,))
    m = n + 1 - k
    proj_child = _derive_projective(field, m)
    star_tag = GroupTag(proj_child.group.family, m, star_ambient=n)
    star_a = Node("StarEmbed",
                  SpaceExpr(Projective(field, m), star_ambient=n),
                  star_tag, {}, (proj_child,))
    pb_space = SpaceExpr(Grassmann(field, n, k),
                         removed=RemovedStar(_grass_desc(field, m, k)))
    pb = Node("Pullback", pb_space, star_tag,
              {"map": "grass_slice", "args": (field, n, k)}, (star_a,))
    grass_child = derive(_grass_desc(field, m, k))
    star_b = Node("StarEmbed",
                  SpaceExpr(_grass_desc(field, m, k), star_ambient=n),
                  GroupTag(grass_child.group.family, m, star_ambient=n),
                  {}, (grass_child,))
    du = Node("DisjointUnion", SpaceExpr(Grassmann(field, n, k)),
              star_tag, {"m": m}, (pb, star_b))
    big = natural_group(Grassmann(field, n, k))
    return Node("SubgroupLift", SpaceExpr(Grassmann(field, n, k)), big,
                {}, (du,))


def _derive_flag(field: str, dims: tuple) -> Node:
    n = dims[-1]
    d1 = dims[0]
    child = derive(_grass_desc(field, n, d1))
    tag = natural_group(Flag(field, dims))
    return Node("Pullback", SpaceExpr(Flag(field, dims)), tag,
                {"map": "flag_to_grass", "args": (field, tuple(dims), 0)},
                (child,))


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
        return _derive_flag(desc.field, desc.dims)
    raise DescriptorError(f"cannot derive a certificate for {desc!r}")


# --------------------------------------------------------------------------
# structural checking
# --------------------------------------------------------------------------

def _expect(cond, violations, path, msg):
    if not cond:
        violations.append(f"{path}: {msg}")


def _known_subgroup(sub: GroupTag, sup: GroupTag) -> bool:
    if sub.family == "free":
        return (sub.pair == "so3-ab" and sup.n == 3
                and sup.family in ("SO", "O") and sup.star_ambient is None)
    if sub.star_ambient is not None:
        return (sup.star_ambient is None and sub.family == sup.family
                and sub.star_ambient == sup.n and sub.n <= sup.n)
    return False


def _check_node(node: Node, path: str, violations: list):
    if node.rule not in RULES:
        violations.append(f"{path}: unknown rule {node.rule!r}")
        return
    sp, gr, ch = node.space, node.group, node.children
    ex = lambda c, m: _expect(c, violations, path, m)

    if node.rule == "BaseF2":
        ex(len(ch) == 0, "BaseF2 takes no children")
        ex(isinstance(sp.base, F2Space), "BaseF2 concludes about F2 itself")
        ex(gr.family == "free" and gr.pair is None,
           "BaseF2 group is the abstract F2")

    elif node.rule == "FreeTransport":
        ex(len(ch) == 1 and ch[0].rule == "BaseF2",
           "FreeTransport consumes the BaseF2 fact")
        pairname = node.params.get("pair")
        try:
            pair = get_pair(pairname)
            ex(pair.dim == 3, "transport pair must act on R^3")
        except Exception:
            ex(False, f"unknown pair {pairname!r}")
        ex(gr.family == "free" and gr.pair == pairname,
           "group must be the free group of the pair")
        rem = sp.removed
        ex(isinstance(rem, RemovedExceptional) and rem.pair == pairname,
           "removed set must be the pair's fixed locus")
        if isinstance(rem, RemovedExceptional):
            if rem.projective:
                ex(sp.base == Projective("R", 3),
                   "projective transport lives on proj(R,3)")
            else:
                ex(sp.base == Sphere(2), "spherical transport lives on S^2")
        seed = node.params.get("seed")
        ex(isinstance(seed, (list, tuple)) and len(seed) == 3
           and all(isinstance(x, int) and not isinstance(x, bool)
                   for x in seed)
           and any(seed), "seed must be a nonzero 3-vector")

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

    elif node.rule == "Pullback":
        ex(len(ch) == 1, "Pullback takes one child")
        name = node.params.get("map")
        args = tuple(node.params.get("args", ()))
        if not ch:
            return
        c = ch[0]
        ex(gr == c.group, "Pullback acts with the child's group")
        if name == "sphere_drop":
            (k,) = args
            ex(sp.base == Sphere(k + 1) and sp.star_ambient is None
               and isinstance(sp.removed, RemovedPoles),
               "sphere_drop source is the sphere minus its poles")
            ex(c.space == SpaceExpr(Sphere(k), star_ambient=k + 2),
               "sphere_drop target is the equator copy")
            ex(gr.family == "SO" and gr.n == k + 1
               and gr.star_ambient == k + 2,
               "sphere_drop acts by the starred rotation block")
        elif name == "proj_drop":
            field, n = args
            ex(sp.base == Projective(field, n) and sp.star_ambient is None
               and isinstance(sp.removed, RemovedAxis),
               "proj_drop source is the projective space minus the axis")
            ex(c.space == SpaceExpr(Projective(field, n - 1),
                                    star_ambient=n),
               "proj_drop target is the padded smaller projective space")
            ex(gr.n == n - 1 and gr.star_ambient == n,
               "proj_drop acts by the starred block")
        elif name == "grass_slice":
            field, n0, k = args
            m = n0 + 1 - k
            ex(sp.base == Grassmann(field, n0, k)
               and isinstance(sp.removed, RemovedStar)
               and sp.removed.sub == _grass_desc(field, m, k),
               "grass_slice source excludes the padded small Grassmannian")
            ex(c.space == SpaceExpr(Projective(field, m), star_ambient=n0),
               "grass_slice target is the padded projective space")
            ex(gr.n == m and gr.star_ambient == n0,
               "grass_slice acts by the starred block")
        elif name == "flag_to_grass":
            field, dims, i = args
            dims = tuple(dims)
            ex(sp.base == Flag(field, dims) and sp.removed is None,
               "flag_to_grass source is the full flag space")
            ex(i == 0, "certificates pull back through the first component")
            ex(c.space == SpaceExpr(_grass_desc(field, dims[-1], dims[0])),
               "flag_to_grass target is the first-component Grassmannian")
        else:
            ex(False, f"unknown pullback map {name!r}")

    elif node.rule == "DisjointUnion":
        ex(len(ch) == 2, "DisjointUnion takes two children")
        m = node.params.get("m")
        if len(ch) == 2 and isinstance(sp.base, Grassmann):
            field, n, k = sp.base.field, sp.base.n, sp.base.k
            ex(m == n + 1 - k, "split hyperplane dimension mismatch")
            a, b = ch
            ex(a.space == SpaceExpr(Grassmann(field, n, k),
                                    removed=RemovedStar(
                                        _grass_desc(field, m, k))),
               "first branch must cover the complement of the padded copy")
            ex(b.space == SpaceExpr(_grass_desc(field, m, k),
                                    star_ambient=n),
               "second branch must cover the padded copy")
            ex(a.group == gr and b.group == gr,
               "both branches act with the same group")
        else:
            ex(isinstance(sp.base, Grassmann),
               "DisjointUnion splits a Grassmannian")

    elif node.rule == "EquidecompTransfer":
        ex(len(ch) == 1, "EquidecompTransfer takes one child")
        name = node.params.get("map")
        ex(name == "duality", "transfer map must be the duality involution")
        if ch and name == "duality":
            field, n, kc = node.params.get("args")
            c = ch[0]
            ex(c.space == SpaceExpr(_grass_desc(field, n, kc)),
               "duality child space mismatch")
            ex(sp == SpaceExpr(_grass_desc(field, n, n - kc)),
               "duality node space mismatch")
            ex(gr == c.group, "duality preserves the acting group")

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
            ex(g.scalar_ring().exact and is_unitary(g),
               "absorber must be exactly unitary")
            amb = getattr(sp.base, "ambient_dim", None)
            ex(amb == g.rows, "absorber dimension must match the space")

    elif node.rule == "Intertwine":
        ex(len(ch) == 1, "Intertwine takes one child")
        field = node.params.get("field")
        ex(field in ("C", "H"), "intertwining is defined over C and H")
        if ch and field in ("C", "H"):
            sphere_dim = 2 if field == "C" else 4
            fam = "U" if field == "C" else "Sp"
            ex(sp == SpaceExpr(Projective(field, 2)),
               "conclusion must be the projective line")
            ex(gr == GroupTag(fam, 2), "group must be the 2x2 unitary group")
            ex(ch[0].space == SpaceExpr(Sphere(sphere_dim)),
               "child must be the matching sphere certificate")
            ex(ch[0].group == GroupTag("SO", sphere_dim + 1),
               "child group must be the rotation group")

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


def _removed_from_json(obj):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise CertificateError(
            f"removed set must be an object or null, not {type(obj).__name__}")
    kind = obj.get("kind")
    if kind == "exceptional":
        return RemovedExceptional(obj["pair"], bool(obj["projective"]))
    if kind == "poles":
        return RemovedPoles()
    if kind == "axis":
        return RemovedAxis()
    if kind == "star":
        return RemovedStar(parse_descriptor(obj["sub"]))
    raise CertificateError(f"unknown removed-set kind {kind!r}")


def _space_to_json(sp: SpaceExpr):
    return {"base": _desc_to_text(sp.base),
            "star_ambient": sp.star_ambient,
            "removed": _removed_to_json(sp.removed)}


def _space_from_json(obj) -> SpaceExpr:
    return SpaceExpr(_desc_from_text(obj["base"]),
                     obj.get("star_ambient"),
                     _removed_from_json(obj.get("removed")))


def _group_to_json(g: GroupTag):
    return {"family": g.family, "n": g.n,
            "star_ambient": g.star_ambient, "pair": g.pair}


def _group_from_json(obj) -> GroupTag:
    return GroupTag(obj["family"], obj["n"],
                    obj.get("star_ambient"), obj.get("pair"))


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


def _params_from_json(obj) -> dict:
    if not isinstance(obj, dict):
        raise CertificateError(
            f"node params must be an object, not {type(obj).__name__}")
    out = {}
    for k, v in obj.items():
        if isinstance(v, dict) and "__matrix__" in v:
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
        return Node(rule,
                    _space_from_json(obj["space"]),
                    _group_from_json(obj["group"]),
                    _params_from_json(obj.get("params", {})),
                    tuple(_node_from_json(c)
                          for c in obj.get("children", ())))
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
    root = _node_from_json(obj["root"])
    for field, text in (("space", root.space.text),
                        ("group", root.group.text)):
        if obj.get(field) != text:
            raise CertificateError(
                f"certificate {field} {obj.get(field)!r} does not match "
                f"its root node's {text!r}")
    return root
