"""Empirical verification of paradoxicality certificates.

The certificate tree (see ``certificates``) states abstract facts; this
module checks their finitely checkable consequences at a chosen depth:

* free-group facts -> exhaustive word enumeration to depth L;
* free actions -> explicit orbit fragments from seed points, with an exact
  injectivity check (a key collision recovers the fixing word);
* the two paradoxical reassemblies -> exact cover-with-multiplicity-one
  bookkeeping on the radius-(L-1) fragment;
* absorber claims -> pairwise disjointness of the absorber orbit of the
  removed set up to a bound M, a scan that the absorber is no pair word
  of length <= min(L, 6) (the integer walk of ``freegroup``, which also
  checks freeness), plus a bounded equidecomposition witness; the index
  {line key: least power} that the disjointness test's integer walk
  builds also classifies absorbed points, and its float copy, decoded
  from the keys, is made only when a float point is classified;
* equivariant-map claims -> catalog selftests and section/replay checks
  on every transported sample;
* every transported sample carries a piece label (its provenance); at the
  root the label is recomputed by an independent top-down classification
  and the two must agree.

Points sampled along the way are "provenanced": each one was constructed
by replaying group words and map sections, so its piece membership is a
theorem about the construction, not a floating-point guess.  Every run is
exact; the only float points are the samples an ``Intertwine`` chart lifts,
and those are matched within a tolerance.  numpy serves that float lane
alone and is imported where it first builds an array, so a run without
float points never loads it.

An exact point is keyed by its canonical vector: a ray by the
``(sign, direction)`` of ``ray_canonical`` (``SpherePoint.key()``), a line
by the leading-1 vector ``ProjectivePoint`` stores, read without any row
reduction.  Equal exact scalars are ``==`` and hash alike in every class,
so a key built over one ring finds a key built over another.  The
absorber index is looked up by the integer key of that leading-1 vector
(``freegroup.LineKeys.key``), which is None for a point outside the
field of the absorber orbit.

Facts that do not depend on a node's place in the tree (orbit fragments
and their float indexes, absorber contexts, the pair-word, freeness and
translate scans, map selftests and maps) are computed once per verify and
keyed by the content they are computed from, so a repeated subtree reuses
them; each node looks its own fact up by that key once and keeps it by
path.  Whatever depends on a node's samples (sample draws, random
unitaries, section and involution replays, witness checks) stays keyed by
node path, so sharing changes no report byte.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace

from .certificates import (
    Node,
    RemovedAxis,
    RemovedExceptional,
    RemovedPoles,
    check,
)
from .equimaps import (
    duality,
    flag_to_grass,
    grass_slice,
    induced_rotation_map,
    proj_drop,
    selftest,
    sphere_drop,
    stereographic,
    stereographic_apply,
    stereographic_lift,
)
from .errors import (
    BackendMismatchError,
    CertificateError,
    DomainError,
    GapCaseError,
    SeedFixedError,
    VerificationError,
)
from .freegroup import (
    absorber_check,
    check_freeness,
    exceptional_set,
    get_pair,
    pair_word_scan,
)
from .linalg import (
    Matrix,
    block_embed_matrix,
    is_unitary,
    line_projector,
    mat_vec,
    normalize_leading,
    ray_canonical,
)
from .sampling import random_unitary, rng_for
from .scalars import (
    RING_GAUSS_SQRT5,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    GaussSqrt5,
    Quaternion,
    QSqrt5,
    Fraction,
    abs_float,
    ring_of,
    to_float_scalar,
)
from .spaces import (
    Projective,
    ProjectivePoint,
    Sphere,
    SpherePoint,
    Subspace,
    act,
    block_embed_point,
    equals,
    exact_ring_for_field,
    parse_descriptor,
)
from .words import (
    A,
    A_INV,
    B,
    B_INV,
    ball_size,
    check_translate_identity,
    classify_prefix,
    inverse_word,
    reduce as reduce_word,
    word_text,
)

SCHEMA_REPORT = "paradox-report/1"

_NEAREST_TOL = 1e-6   # float-lane point matching against exact-born sets
_PRED_TOL = 1e-7      # float-lane containment predicates
_ABSORBER_DEPTH = 4   # word length of the exceptional set an absorber moves


@dataclass
class RunConfig:
    """Verification-run knobs; all defaults match the CLI defaults."""
    depth: int = 6
    samples: int = 500
    seed: int = 42
    tol: float = 1e-9
    absorber_bound: int = 50


@dataclass
class Sample:
    """A provenanced point: where it lives, which piece produced it."""
    point: object
    label: str | None


# --------------------------------------------------------------------------
# point keys (exact canonical vectors) and float representations
# --------------------------------------------------------------------------

def _flatten_scalar(x):
    if isinstance(x, Quaternion):
        return (float(x.w), float(x.x), float(x.y), float(x.z))
    if isinstance(x, complex):
        return (x.real, x.imag)
    return (float(x),)


def point_key_vec(vec, kind: str):
    """Canonical vector of the ray/line spanned by an exact vector: the
    ``(sign, direction)`` pair of a ray, the leading-1 vector of a line."""
    if kind == "ray":
        return ray_canonical(vec)
    return normalize_leading(vec)


def _vec_line_rep(vec):
    """Flattened float projector of the line spanned by a vector.

    The projector is basis- and phase-independent, which makes it the
    right embedding for nearest-point matching of lines over any K.
    """
    import numpy as np
    fv = [x if isinstance(x, (float, complex, Quaternion))
          else to_float_scalar(x) for x in vec]
    return np.array([c for row in line_projector(fv).data for e in row
                     for c in _flatten_scalar(e)], dtype=float)


def _point_line_rep(point):
    """Flattened float projector of the line through a ray or a line."""
    import numpy as np
    if isinstance(point, SpherePoint):
        u = point.to_float_vector()
        return np.array([a * b for a in u for b in u], dtype=float)
    return _vec_line_rep(point.vector)


def _point_ray_rep(point: SpherePoint):
    import numpy as np
    return np.array(point.to_float_vector(), dtype=float)


def _float_line_key(point):
    """Key of the line through a float point: its projector to 6 places."""
    import numpy as np
    return tuple(np.round(_point_line_rep(point), 6))


def _point_line_key(point):
    """Leading-1 vector of the line through an exact point."""
    if isinstance(point, SpherePoint):
        return point.direction
    if not isinstance(point, ProjectivePoint):
        raise VerificationError("line keys are defined for rays and lines")
    return point.vector


# --------------------------------------------------------------------------
# orbit fragments
# --------------------------------------------------------------------------

class Fragment:
    """The ball-of-radius-L orbit fragment of a seed under a free pair.

    ``words`` is in breadth-first order (identity first); ``keys`` maps
    each word to the canonical vector of its point (``point_key_vec``);
    ``index`` inverts it.
    Injectivity of ``index`` is enforced during construction: a key
    collision between words u and w means reduce(u^-1 w) fixes the seed,
    and that word is reported.
    """

    __slots__ = ("kind", "depth", "words", "vectors", "keys", "index",
                 "mats")

    def __init__(self, kind, depth, words, vectors, keys, index, mats):
        self.kind = kind
        self.depth = depth
        self.words = words
        self.vectors = vectors
        self.keys = keys
        self.index = index
        self.mats = mats

    def point_for(self, w):
        if self.kind == "ray":
            return SpherePoint(*self.keys[w], True)
        return ProjectivePoint(self.keys[w])


def orbit_fragment(space, seed, pair, depth: int) -> Fragment:
    """All points {w . seed : |w| <= depth} with provenance words.

    Raises SeedFixedError (naming the fixing word) if two words of length
    <= depth land on the same point -- i.e. the seed is fixed by a reduced
    word of length <= 2*depth -- and BackendMismatchError if a seed
    coordinate is not exact, since only exact points have keys.
    """
    if isinstance(space, str):
        space = parse_descriptor(space)
    if isinstance(space, Sphere):
        kind = "ray"
    elif isinstance(space, Projective):
        kind = "line"
    else:
        raise DomainError(
            f"orbit fragments are built on spheres and projective spaces, "
            f"not {space.text}")
    if isinstance(pair, str):
        pair = get_pair(pair)
    mats = [pair.letter_matrix(x) for x in range(4)]
    seed_vec = tuple(Fraction(x) if isinstance(x, int) else x for x in seed)
    for x in seed_vec:
        if not ring_of(x).exact:
            raise BackendMismatchError(f"seed coordinate {x!r} is not exact")
    if len(seed_vec) != mats[0].rows:
        raise DomainError(
            f"seed has {len(seed_vec)} coordinates, pair acts on "
            f"{mats[0].rows}")

    words = [()]
    vectors = {(): seed_vec}
    keys = {(): point_key_vec(seed_vec, kind)}
    index = {keys[()]: ()}
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            v = vectors[w]
            for x in range(4):
                if w and x == (w[0] ^ 1):
                    continue
                w2 = (x,) + w
                v2 = mat_vec(mats[x], v)
                k2 = point_key_vec(v2, kind)
                if k2 in index:
                    fix = reduce_word(inverse_word(index[k2]) + w2)
                    raise SeedFixedError(word_text(fix))
                words.append(w2)
                vectors[w2] = v2
                keys[w2] = k2
                index[k2] = w2
                nxt.append(w2)
        frontier = nxt
    return Fragment(kind, depth, words, vectors, keys, index, mats)


def piece_sizes(frag: Fragment) -> dict:
    return dict(Counter(classify_prefix(w) for w in frag.words))


def reassembly_check(frag: Fragment, translate_a: int = A,
                     translate_b: int = B) -> dict:
    """Bounded form of X = W(a).seed | a.(W(a^-1).seed), and likewise b.

    Each point of the radius-(L-1) fragment must be covered exactly once
    by the piece W(a).seed (restricted to radius L-1) together with the
    a-translate of the piece W(a^-1).seed (radius L, whose translate
    cancels one letter).  The translate letters can be overridden to build
    negative controls: a wrong translate breaks the cover at radius 2.
    """
    d = frag.depth
    target = {frag.keys[u] for u in frag.words if len(u) <= d - 1}
    sides = {}
    for head, inv, translate, name in ((A, A_INV, translate_a, "a"),
                                       (B, B_INV, translate_b, "b")):
        counts = Counter()
        for w in frag.words:
            if w and w[0] == head and len(w) <= d - 1:
                counts[frag.keys[w]] += 1
        for v in frag.words:
            if v and v[0] == inv:
                if translate == head:
                    counts[frag.keys[v[1:]]] += 1
                else:
                    v2 = mat_vec(frag.mats[translate], frag.vectors[v])
                    counts[point_key_vec(v2, frag.kind)] += 1
        ok = (set(counts) == target
              and all(c == 1 for c in counts.values()))
        sides[name] = {"targets": len(target),
                       "covered": len(counts),
                       "multiplicity_one": all(c == 1
                                               for c in counts.values()),
                       "ok": ok}
    return {"depth": d, "sides": sides,
            "ok": all(s["ok"] for s in sides.values())}


# --------------------------------------------------------------------------
# equidecomposition witnesses
# --------------------------------------------------------------------------

@dataclass
class WitnessPiece:
    name: str
    predicate: object            # point -> bool, membership in the source piece
    element: Matrix | None       # piece translate (None = identity)


@dataclass
class EquidecompWitness:
    """A finite family (B_i, g_i); the claim is X = |_| B_i, Y = |_| g_i B_i."""
    pieces: tuple
    target_predicate: object = None   # image point -> bool, membership in Y
    image_key: object = None          # image point -> hashable (overlap check)


def equidecomp_verify(witness: EquidecompWitness, points) -> dict:
    """Check a witness on sample points: unique piece, image in target,
    no image collisions across the sample."""
    failures = []
    piece_counts = Counter()
    seen_images = {}
    checked = 0
    for x in points:
        checked += 1
        members = [p for p in witness.pieces if p.predicate(x)]
        if len(members) != 1:
            failures.append(
                f"point lies in {len(members)} pieces "
                f"({[p.name for p in members]}): {x!r}")
            continue
        piece = members[0]
        piece_counts[piece.name] += 1
        y = x if piece.element is None else act(piece.element, x)
        if witness.target_predicate is not None \
                and not witness.target_predicate(y):
            failures.append(
                f"image of {piece.name} sample left the target: {x!r}")
        if witness.image_key is not None:
            k = witness.image_key(y)
            if k in seen_images and seen_images[k] != piece.name:
                failures.append(
                    f"image collision between pieces {seen_images[k]} "
                    f"and {piece.name}")
            seen_images[k] = piece.name
    return {"points": checked, "pieces": dict(piece_counts),
            "failures": failures, "ok": not failures}


# --------------------------------------------------------------------------
# maps named in certificates
# --------------------------------------------------------------------------

def map_from_params(params: dict):
    name = params.get("map")
    args = tuple(params.get("args", ()))
    if name == "sphere_drop":
        return sphere_drop(int(args[0]))
    if name == "proj_drop":
        return proj_drop(args[0], int(args[1]))
    if name == "grass_slice":
        return grass_slice(args[0], int(args[1]), int(args[2]))
    if name == "flag_to_grass":
        return flag_to_grass(args[0], tuple(int(d) for d in args[1]),
                             int(args[2]))
    if name == "duality":
        return duality(args[0], int(args[1]), int(args[2]))
    raise CertificateError(f"certificate names unknown map {name!r}")


_INTERTWINE_PAIR = {"C": "su2-sqrt5", "H": "sp1-sqrt5@2"}


def _intertwine_seed(field: str):
    if field == "C":
        return (GaussSqrt5(1, 0, 0, 0, 1), GaussSqrt5(2, 0, 1, 0, 1))
    zero = QSqrt5(Fraction(0), Fraction(0))
    one = QSqrt5(Fraction(1), Fraction(0))
    two = QSqrt5(Fraction(2), Fraction(0))
    return (Quaternion(one, zero, zero, zero),
            Quaternion(two, one, zero, zero))


def _field_of(base) -> str:
    return "R" if isinstance(base, Sphere) else base.field


def _float_in_field(x, field: str):
    """Exact scalar into the float lane of the given field."""
    v = to_float_scalar(x)
    if field == "C":
        return complex(v)
    if field == "H" and not isinstance(v, Quaternion):
        return Quaternion(v, 0.0, 0.0, 0.0)
    return v


def _sampling_ring(field: str):
    return {"R": RING_RATIONAL, "C": RING_GAUSS_SQRT5,
            "H": RING_QUAT_SQRT5}[field]


# --------------------------------------------------------------------------
# the verifier
# --------------------------------------------------------------------------

class CertVerifier:
    """Runs all node checks of one certificate and classifies points.

    Path-independent facts live in one store keyed by their content (see
    the module docstring); sample draws stay keyed by node path.
    """

    def __init__(self, root: Node, config: RunConfig | None = None):
        self.root = root
        self.config = config or RunConfig()
        self._facts = {}        # content key -> shared fact
        self._node_facts = {}   # path -> the node's own fact, resolved once

    # -- shared facts --------------------------------------------------------

    def _fact(self, key, build):
        """The fact stored under ``key``, built on first use."""
        fact = self._facts.get(key)
        if fact is None:
            fact = self._facts[key] = build()
        return fact

    def _node_fact(self, node: Node, path: str, build):
        """The fragment, absorber context or map a node reads: shared by
        content key, and looked up by that key once per node, so later
        reads hash no matrix."""
        fact = self._node_facts.get(path)
        if fact is None:
            fact = self._node_facts[path] = self._fact(
                _content_key(node, self.config), build)
        return fact

    def _fragment_for(self, node: Node, path: str) -> Fragment:
        def build():
            space, seed, pair, depth = _fragment_inputs(node,
                                                        self.config.depth)
            return orbit_fragment(space, seed, pair, depth)
        return self._node_fact(node, path, build)

    def _float_index(self, fact, build):
        """(reps array, values) of a node's fact for nearest-point
        matching, built from the fact on the first float query.  Facts
        live as long as the verifier, so a fact's id names it."""
        return self._fact(("float index", id(fact)), build)

    def _removed_dirs(self, removed, base):
        """Deterministic list of line directions realizing the removed set."""
        cfg = self.config
        if isinstance(removed, RemovedExceptional):
            pair = get_pair(removed.pair)
            lines = exceptional_set(pair, _ABSORBER_DEPTH)
            return sorted(lines, key=repr)
        if isinstance(removed, (RemovedPoles, RemovedAxis)):
            n = base.ambient_dim
            e_last = tuple(Fraction(1 if i == n - 1 else 0)
                           for i in range(n))
            return [e_last]
        raise VerificationError(
            f"absorption over removed set {removed!r} is not supported")

    def _absorb_context(self, node: Node, path: str) -> dict:
        """The absorber's disjointness check, whose ``index`` maps each
        line of g^k(D), k <= bound, to its least k."""
        def build():
            g = node.params["absorber"]
            dirs = self._removed_dirs(node.children[0].space.removed,
                                      node.space.base)
            return {"g": g, "dirs": dirs,
                    "absorber_check": absorber_check(
                        g, dirs, self.config.absorber_bound)}
        return self._node_fact(node, path, build)

    def _absorbed_level(self, node: Node, path: str, point):
        """Least k <= bound with the point's line in g^k(D), or None.

        A float point is matched against the float copy of the index,
        made on the first float query.
        """
        ctx = self._absorb_context(node, path)
        ab = ctx["absorber_check"]
        if getattr(point, "exact", True):
            # None, the key of a point outside the index's field, is no key
            return ab["index"].get(ab["keys"].key(_point_line_key(point)))
        field = _field_of(node.space.base)
        return _nearest(self._float_index(
            ctx, lambda: _line_float_index(ab, field)),
            _point_line_rep(point))

    def _map_for(self, node: Node, path: str):
        return self._node_fact(node, path,
                               lambda: map_from_params(node.params))

    def _selftest(self, m, n):
        return self._fact(("selftest", m.name, n),
                          lambda: selftest(m, n, self.config.seed))

    # -- classification ----------------------------------------------------

    def classify(self, point, node: Node | None = None, path: str = "0"):
        """Top-down piece label of a point; "Unknown" when bounded searches
        are inconclusive."""
        node = self.root if node is None else node
        rule = node.rule
        if rule == "FreeTransport":
            frag = self._fragment_for(node, path)
            if point.exact:
                key = (point.key() if isinstance(point, SpherePoint)
                       else _point_line_key(point))
                w = frag.index.get(key)
                return "Unknown" if w is None else classify_prefix(w)
            reps = self._float_index(
                frag, lambda: _fragment_float_index(frag))
            label = _nearest(reps, _point_ray_rep(point))
            return "Unknown" if label is None else label
        if rule in ("SubgroupLift",):
            return self.classify(point, node.children[0], path + ".0")
        if rule == "StarEmbed":
            child_pt = _strip_star(point, node.children[0].space.base)
            if child_pt is None:
                return "Unknown"
            return self.classify(child_pt, node.children[0], path + ".0")
        if rule == "Pullback":
            m = self._map_for(node, path)
            try:
                img = m.apply(point)
            except (DomainError, GapCaseError):
                return "Unknown"
            return self.classify(img, node.children[0], path + ".0")
        if rule == "EquidecompTransfer":
            field, n, kc = node.params["args"]
            back = duality(field, int(n), int(n) - int(kc))
            img = back.apply(point)
            return self.classify(img, node.children[0], path + ".0")
        if rule == "DisjointUnion":
            base = node.space.base
            hyper = Subspace.coordinate(
                base.n, range(node.params["m"]),
                exact_ring_for_field(base.field))
            if _contained_in(hyper, point):
                return "B:" + self.classify(point, node.children[1],
                                            path + ".1")
            return "A:" + self.classify(point, node.children[0], path + ".0")
        if rule == "CountableAbsorb":
            if self._absorbed_level(node, path, point) is not None:
                return "absorbed"
            return self.classify(point, node.children[0], path + ".0")
        if rule == "Intertwine":
            img = stereographic_apply(point)
            return self.classify(img, node.children[0], path + ".0")
        raise VerificationError(f"cannot classify points at rule {rule}")

    # -- per-rule verifiers --------------------------------------------------

    def _run(self, node: Node, path: str):
        results = []
        child_samples = []
        for i, c in enumerate(node.children):
            sub_results, samples = self._run(c, f"{path}.{i}")
            results.extend(sub_results)
            child_samples.append(samples)
        handler = getattr(self, "_rule_" + node.rule)
        try:
            res, samples = handler(node, path, child_samples)
        except SeedFixedError as e:
            res = self._result(node, path, ["seed rejected: " + str(e)], 1,
                               {})
            samples = []
        results.append(res)
        return results, samples

    def _result(self, node, path, failures, checks, stats):
        return {"path": path, "rule": node.rule,
                "space": node.space.text, "group": node.group.text,
                "status": "pass" if not failures else "fail",
                "checks": checks, "failures": failures, "stats": stats}

    def _subsample(self, items, path, tag, cap=None):
        cap = self.config.samples if cap is None else cap
        if len(items) <= cap:
            return list(items)
        rng = rng_for(self.config.seed, path, tag)
        idx = sorted(rng.sample(range(len(items)), cap))
        return [items[i] for i in idx]

    def _eq(self, p, q, exact):
        return equals(p, q, 0.0 if exact else self.config.tol)

    def _rule_BaseF2(self, node, path, child_samples):
        depth = max(1, self.config.depth)
        rep = self._fact(("translate identity", depth),
                         lambda: check_translate_identity(depth))
        failures = []
        if not rep["ok"]:
            failures.append(
                f"translate-identity violated: {rep['violations'][:3]}")
        stats = {"words_checked": rep["words_checked"],
                 "max_len": rep["max_len"]}
        return self._result(node, path, failures, rep["words_checked"],
                            stats), []

    def _rule_FreeTransport(self, node, path, child_samples):
        cfg = self.config
        failures = []
        pair = get_pair(node.params["pair"])
        free_rep = self._fact(("freeness", pair.name, cfg.depth),
                              lambda: check_freeness(pair, cfg.depth))
        if not free_rep["ok"]:
            failures.append(
                f"pair {pair.name} not free to depth {cfg.depth}: "
                f"word {free_rep['counterexample']} is trivial")
        frag = self._fragment_for(node, path)
        reass = reassembly_check(frag)
        if not reass["ok"]:
            failures.append("reassembly cover failed: "
                            f"{reass['sides']}")
        pieces = piece_sizes(frag)
        expected = ball_size(cfg.depth)
        if len(frag.words) != expected:
            failures.append(
                f"fragment has {len(frag.words)} points, expected {expected}")
        chosen = self._subsample(frag.words, path, "subsample")
        samples = [Sample(frag.point_for(w), classify_prefix(w))
                   for w in chosen]
        checks = free_rep["words_checked"] + len(frag.words) * 2
        stats = {"freeness_words": free_rep["words_checked"],
                 "fragment_points": len(frag.words),
                 "pieces": pieces,
                 "reassembly": reass,
                 "samples_out": len(samples)}
        return self._result(node, path, failures, checks, stats), samples

    def _rule_SubgroupLift(self, node, path, child_samples):
        failures = []
        checks = 0
        child = node.children[0]
        if child.group.family == "free":
            pair = get_pair(child.group.pair)
            for x in range(4):
                checks += 1
                if not is_unitary(pair.letter_matrix(x)):
                    failures.append(
                        f"letter {x} of {pair.name} is not orthogonal")
        else:
            ring = _sampling_ring(_field_of(node.space.base))
            rng = rng_for(self.config.seed, path, "members")
            for _ in range(3):
                u = random_unitary(child.group.n, ring, rng)
                checks += 1
                if not is_unitary(block_embed_matrix(u, node.group.n)):
                    failures.append("embedded member is not unitary")
        samples = child_samples[0]
        stats = {"membership_checks": checks,
                 "samples_out": len(samples)}
        return self._result(node, path, failures, checks, stats), samples

    def _rule_StarEmbed(self, node, path, child_samples):
        cfg = self.config
        failures = []
        ambient = node.space.star_ambient
        lifted = [Sample(block_embed_point(s.point, ambient), s.label)
                  for s in child_samples[0]]
        # spot equivariance of the embedding
        checks = len(lifted)
        ring = _sampling_ring(_field_of(node.space.base))
        rng = rng_for(cfg.seed, path, "equivariance")
        spot = self._subsample(child_samples[0], path, "spot", cap=10)
        for s in spot:
            u = random_unitary(node.children[0].group.matrix_dim, ring, rng)
            ub = block_embed_matrix(u, ambient)
            lhs = block_embed_point(act(u, s.point), ambient)
            rhs = act(ub, block_embed_point(s.point, ambient))
            checks += 1
            if not self._eq(lhs, rhs, s.point.exact):
                failures.append("embedding does not intertwine the action")
        stats = {"ambient": ambient, "spot_checks": len(spot),
                 "samples_out": len(lifted)}
        return self._result(node, path, failures, checks, stats), lifted

    def _rule_Pullback(self, node, path, child_samples):
        cfg = self.config
        failures = []
        m = self._map_for(node, path)
        st = self._selftest(m, min(120, cfg.samples))
        if not st["ok"]:
            failures.append(
                f"map selftest failed for {m.name}: "
                f"{st['failures']} failures, "
                f"max deviation {st['max_deviation']}")
        lifted = []
        replay_failures = 0
        domain_failures = 0
        checks = st["samples"]
        for s in child_samples[0]:
            try:
                x = m.section(s.point)
            except (DomainError, GapCaseError) as e:
                domain_failures += 1
                failures.append(f"section failed: {e}")
                continue
            checks += 2
            if not m.in_domain(x):
                domain_failures += 1
                failures.append("section left the map domain")
                continue
            if not self._eq(m.apply(x), s.point, s.point.exact):
                replay_failures += 1
            lifted.append(Sample(x, s.label))
        if replay_failures:
            failures.append(
                f"{replay_failures} section lifts did not replay to their "
                f"target point")
        stats = {"map": m.name, "selftest": _slim_selftest(st),
                 "lifted": len(lifted), "replay_failures": replay_failures,
                 "domain_failures": domain_failures,
                 "samples_out": len(lifted)}
        return self._result(node, path, failures, checks, stats), lifted

    def _rule_DisjointUnion(self, node, path, child_samples):
        failures = []
        base = node.space.base
        hyper = Subspace.coordinate(base.n, range(node.params["m"]),
                                    exact_ring_for_field(base.field))
        checks = 0
        merged = []
        for branch, tag, want in ((0, "A", False), (1, "B", True)):
            for s in child_samples[branch]:
                checks += 1
                if _contained_in(hyper, s.point) is not want:
                    failures.append(
                        f"branch {tag} sample on the wrong side of the "
                        f"padded-subspace split")
                label = None if s.label is None else f"{tag}:{s.label}"
                merged.append(Sample(s.point, label))
        merged = self._subsample(merged, path, "merge")
        stats = {"m": node.params["m"],
                 "branch_sizes": [len(c) for c in child_samples],
                 "samples_out": len(merged)}
        return self._result(node, path, failures, checks, stats), merged

    def _rule_EquidecompTransfer(self, node, path, child_samples):
        cfg = self.config
        failures = []
        m = self._map_for(node, path)
        field, n, kc = node.params["args"]
        m_back = duality(field, int(n), int(n) - int(kc))
        st = self._selftest(m, min(60, cfg.samples))
        if not st["ok"]:
            failures.append(f"duality selftest failed: {st['failures']}")
        out = []
        checks = st["samples"]
        involution_failures = 0
        for s in child_samples[0]:
            img = m.apply(s.point)
            checks += 1
            if not self._eq(m_back.apply(img), s.point, s.point.exact):
                involution_failures += 1
            out.append(Sample(img, s.label))
        if involution_failures:
            failures.append(
                f"duality failed to be an involution on "
                f"{involution_failures} samples")
        stats = {"map": m.name, "selftest": _slim_selftest(st),
                 "involution_failures": involution_failures,
                 "samples_out": len(out)}
        return self._result(node, path, failures, checks, stats), out

    def _rule_CountableAbsorb(self, node, path, child_samples):
        cfg = self.config
        failures = []
        ctx = self._absorb_context(node, path)
        g = ctx["g"]
        removed = node.children[0].space.removed

        # 1. the absorber keeps the removed set's forward orbit disjoint
        ab = ctx["absorber_check"]
        checks = ab["set_size"] * (cfg.absorber_bound + 1)
        if not ab["ok"]:
            failures.append(
                f"absorber orbit self-intersects: {ab['first_collision']!r}")

        # 2. the absorber is not trapped in the acting subgroup
        if isinstance(removed, RemovedExceptional):
            depth = min(cfg.depth, 6)
            scanned, hits = self._fact(
                ("pair words", removed.pair, depth, g.scalar_ring().name, g),
                lambda: pair_word_scan(get_pair(removed.pair), depth, g))
            failures.extend(f"absorber equals pair word {w}" for w in hits)
            checks += scanned
        else:
            checks += 1
            moved = point_key_vec(mat_vec(g, ctx["dirs"][0]), "line")
            if moved == point_key_vec(ctx["dirs"][0], "line"):
                failures.append("absorber fixes the removed line")

        # 3. bounded equidecomposition witness X ~ X minus D
        def absorbed(x):
            return self._absorbed_level(node, path, x) is not None

        def outside_removed(x):
            lvl = self._absorbed_level(node, path, x)
            return lvl is None or lvl >= 1

        witness = EquidecompWitness(
            pieces=(WitnessPiece("complement",
                                 lambda x: not absorbed(x), None),
                    WitnessPiece("absorbed-orbit", absorbed, g)),
            target_predicate=outside_removed,
            # tagged, so an exact and a float image never share a key
            image_key=lambda x: (
                ("exact", _point_line_key(x)) if getattr(x, "exact", True)
                else ("float", _float_line_key(x))))

        child = list(child_samples[0])
        levels = [self._absorbed_level(node, path, s.point) for s in child]
        removed_hits = levels.count(0)
        if removed_hits:
            failures.append(
                f"{removed_hits} child samples lie in the removed set "
                f"claimed deleted")
        absorbed_samples = _absorbed_samples(node, ctx)
        eq_rep = equidecomp_verify(
            witness, [s.point for s in child + absorbed_samples])
        checks += eq_rep["points"]
        if not eq_rep["ok"]:
            failures.extend(eq_rep["failures"][:5])

        bounded = levels.count(None)
        samples = child + absorbed_samples
        samples = self._subsample(samples, path, "merge")
        stats = {"absorber_check": {"bound": ab["bound"],
                                    "set_size": ab["set_size"],
                                    "ok": ab["ok"]},
                 "witness": {"points": eq_rep["points"],
                             "pieces": eq_rep["pieces"]},
                 "absorbed_samples": len(absorbed_samples),
                 "beyond_bound_assumed_complement": bounded,
                 "samples_out": len(samples)}
        return self._result(node, path, failures, checks, stats), samples

    def _rule_Intertwine(self, node, path, child_samples):
        cfg = self.config
        failures = []
        f = node.params["field"]
        stereo = stereographic(f)
        hom = induced_rotation_map(f)
        st1 = self._selftest(stereo, min(120, cfg.samples))
        st2 = self._selftest(hom, min(40, cfg.samples))
        for st, nm in ((st1, "chart"), (st2, "induced rotation")):
            if not st["ok"]:
                failures.append(
                    f"{nm} selftest failed: {st['failures']} failures, "
                    f"max deviation {st['max_deviation']}")
        checks = st1["samples"] + st2["samples"]
        max_dev = 0.0
        lifted = []
        for s in child_samples[0]:
            if s.label is None:
                continue
            p = (SpherePoint.from_vector(s.point.to_float_vector())
                 if s.point.exact else s.point)
            line = stereographic_lift(f, p)
            back = stereographic_apply(line)
            dev = max(abs(a - b) for a, b in
                      zip(back.to_float_vector(), p.to_float_vector()))
            max_dev = max(max_dev, _decade_ceiling(dev))
            checks += 1
            if dev > cfg.tol:
                failures.append(
                    f"chart lift failed to replay within tol: {dev}")
                continue
            lifted.append(Sample(line, s.label))
        frag = self._fragment_for(node, path)
        chosen = self._subsample(frag.words, path, "fragment")
        exact_samples = [Sample(frag.point_for(w), None) for w in chosen]
        samples = self._subsample(lifted + exact_samples, path, "merge")
        stats = {"chart_selftest": _slim_selftest(st1),
                 "rotation_selftest": _slim_selftest(st2),
                 "lifted": len(lifted), "max_lift_deviation": max_dev,
                 "orbit_fragment": len(frag.words),
                 "samples_out": len(samples)}
        return self._result(node, path, failures, checks, stats), samples

    # -- top level -----------------------------------------------------------

    def verify(self) -> dict:
        cfg = self.config
        structure = check(self.root)
        if not structure["ok"]:
            return {"schema": SCHEMA_REPORT,
                    "space": self.root.space.text,
                    "group": self.root.group.text,
                    "config": _config_json(cfg),
                    "structure": structure,
                    "nodes": [], "provenance": None, "unknown": 0,
                    "totals": {"checks": 0, "failures":
                               len(structure["violations"]),
                               "samples": 0},
                    "overall": "fail"}
        results, samples = self._run(self.root, "0")
        results.sort(key=lambda r: [int(p) for p in r["path"].split(".")])

        matched = 0
        labelled = 0
        unknown = 0
        mismatches = []
        for s in samples:
            if s.label is None:
                continue
            labelled += 1
            got = self.classify(s.point)
            if got == s.label:
                matched += 1
            else:
                if got == "Unknown":
                    unknown += 1
                if len(mismatches) < 5:
                    mismatches.append(
                        {"expected": s.label, "classified": got})
        provenance = {"labelled_samples": labelled, "matched": matched,
                      "unknown": unknown,
                      "mismatches": mismatches,
                      "ok": matched == labelled}

        failures = sum(len(r["failures"]) for r in results)
        if not provenance["ok"]:
            failures += labelled - matched
        overall = "pass" if (failures == 0
                             and all(r["status"] == "pass"
                                     for r in results)) else "fail"
        totals = {"checks": sum(r["checks"] for r in results) + labelled,
                  "failures": failures,
                  "samples": len(samples),
                  "nodes": len(results)}
        return {"schema": SCHEMA_REPORT,
                "space": self.root.space.text,
                "group": self.root.group.text,
                "config": _config_json(cfg),
                "structure": structure,
                "nodes": results,
                "provenance": provenance,
                "unknown": unknown,
                "totals": totals,
                "overall": overall}


def _content_key(node: Node, cfg: RunConfig):
    """Key of everything a node's fragment, absorber context or map is
    computed from; nodes with equal keys share one fact."""
    rule = node.rule
    if rule in ("FreeTransport", "Intertwine"):
        space, seed, pair, depth = _fragment_inputs(node, cfg.depth)
        # 1 and 1.0 compare equal but give different fragments
        return ("fragment", rule, space.text, pair,
                tuple((type(x), x) for x in seed), depth)
    if rule == "CountableAbsorb":
        g = node.params["absorber"]
        return ("absorber", g.scalar_ring().name, g,
                node.children[0].space.removed, node.space.base.text,
                cfg.absorber_bound)
    if rule in ("Pullback", "EquidecompTransfer"):
        return ("map", node.params.get("map"),
                _frozen(node.params.get("args", ())))
    raise VerificationError(f"no shared fact at rule {rule}")


def _frozen(value):
    """Hashable copy of a JSON value: lists become tuples."""
    if isinstance(value, (list, tuple)):
        return tuple(_frozen(v) for v in value)
    return value


def _fragment_inputs(node: Node, depth: int):
    """(space, seed, pair name, depth) of the orbit fragment a node reads."""
    if node.rule == "FreeTransport":
        return (node.space.base, tuple(node.params["seed"]),
                node.params["pair"], depth)
    if node.rule == "Intertwine":
        f = node.params["field"]
        return (Projective(f, 2), _intertwine_seed(f), _INTERTWINE_PAIR[f],
                min(depth, 5))
    raise VerificationError(f"no fragment at rule {node.rule}")


def _nearest(float_index, rep):
    """The value of the float index row nearest rep, or None when no row
    lies within _NEAREST_TOL."""
    import numpy as np
    arr, values = float_index
    d2 = ((arr - rep) ** 2).sum(axis=1)
    i = int(np.argmin(d2))
    return values[i] if d2[i] <= _NEAREST_TOL ** 2 else None


def _fragment_float_index(frag: Fragment):
    """(float unit vectors array, piece labels) of a ray fragment's points.

    Float points reach a fragment only from an ``Intertwine`` lift, whose
    subtree fragments are rays; a line fragment has no float index.
    """
    import numpy as np
    if frag.kind != "ray":
        raise VerificationError("a float point cannot be matched against "
                                f"a {frag.kind} fragment")
    reps, labels = [], []
    for w in frag.words:
        fv = [to_float_scalar(x) for x in frag.vectors[w]]
        norm = math.sqrt(sum(x * x for x in fv))
        reps.append(np.array([x / norm for x in fv]))
        labels.append(classify_prefix(w))
    return np.vstack(reps), labels


def _line_float_index(ab: dict, field: str):
    """(float reps array, least powers) of the lines of an absorber
    check's index, decoded from their keys into the float lane of the
    field."""
    import numpy as np
    index, floats = ab["index"], ab["keys"].floats
    return (np.vstack([_vec_line_rep([_float_in_field(x, field)
                                      for x in floats(k)])
                       for k in index]), list(index.values()))


def _absorbed_samples(node, ctx) -> list:
    """Explicit points of the absorbed set A = U g^n(D), labelled."""
    out = []
    base = node.space.base
    cur = list(ctx["dirs"][:4])
    for power in range(3):
        for d in cur:
            out.append(Sample(_point_from_line(base, d), "absorbed"))
        cur = [mat_vec(ctx["g"], d) for d in cur]
    return out


def _point_from_line(base, d):
    if isinstance(base, Sphere):
        return SpherePoint.from_vector(d)
    return ProjectivePoint.from_vector(d)


def _decade_ceiling(x: float) -> float:
    """The least power of ten >= x (0.0 stays 0.0), so a reported float
    deviation does not hang on the last bits of the float arithmetic."""
    if not 0.0 < x < math.inf:
        return x
    return float(f"1e{math.ceil(math.log10(x))}")


def _strip_star(point, child_base):
    """Inverse of block_embed_point when the padding is (near) zero."""
    m = child_base.ambient_dim
    if isinstance(point, SpherePoint):
        pad = point.direction[m:]
        if point.exact:
            if any(x != 0 for x in pad):
                return None
            return SpherePoint(point.sign, point.direction[:m], True)
        if any(abs(x) > _PRED_TOL for x in pad):
            return None
        return SpherePoint.from_vector(point.direction[:m])
    if isinstance(point, Subspace):
        rows = point.basis.data
        if point.exact:
            if any(x for r in rows[m:] for x in r):
                return None
        elif any(abs_float(x) > _PRED_TOL for r in rows[m:] for x in r):
            return None
        # the pivot rows are not in a zero padding, so the head stays
        # echelon with the same pivots
        return Subspace.from_echelon(Matrix._of_rows(rows[:m]), point.pivots)
    return None


def _contained_in(hyper: Subspace, point) -> bool:
    """Containment in a coordinate subspace: exact by the echelon basis, a
    float point by its projector rows off the hyperplane's pivots."""
    if not isinstance(point, Subspace):
        raise VerificationError("containment is defined for subspaces")
    if point.exact:
        return hyper.contains(point)
    rows = point.projector.data
    off = set(range(len(rows))) - set(hyper.pivots)
    return all(abs_float(x) <= _PRED_TOL for i in off for x in rows[i])


def _slim_selftest(st: dict) -> dict:
    return {"map": st["map"], "samples": st["samples"],
            "skipped": st["skipped"], "failures": st["failures"],
            "max_deviation": st["max_deviation"], "ok": st["ok"]}


def _config_json(cfg: RunConfig) -> dict:
    # every run is exact; "mode" stays so the report schema is unchanged
    return {"depth": cfg.depth, "samples": cfg.samples, "seed": cfg.seed,
            "mode": "exact", "tol": cfg.tol,
            "absorber_bound": cfg.absorber_bound,
            "absorber_depth": _ABSORBER_DEPTH}


def verify(root: Node, config: RunConfig | None = None, **overrides) -> dict:
    """Run every node check of a certificate; returns the full report."""
    cfg = replace(config or RunConfig(), **overrides)
    return CertVerifier(root, cfg).verify()


def classify(root: Node, point, config: RunConfig | None = None) -> str:
    """Piece label of a point under a certificate's decomposition."""
    return CertVerifier(root, config or RunConfig()).classify(point)
