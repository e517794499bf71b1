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
  builds also classifies absorbed points;
* equivariant-map claims -> catalog selftests and section/replay checks
  on every transported sample: the map's ``apply`` is its only domain
  test, so a section lands in the domain exactly when applying the map to
  it succeeds, and that image is the one the replay compares; a node
  builds the map it names from ``equimaps.CATALOG`` (``map_from_params``),
  and a transfer's way back is its duality map's own section;
* every sample a node sends up carries a piece label (its provenance); at
  the root the label of each one is recomputed by an independent top-down
  classification and the two must agree.

Points sampled along the way are "provenanced": each one was constructed
by replaying group words and map sections, so its piece membership is a
theorem about the construction, not a floating-point guess.  Every point
is exact.  An ``Intertwine`` node's child walks the pair its chart induces
on the sphere, from the chart image of an exact line, so every child
sample is a ray whose unit vector lies over Q(sqrt5): the inverse chart
lifts it to an exact line (``stereographic_lift``), the lift must replay
through the chart exactly, and the labelled lifts are the node's samples;
it walks no orbit of its own.  No point can hold a float to classify: a
point refuses one in any coordinate when it is built (``spaces``), and the
integer reading of a fragment's seed (``freegroup.IntegerReader``) refuses
one too.

An orbit fragment is walked as integer vectors (``freegroup.LineKeys``)
and keys its points by their integers: a line by its primitive integer
representative, a ray by the sign of its leading entry and that line key
(``Fragment``).  An exact query point is keyed the same way, from the
leading-1 vector a ``SpherePoint`` or ``ProjectivePoint`` stores, read
without any row reduction, and so is the lookup in the absorber index
(``freegroup.LineKeys.key``); the key is None for a point outside the
field of the walk.  Elsewhere an exact point is its canonical vector:
equal exact scalars are ``==`` and hash alike in every class, so a key
built over one ring finds a key built over another.

Facts that do not depend on a node's place in the tree (orbit fragments,
absorber contexts, the pair-word, freeness and translate scans, map
selftests and maps) are computed once per verify and keyed by the content
they are computed from, so a repeated subtree reuses them; each node looks
its own fact up by that key once and keeps it by path.  Whatever depends
on a node's samples (sample draws, group draws, section and involution
replays, witness checks) stays keyed by node path, so sharing changes no
report byte.  A ``StarEmbed`` spot check and a ``SubgroupLift`` member
check draw their group element from ``sampling.generating_set``, with the
node's own rng: what each checks holds for a product when it holds for
the factors, and is a closed condition, so the density argument of
``equimaps`` carries it from that set to the whole group.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from itertools import islice

from .certificates import Node, check
from .equimaps import (
    CATALOG,
    induced_rotation_map,
    selftest,
    stereographic,
    stereographic_apply,
    stereographic_lift,
)
from .errors import (
    DomainError,
    GapCaseError,
    ParadoxError,
    SeedFixedError,
    VerificationError,
)
from .freegroup import (
    LineKeys,
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
    mat_vec,
    normalize_leading,
)
from .sampling import generating_set, rng_for
from .scalars import (
    RING_GAUSS_SQRT5,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    Fraction,
    exact_sqrt,
)
from .spaces import (
    Projective,
    ProjectivePoint,
    RemovedAxis,
    RemovedExceptional,
    RemovedPoles,
    Sphere,
    SpherePoint,
    Subspace,
    act,
    block_embed_point,
    equals,
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

_ABSORBER_DEPTH = 4   # word length of the exceptional set an absorber moves


@dataclass
class RunConfig:
    """Verification-run knobs; all defaults match the CLI defaults."""
    depth: int = 6
    samples: int = 500
    seed: int = 42
    absorber_bound: int = 50


@dataclass
class Sample:
    """A provenanced point: where it lives, which piece produced it."""
    point: object
    label: str


# --------------------------------------------------------------------------
# point keys (exact canonical vectors)
# --------------------------------------------------------------------------

def _point_line_key(point):
    """Leading-1 vector of the line through an exact point."""
    if not isinstance(point, (SpherePoint, ProjectivePoint)):
        raise VerificationError("line keys are defined for rays and lines")
    return point.direction if isinstance(point, SpherePoint) else point.vector


# --------------------------------------------------------------------------
# orbit fragments
# --------------------------------------------------------------------------

class Fragment:
    """The ball-of-radius-L orbit fragment of a seed under a free pair.

    ``words`` is in breadth-first order (identity first). The walk reads
    the pair's four letters and the seed once, through one
    ``freegroup.LineKeys``, so the point of a word w is an integer vector:
    den**(|w| + 1) times the exact vector M(w) seed. ``keys`` maps each
    word to its point's key, read off those integers: a line's key is
    ``LineKeys.canonical`` of the vector, its primitive integer
    representative with a positive integer leading entry, and a ray's key
    is (the sign of the vector's leading entry, read exactly from its
    integers, that line key). ``index`` inverts ``keys``. The exact vector
    (``vector``) and the point (``point_for``) are built only when asked
    for.
    Injectivity of ``index`` is enforced during construction: a key
    collision between words u and w means reduce(u^-1 w) fixes the seed,
    and that word is reported.
    """

    __slots__ = ("kind", "depth", "words", "keys", "index", "_seed",
                 "_walk", "_ints")

    def __init__(self, kind, depth, seed, walk):
        self.kind = kind
        self.depth = depth
        self._seed = seed
        self._walk = walk
        self.words = []
        self.keys = {}
        self.index = {}
        self._ints = {}

    def _key(self, v):
        """The key of the point of a nonzero integer vector."""
        line = self._walk.canonical(v)
        return (self._walk.sign(v), line) if self.kind == "ray" else line

    def _add(self, w, v):
        """Record the point of the integer vector v as that of the word w;
        SeedFixedError when an earlier word already has that point."""
        key = self._key(v)
        if key in self.index:
            fix = reduce_word(inverse_word(self.index[key]) + w)
            raise SeedFixedError(word_text(fix))
        self.words.append(w)
        self._ints[w] = v
        self.keys[w] = key
        self.index[key] = w

    def moved_key(self, w, x):
        """The key of letter x times the point of the word w."""
        return self._key(self._walk.times(self._ints[w], x))

    def key_of(self, point):
        """The key of an exact ray or line, as the walk keys its points;
        None when its entries lie outside the field of the walk."""
        line = self._walk.key(_point_line_key(point))
        if isinstance(point, SpherePoint):
            # the direction's leading entry is 1, so the ray's sign is
            # the point's own
            return None if line is None else (point.sign, line)
        return line

    def vector(self, w):
        """The exact vector M(w) seed: the seed itself for the identity."""
        if not w:
            return self._seed
        walk = self._walk
        return tuple(walk.entries(self._ints[w], walk.den ** (len(w) + 1)))

    def point_for(self, w):
        if self.kind == "ray":
            return SpherePoint.from_vector(self.vector(w))
        return ProjectivePoint.from_vector(self.vector(w))


def orbit_fragment(space, seed, pair, depth: int) -> Fragment:
    """All points {w . seed : |w| <= depth} with provenance words.

    The walk is breadth first, each word prepending a letter to one of the
    frontier, and every point is an integer vector keyed by its integers
    (``Fragment``). Raises SeedFixedError (naming the fixing word) if two
    words of length <= depth land on the same point -- i.e. the seed is
    fixed by a reduced word of length <= 2*depth -- BackendMismatchError if
    a seed coordinate is not exact, from the integer reading of the seed,
    and DomainError for a ray walk over a field with no real ordering.
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
    seed_vec = tuple(Fraction(x) if isinstance(x, int) else x for x in seed)
    if len(seed_vec) != pair.dim:
        raise DomainError(
            f"seed has {len(seed_vec)} coordinates, pair acts on "
            f"{pair.dim}")
    walk = LineKeys([pair.letter_matrix(x) for x in range(4)], [seed_vec])
    if kind == "ray" and (walk.width == 4 or walk.quaternionic):
        raise DomainError(
            f"pair {pair.name} has no real ordering, so it moves no ray "
            f"of {space.text}")

    frag = Fragment(kind, depth, seed_vec, walk)
    frag._add((), walk.start[0])
    frontier = [()]
    for _ in range(depth):
        nxt = []
        for w in frontier:
            v = frag._ints[w]
            for x in range(4):
                if w and x == (w[0] ^ 1):
                    continue
                w2 = (x,) + w
                frag._add(w2, walk.times(v, x))
                nxt.append(w2)
        frontier = nxt
    return frag


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
                    counts[frag.moved_key(v, translate)] += 1
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
    """The catalog map a Pullback or an EquidecompTransfer names; ``check``
    has refused any other name and any args that do not fit it."""
    build, _ = CATALOG[params["map"]]
    return build(*params["args"])


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
        """Least k <= bound with the point's line in g^k(D), or None."""
        ab = self._absorb_context(node, path)["absorber_check"]
        # None, the key of a point outside the index's field, is no key
        return ab["index"].get(ab["keys"].key(_point_line_key(point)))

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
            w = frag.index.get(frag.key_of(point))
            return "Unknown" if w is None else classify_prefix(w)
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
            img = self._map_for(node, path).section(point)
            return self.classify(img, node.children[0], path + ".0")
        if rule == "DisjointUnion":
            if _contained_in(node.params["m"], point):
                return "B:" + self.classify(point, node.children[1],
                                            path + ".1")
            return "A:" + self.classify(point, node.children[0], path + ".0")
        if rule == "CountableAbsorb":
            if self._absorbed_level(node, path, point) is not None:
                return "absorbed"
            return self.classify(point, node.children[0], path + ".0")
        if rule == "Intertwine":
            try:
                img = stereographic_apply(node.params["field"], point)
            except DomainError:
                return "Unknown"
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
        except ParadoxError as e:
            # an error inside the handler or a fact it reads is this node's
            # failure, named by its path
            reason = (f"seed rejected: {e}" if isinstance(e, SeedFixedError)
                      else str(e))
            res = self._result(node, path, [reason], 1, {})
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
            ring = _sampling_ring(node.space.base.field)
            rng = rng_for(self.config.seed, path, "members")
            members = generating_set(child.group.n, ring)
            for _ in range(3):
                u = rng.choice(members)
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
        ring = _sampling_ring(node.space.base.field)
        rng = rng_for(cfg.seed, path, "equivariance")
        spot = self._subsample(child_samples[0], path, "spot", cap=10)
        movers = generating_set(node.children[0].group.matrix_dim, ring)
        for s in spot:
            u = rng.choice(movers)
            ub = block_embed_matrix(u, ambient)
            lhs = block_embed_point(act(u, s.point), ambient)
            rhs = act(ub, block_embed_point(s.point, ambient))
            checks += 1
            if not equals(lhs, rhs):
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
            try:
                image = m.apply(x)
            except (DomainError, GapCaseError):
                domain_failures += 1
                failures.append("section left the map domain")
                continue
            if not equals(image, s.point):
                replay_failures += 1
            lifted.append(Sample(x, s.label))
        if replay_failures:
            failures.append(
                f"{replay_failures} section lifts did not replay to their "
                f"target point")
        stats = {"map": m.name, "selftest": st,
                 "lifted": len(lifted), "replay_failures": replay_failures,
                 "domain_failures": domain_failures,
                 "samples_out": len(lifted)}
        return self._result(node, path, failures, checks, stats), lifted

    def _rule_DisjointUnion(self, node, path, child_samples):
        failures = []
        m = node.params["m"]
        checks = 0
        merged = []
        for branch, tag, want in ((0, "A", False), (1, "B", True)):
            for s in child_samples[branch]:
                checks += 1
                if _contained_in(m, s.point) is not want:
                    failures.append(
                        f"branch {tag} sample on the wrong side of the "
                        f"padded-subspace split")
                merged.append(Sample(s.point, f"{tag}:{s.label}"))
        merged = self._subsample(merged, path, "merge")
        stats = {"m": m,
                 "branch_sizes": [len(c) for c in child_samples],
                 "samples_out": len(merged)}
        return self._result(node, path, failures, checks, stats), merged

    def _rule_EquidecompTransfer(self, node, path, child_samples):
        cfg = self.config
        failures = []
        m = self._map_for(node, path)
        st = self._selftest(m, min(60, cfg.samples))
        if not st["ok"]:
            failures.append(f"duality selftest failed: {st['failures']}")
        out = []
        checks = st["samples"]
        involution_failures = 0
        for s in child_samples[0]:
            img = m.apply(s.point)
            checks += 1
            if not equals(m.section(img), s.point):
                involution_failures += 1
            out.append(Sample(img, s.label))
        if involution_failures:
            failures.append(
                f"duality failed to be an involution on "
                f"{involution_failures} samples")
        stats = {"map": m.name, "selftest": st,
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
            moved = normalize_leading(mat_vec(g, ctx["dirs"][0]))
            if moved == normalize_leading(ctx["dirs"][0]):
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
            image_key=_point_line_key)

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
        lifted = []
        outside = missed = 0
        for s in child_samples[0]:
            checks += 1
            line = stereographic_lift(f, s.point)
            if line is None:
                outside += 1
            elif stereographic_apply(f, line) != s.point:
                missed += 1
            else:
                lifted.append(Sample(line, s.label))
        if outside:
            failures.append(f"chart lift left the field on {outside} samples")
        if missed:
            failures.append(f"chart lift did not replay on {missed} samples")
        stats = {"chart_selftest": st1, "rotation_selftest": st2,
                 "lifted": len(lifted),
                 "samples_out": len(lifted)}
        return self._result(node, path, failures, checks, stats), lifted

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
        labelled = len(samples)
        unknown = 0
        mismatches = []
        for s in samples:
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
    if rule == "FreeTransport":
        space, seed, pair, depth = _fragment_inputs(node, cfg.depth)
        # 1 and 1.0 compare equal but give different fragments
        return ("fragment", space.text, pair,
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
    """(space, seed, pair name, depth) of a FreeTransport node's orbit
    fragment."""
    return (node.space.base, tuple(node.params["seed"]),
            node.params["pair"], depth)


def _absorbed_samples(node, ctx) -> list:
    """Explicit points of the absorbed set A = U g^n(D), labelled: the
    first four lines of D whose norm has an exact root in the field of
    their entries, and their images under g^k for k up to min(2, bound),
    the powers the bounded index holds. An ``Intertwine`` above lifts such
    points exactly, since the unit vector of a line of D then lies in that
    field, and the absorber, rational or a rotation of that field, keeps
    it there."""
    out = []
    base = node.space.base
    cur = list(islice((d for d in ctx["dirs"]
                       if exact_sqrt(sum(x * x for x in d)) is not None), 4))
    for power in range(min(2, ctx["absorber_check"]["bound"]) + 1):
        for d in cur:
            out.append(Sample(_point_from_line(base, d), "absorbed"))
        cur = [mat_vec(ctx["g"], d) for d in cur]
    return out


def _point_from_line(base, d):
    if isinstance(base, Sphere):
        return SpherePoint.from_vector(d)
    return ProjectivePoint.from_vector(d)


def _strip_star(point, child_base):
    """Inverse of block_embed_point when the padding is zero."""
    m = child_base.ambient_dim
    if isinstance(point, SpherePoint):
        if any(point.direction[m:]):
            return None
        return SpherePoint(point.sign, point.direction[:m])
    if isinstance(point, Subspace):
        if not point.inside_head(m):
            return None
        # the pivot rows are not in a zero padding, so the head stays
        # echelon with the same pivots
        return Subspace.from_echelon(Matrix._of_rows(point.basis.data[:m]),
                                     point.pivots)
    return None


def _contained_in(m: int, point) -> bool:
    """Containment in K^m, the span of the first m coordinates, read off
    the tail rows of the point's echelon basis."""
    if not isinstance(point, Subspace):
        raise VerificationError("containment is defined for subspaces")
    return point.inside_head(m)


def _config_json(cfg: RunConfig) -> dict:
    # every run is exact; "mode" and "tol" stay as constants so the report
    # schema is unchanged
    return {"depth": cfg.depth, "samples": cfg.samples, "seed": cfg.seed,
            "mode": "exact", "tol": 1e-9,
            "absorber_bound": cfg.absorber_bound,
            "absorber_depth": _ABSORBER_DEPTH}


def verify(root: Node, config: RunConfig | None = None, **overrides) -> dict:
    """Run every node check of a certificate; returns the full report."""
    cfg = replace(config or RunConfig(), **overrides)
    return CertVerifier(root, cfg).verify()


def classify(root: Node, point, config: RunConfig | None = None) -> str:
    """Piece label of a point under a certificate's decomposition."""
    return CertVerifier(root, config or RunConfig()).classify(point)
