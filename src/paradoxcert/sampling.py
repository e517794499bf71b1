"""Deterministic sampling of exact scalars, unitaries, points, subspaces,
and the fixed generating set a map's selftest moves points by.

All randomness flows through ``rng_for(seed, *path)``: a sha256 of the seed
and a structural path, so any two runs with the same seed draw identical
samples no matter how work is ordered.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from functools import cache

from .errors import ParadoxError, RankDeficientError
from .linalg import Matrix, cayley_unitary
from .scalars import (
    GaussSqrt5,
    QSqrt2,
    QSqrt5,
    Quaternion,
    RING_GAUSS_SQRT5,
    RING_QSQRT2,
    RING_QUAT_SQRT5,
    RING_RATIONAL,
    RINGS,
    Ring,
)
from .spaces import FlagPoint, ProjectivePoint, SpherePoint, Subspace


def rng_for(seed, *path) -> random.Random:
    text = ":".join([str(seed)] + [str(p) for p in path])
    digest = hashlib.sha256(text.encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randrange(-3, 4), rng.randrange(1, 4))


def random_scalar(rng: random.Random, ring: Ring):
    if ring is RING_RATIONAL:
        return random_fraction(rng)
    if ring is RING_QSQRT2:
        return QSqrt2(random_fraction(rng), random_fraction(rng))
    if ring is RING_GAUSS_SQRT5:
        return GaussSqrt5(rng.randrange(-3, 4), rng.randrange(-2, 3),
                          rng.randrange(-3, 4), rng.randrange(-2, 3),
                          rng.randrange(1, 4))
    if ring is RING_QUAT_SQRT5:
        return Quaternion(*(QSqrt5(random_fraction(rng), random_fraction(rng))
                            for _ in range(4)))
    raise ParadoxError(f"no sampler for ring {ring.name}")


def _imaginary_scalar(rng: random.Random, ring: Ring):
    """A scalar with conj(x) = -x (the diagonal of an anti-Hermitian)."""
    if ring in (RING_RATIONAL, RING_QSQRT2):
        return ring.zero
    if ring is RING_GAUSS_SQRT5:
        return GaussSqrt5(0, 0, rng.randrange(-3, 4), rng.randrange(-2, 3),
                          rng.randrange(1, 4))
    if ring is RING_QUAT_SQRT5:
        z = QSqrt5(0, 0)
        return Quaternion(z, QSqrt5(random_fraction(rng), 0),
                          QSqrt5(random_fraction(rng), 0),
                          QSqrt5(random_fraction(rng), 0))
    raise ParadoxError(f"no sampler for ring {ring.name}")


def random_anti_hermitian(n: int, ring: Ring, rng: random.Random) -> Matrix:
    rows = [[ring.zero] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = _imaginary_scalar(rng, ring)
        for j in range(i + 1, n):
            x = random_scalar(rng, ring)
            rows[i][j] = x
            rows[j][i] = -x.conjugate()
    return Matrix(tuple(tuple(r) for r in rows))


def random_unitary(n: int, ring: Ring, rng: random.Random) -> Matrix:
    """Cayley transform of a random anti-Hermitian: exactly unitary.

    Over the real backends this lands in SO(n) (the Cayley image of skew
    matrices), over C in U(n), over H in Sp(n).
    """
    return cayley_unitary(random_anti_hermitian(n, ring, rng))


def generating_set(n: int, ring: Ring) -> tuple:
    """A finite set S of exact n x n unitaries over the ring, closed under
    inverses, whose group is dense in SO(n), U(n) or Sp(n).

    S holds the Givens rotations with cosine 3/5 and sine +-4/5 in every
    coordinate plane; over Q(sqrt5, i) also the diagonal phases (3 +- 4i)/5
    at each coordinate, and over the quaternions the phases (3 +- 4i)/5 and
    (3 +- 4j)/5. arccos(3/5) is no rational multiple of pi (Niven), so the
    powers of each element are dense in its one-parameter subgroup, and
    those subgroups generate the group. SO(1) is the identity alone, so
    over a real ring at n = 1 S is {I}. Built on first use, once per ring
    name and n.
    """
    return _generating_set(ring.name, n)


@cache
def _generating_set(ring_name: str, n: int) -> tuple:
    ring = RINGS[ring_name]
    cos, sin = (ring.from_rational(Fraction(x, 5)) for x in (3, 4))

    def identity_with(entries):
        return Matrix(tuple(entries.get((i, j), ring.one if i == j
                                        else ring.zero)
                            for j in range(n)) for i in range(n))

    out = [identity_with({(i, i): cos, (j, j): cos, (i, j): -s, (j, i): s})
           for i in range(n) for j in range(i + 1, n) for s in (sin, -sin)]
    phases = []
    if ring_name == "gauss_sqrt5":
        phases = [GaussSqrt5(3, 0, c, 0, 5) for c in (4, -4)]
    elif ring_name.startswith("quat"):
        a, b = (ring.one.w * Fraction(x, 5) for x in (3, 4))
        z = a - a
        phases = [Quaternion(a, s, z, z) for s in (b, -b)]
        phases += [Quaternion(a, z, s, z) for s in (b, -b)]
    out += [identity_with({(i, i): p}) for i in range(n) for p in phases]
    return tuple(out) or (identity_with({}),)


def _random_span(n: int, k: int, ring: Ring, rng: random.Random):
    """(vectors, span): k vectors of n ``random_scalar`` entries, redrawn
    until they are linearly independent, and their span."""
    while True:
        cols = [tuple(random_scalar(rng, ring) for _ in range(n))
                for _ in range(k)]
        if not any(cols[0]):
            continue
        try:
            return cols, Subspace.from_basis(cols)
        except RankDeficientError:
            continue


def random_subspace(n: int, k: int, ring: Ring,
                    rng: random.Random) -> Subspace:
    """The span of k random vectors of ``random_scalar`` entries, redrawn
    until they are independent."""
    return _random_span(n, k, ring, rng)[1]


def random_projective_point(n: int, ring: Ring,
                            rng: random.Random) -> ProjectivePoint:
    while True:
        v = tuple(random_scalar(rng, ring) for _ in range(n))
        if any(v):
            return ProjectivePoint.from_vector(v)


def random_sphere_point(ambient: int, rng: random.Random) -> SpherePoint:
    """Integer-vector ray."""
    while True:
        v = tuple(rng.randrange(-9, 10) for _ in range(ambient))
        if any(v):
            return SpherePoint.from_vector(v)


def random_flag(dims, n: int, ring: Ring, rng: random.Random) -> FlagPoint:
    """The flag of proper dimensions dims spanned by the leading vectors of
    dims[-1] random vectors of ``random_scalar`` entries, redrawn until
    they are independent."""
    cols, top = _random_span(n, dims[-1], ring, rng)
    return FlagPoint([Subspace.from_basis(cols[:d]) for d in dims[:-1]]
                     + [top])
