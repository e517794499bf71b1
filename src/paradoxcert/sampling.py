"""Deterministic sampling of exact scalars, unitaries, points, subspaces.

All randomness flows through ``rng_for(seed, *path)``: a sha256 of the seed
and a structural path, so any two runs with the same seed draw identical
samples no matter how work is ordered.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

from .errors import ParadoxError
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


def random_subspace(n: int, k: int, ring: Ring,
                    rng: random.Random) -> Subspace:
    """Cayley-unitary image of the coordinate subspace span{e_1..e_k}."""
    u = random_unitary(n, ring, rng)
    return Subspace.from_basis([u.column(j) for j in range(k)])


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
    """Unitary image of the standard coordinate flag."""
    u = random_unitary(n, ring, rng)
    cols = [u.column(j) for j in range(n)]
    return FlagPoint(Subspace.from_basis(cols[:d]) for d in dims)
