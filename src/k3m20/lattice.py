"""The rank-3 invariant lattice and its integral linear algebra.

The lattice is Z^3 with basis (e, f, h) and Gram matrix

    [[ 4,  0, -2],
     [ 0,  4, -2],
     [-2, -2, 12]]

of determinant 160.  A vector is written by its coordinates
(lam, mu, delta) in this basis.  The quadratic form splits as

    norm(lam, mu, delta) = (2*lam - delta)**2 + (2*mu - delta)**2 + 10*delta**2,

so every norm is divisible by 4 and every inner product is even.
All arithmetic is over plain Python integers; nothing here overflows.
"""

from __future__ import annotations

from math import gcd

Vec = tuple[int, int, int]
Mat3 = tuple[Vec, Vec, Vec]
Gram2 = tuple[tuple[int, int], tuple[int, int]]

GRAM: Mat3 = ((4, 0, -2), (0, 4, -2), (-2, -2, 12))
GRAM_DET = 160


class ComplementAnomaly(ValueError):
    """A computed complement basis vector is not orthogonal to its vector."""


class NormAnomaly(ValueError):
    """A norm disagrees with the value an identity of the lattice requires."""


def mat_det(m: Mat3) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def _check_gram() -> None:
    # symmetric, even, positive definite (leading minors 4, 16, 160), det 160
    for i in range(3):
        for j in range(3):
            if GRAM[i][j] != GRAM[j][i]:
                raise AssertionError("gram matrix must be symmetric")
    minors = (GRAM[0][0], GRAM[0][0] * GRAM[1][1] - GRAM[0][1] ** 2, mat_det(GRAM))
    if not all(m > 0 for m in minors):
        raise AssertionError("gram matrix must be positive definite")
    if minors[2] != GRAM_DET:
        raise AssertionError("gram determinant must be 160")


_check_gram()


def gram_apply(v: Vec) -> Vec:
    """G*v as a coordinate vector (the functional w -> <v, w>)."""
    return (
        GRAM[0][0] * v[0] + GRAM[0][1] * v[1] + GRAM[0][2] * v[2],
        GRAM[1][0] * v[0] + GRAM[1][1] * v[1] + GRAM[1][2] * v[2],
        GRAM[2][0] * v[0] + GRAM[2][1] * v[1] + GRAM[2][2] * v[2],
    )


def inner(v: Vec, w: Vec) -> int:
    """<v, w> = v^T G w.  Always even."""
    gw = gram_apply(w)
    return v[0] * gw[0] + v[1] * gw[1] + v[2] * gw[2]


def _norm_split(v: Vec) -> int:
    lam, mu, delta = v
    return (2 * lam - delta) ** 2 + (2 * mu - delta) ** 2 + 10 * delta**2


def norm(v: Vec) -> int:
    """<v, v>.  Always a nonnegative multiple of 4."""
    n = inner(v, v)
    split = _norm_split(v)
    if n != split:
        raise NormAnomaly(
            f"norm anomaly: {v} has norm {n} by the Gram matrix but {split} by the split form"
        )
    return n


def is_primitive(v: Vec) -> bool:
    """True when gcd of the coordinates is 1.  The zero vector is rejected."""
    r = gcd(gcd(v[0], v[1]), v[2])
    if r == 0:
        raise ValueError("zero vector has no primitivity")
    return r == 1


def divisibility(v: Vec) -> tuple[int, Vec]:
    """Split v = r * v0 with r = gcd of coordinates and v0 primitive."""
    r = gcd(gcd(v[0], v[1]), v[2])
    if r == 0:
        raise ValueError("zero vector has no primitivity")
    return r, (v[0] // r, v[1] // r, v[2] // r)


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def check_gram2(g: Gram2) -> None:
    """Validate a 2x2 Gram matrix of an even positive definite sublattice.

    Raises ValueError naming the violated condition.
    """
    (g11, g12), (g21, g22) = g
    if g12 != g21:
        raise ValueError("gram matrix is not symmetric")
    if g11 % 4 or g22 % 4:
        raise ValueError("diagonal entries must be divisible by 4")
    if g12 % 2:
        raise ValueError("off-diagonal entry must be even")
    if g11 <= 0 or g11 * g22 - g12 * g12 <= 0:
        raise ValueError("gram matrix is not positive definite")


def orthogonal_complement(v: Vec) -> tuple[tuple[Vec, Vec], Gram2]:
    """Basis and Gram matrix of the saturated rank-2 lattice orthogonal to v.

    The complement is the kernel of the functional w -> <v, w>, i.e. of the
    integer row G*v divided by its content.  A basis (u1, u2) of that kernel
    is produced by extended gcd; u1 x u2 = +-p with p primitive certifies
    saturation.
    """
    if v == (0, 0, 0):
        raise ValueError("zero vector has no orthogonal complement of rank 2")
    w = gram_apply(v)
    g = gcd(gcd(w[0], w[1]), w[2])
    p = (w[0] // g, w[1] // g, w[2] // g)
    a, b, c = p
    gab = gcd(a, b)
    if gab == 0:
        # p = (0, 0, +-1)
        u1: Vec = (1, 0, 0)
        u2: Vec = (0, 1, 0)
    else:
        _, s, t = _xgcd(a, b)
        u1 = (-b // gab, a // gab, 0)
        u2 = (c * s, c * t, -gab)
    if inner(v, u1) or inner(v, u2):
        raise ComplementAnomaly(f"complement anomaly: {u1}, {u2} are not both orthogonal to {v}")
    gram: Gram2 = (
        (inner(u1, u1), inner(u1, u2)),
        (inner(u2, u1), inner(u2, u2)),
    )
    check_gram2(gram)
    return (u1, u2), gram
