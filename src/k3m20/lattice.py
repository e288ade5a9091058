"""The rank-3 invariant lattice: its Gram matrix, norms and isometry orbits.

The lattice is Z^3 with basis (e, f, h) and Gram matrix

    [[ 4,  0, -2],
     [ 0,  4, -2],
     [-2, -2, 12]]

of determinant 160.  A vector is written by its coordinates
(lam, mu, delta) in this basis.  The quadratic form splits as

    norm(lam, mu, delta) = (2*lam - delta)**2 + (2*mu - delta)**2 + 10*delta**2,

so every norm is divisible by 4 and every inner product is even.
All arithmetic is over plain Python integers; nothing here overflows.

In the split coordinates x = 2 lam - delta, y = 2 mu - delta, z = delta the
16 isometries (a group isomorphic to D4 x {+-1}) are the signed
permutations of (x, y) times the sign of z.  So every orbit has exactly one
point with 0 <= x <= y, z >= 0, its domain point, and the orbit's data,
its orthogonal complement among them, are closed forms in that point
(`kernels.orbit_classes` evaluates them on whole arrays).  The one-vector
references, and the matrix group the orbits are tested against, are in
`tests/oracles.py`.
"""

from __future__ import annotations

Vec = tuple[int, int, int]

GRAM = ((4, 0, -2), (0, 4, -2), (-2, -2, 12))


class ComplementAnomaly(ValueError):
    """A computed complement basis vector is not orthogonal to its vector."""


class NormAnomaly(ValueError):
    """A norm disagrees with the value an identity of the lattice requires."""


def inner(v: Vec, w: Vec) -> int:
    """<v, w> = v^T G w.  Always even."""
    return sum(v[i] * GRAM[i][j] * w[j] for i in range(3) for j in range(3))


def norm(v: Vec) -> int:
    """<v, v>.  Always a nonnegative multiple of 4."""
    n = inner(v, v)
    lam, mu, delta = v
    split = (2 * lam - delta) ** 2 + (2 * mu - delta) ** 2 + 10 * delta**2
    if n != split:
        raise NormAnomaly(
            f"norm anomaly: {v} has norm {n} by the Gram matrix but {split} by the split form"
        )
    return n


def domain_point(v: Vec) -> Vec:
    """The split-coordinate point (x, y, z) of v's orbit with 0 <= x <= y, z >= 0."""
    lam, mu, delta = v
    x, y = abs(2 * lam - delta), abs(2 * mu - delta)
    return (min(x, y), max(x, y), abs(delta))
