"""The rank-3 invariant lattice: its Gram matrix, inner products and norms.

The lattice is Z^3 with basis (e, f, h) and Gram matrix

    [[ 4,  0, -2],
     [ 0,  4, -2],
     [-2, -2, 12]]

of determinant 160.  A vector is written by its coordinates
(lam, mu, delta) in this basis.  The quadratic form splits as

    norm(lam, mu, delta) = (2*lam - delta)**2 + (2*mu - delta)**2 + 10*delta**2,

so every norm is divisible by 4 and every inner product is even.
All arithmetic is over plain Python integers; nothing here overflows.
Orthogonal complements are computed in `kernels.orbit_classes`; the
one-vector reference is in `tests/oracles.py`.
"""

from __future__ import annotations

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
