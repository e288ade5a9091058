"""The isometry group of the invariant lattice and its orbits.

The group is generated by -id together with

    rho1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]      (swap e and f)
    rho2 = [[1, 0, -1], [0, -1, 0], [0, 0, -1]]   (reflection)

acting on column vectors.  It closes to 16 elements, is isomorphic to
D4 x {+-1}, and every element carries delta to +-delta.
"""

from __future__ import annotations

from functools import lru_cache

from .lattice import GRAM, Mat3, Vec, mat_det

IDENTITY: Mat3 = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
NEG_IDENTITY: Mat3 = ((-1, 0, 0), (0, -1, 0), (0, 0, -1))
RHO1: Mat3 = ((0, 1, 0), (1, 0, 0), (0, 0, 1))
RHO2: Mat3 = ((1, 0, -1), (0, -1, 0), (0, 0, -1))

GENERATORS: tuple[Mat3, ...] = (NEG_IDENTITY, RHO1, RHO2)

_GROUP_BOUND = 64  # safety stop for the closure loop


def mat_mul(m: Mat3, n: Mat3) -> Mat3:
    return tuple(
        tuple(sum(m[i][k] * n[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )  # type: ignore[return-value]


def mat_vec(m: Mat3, v: Vec) -> Vec:
    return (
        m[0][0] * v[0] + m[0][1] * v[1] + m[0][2] * v[2],
        m[1][0] * v[0] + m[1][1] * v[1] + m[1][2] * v[2],
        m[2][0] * v[0] + m[2][1] * v[1] + m[2][2] * v[2],
    )


def is_isometry(m: Mat3) -> bool:
    """m^T G m == G with m integral and det +-1."""
    if mat_det(m) not in (1, -1):
        return False
    for i in range(3):
        for j in range(3):
            s = sum(m[k][i] * GRAM[k][l] * m[l][j] for k in range(3) for l in range(3))
            if s != GRAM[i][j]:
                return False
    return True


@lru_cache(maxsize=1)
def generate_group() -> tuple[Mat3, ...]:
    """Close the generators under multiplication.

    Each generator is checked to preserve the Gram matrix, and the closure
    is aborted if it exceeds the safety bound (the group has order 16).
    """
    for g in GENERATORS:
        if not is_isometry(g):
            raise AssertionError("generator does not preserve the gram matrix")
    group = {IDENTITY}
    frontier = [IDENTITY]
    while frontier:
        nxt = []
        for m in frontier:
            for g in GENERATORS:
                prod = mat_mul(g, m)
                if prod not in group:
                    group.add(prod)
                    nxt.append(prod)
        if len(group) > _GROUP_BOUND:
            raise RuntimeError("isometry group closure exceeded safety bound")
        frontier = nxt
    return tuple(sorted(group))


def orbit(v: Vec) -> set[Vec]:
    """All images of v under the 16 isometries."""
    return {mat_vec(m, v) for m in generate_group()}


def canonical_rep(v: Vec) -> Vec:
    """Deterministic orbit label: the lexicographically smallest member."""
    return min(orbit(v))


def same_orbit(v: Vec, w: Vec) -> bool:
    return w in orbit(v)
