"""The orbits of the lattice's 16 isometries, in split coordinates.

In x = 2 lam - delta, y = 2 mu - delta, z = delta the norm is
x^2 + y^2 + 10 z^2, and the isometries (a group isomorphic to D4 x {+-1})
are the signed permutations of (x, y) times the sign of z.  So every orbit
has exactly one point with 0 <= x <= y, z >= 0, its domain point, and the
orbit's data are closed forms in that point (`kernels.orbit_classes`
evaluates them on whole arrays).  The matrix group they are tested
against, and the closed forms one point at a time, are kept with the test
oracles in `tests/oracles.py`.
"""

from __future__ import annotations

from .lattice import Vec


def domain_point(v: Vec) -> Vec:
    """The split-coordinate point (x, y, z) of v's orbit with 0 <= x <= y, z >= 0."""
    lam, mu, delta = v
    x, y = abs(2 * lam - delta), abs(2 * mu - delta)
    return (min(x, y), max(x, y), abs(delta))


def same_orbit(v: Vec, w: Vec) -> bool:
    return domain_point(v) == domain_point(w)
