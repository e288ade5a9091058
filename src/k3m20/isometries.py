"""The orbits of the lattice's 16 isometries, in split coordinates.

In x = 2 lam - delta, y = 2 mu - delta, z = delta the norm is
x^2 + y^2 + 10 z^2, and the isometries (a group isomorphic to D4 x {+-1})
are the signed permutations of (x, y) times the sign of z.  So every orbit
has exactly one point with 0 <= x <= y, z >= 0, its domain point, and the
orbit's data are closed forms in that point.  The matrix group they are
tested against is kept with the test oracles.
"""

from __future__ import annotations

from .lattice import Vec


def parity_lift(x: int, y: int, z: int) -> Vec:
    """Invert the unfolding: (x, y, z) -> (lam, mu, delta) = ((x+z)/2, (y+z)/2, z)."""
    if (x - z) % 2 or (y - z) % 2:
        raise ValueError("x, y, z must share one parity")
    return ((x + z) // 2, (y + z) // 2, z)


def domain_point(v: Vec) -> Vec:
    """The split-coordinate point (x, y, z) of v's orbit with 0 <= x <= y, z >= 0."""
    lam, mu, delta = v
    x, y = abs(2 * lam - delta), abs(2 * mu - delta)
    return (min(x, y), max(x, y), abs(delta))


def canonical_member(x: int, y: int, z: int) -> Vec:
    """The lexicographically smallest (lam, mu, delta) in the orbit of domain point (x, y, z).

    The members lift (+-x, +-y, +-z) and (+-y, +-x, +-z); lam, then mu, then
    delta is smallest for the lift of (-y, -x, -z).
    """
    return parity_lift(-y, -x, -z)


def orbit_size(x: int, y: int, z: int) -> int:
    """The size of the orbit of domain point (x, y, z): 16 over its stabiliser.

    The stabiliser is the sign of z when z = 0 times the signed permutations
    fixing (x, y): all 8 at the origin, 2 on an axis or the diagonal, else
    only the identity.
    """
    stabiliser = (1 if z else 2) * (8 if x == y == 0 else 2 if x == 0 or x == y else 1)
    return 16 // stabiliser


def canonical_rep(v: Vec) -> Vec:
    """Deterministic orbit label: the lexicographically smallest member."""
    return canonical_member(*domain_point(v))


def same_orbit(v: Vec, w: Vec) -> bool:
    return domain_point(v) == domain_point(w)
