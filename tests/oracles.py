"""Brute-force oracles the library is checked against.

None of these is on the library's path.  Each one answers a question the
library answers in closed form or by reduction, by plain search:

- `two_square_tables` / `representable_range`: which n have a vector of
  norm 4n, by a table scan of 4n - 10 delta^2 = x^2 + y^2 (checks the
  closed form `is_representable`);
- `unimodular_entries` / `transform_forms`: the forms a bounded SL2(Z)
  search reaches from (a, b, c) (checks Gauss reduction);
- `generate_group` / `orbit`: the 16 isometries as the closure of three
  3x3 matrices, and an orbit as the set of its images (checks the
  split-coordinate closed forms in `isometries`);
- `enumerate_solutions`: every vector of norm 4n, by a scan over delta and
  lam (checks the orbit walk `kernels.orbit_reps`);
- `orbit_class`: one orbit's invariants over python ints, one orbit at a
  time, through `lattice.orthogonal_complement` and
  `binary_forms.canonical` (checks the batched `kernels.orbit_classes`).

The range scan and the SL2(Z) search work in int64 numpy arrays; the group,
the enumeration and `orbit_class` work over python ints; callers keep the
inputs small.
"""

from __future__ import annotations

import math
from functools import lru_cache
from math import isqrt

import numpy as np

from k3m20.binary_forms import canonical, from_gram
from k3m20.isometries import canonical_member, orbit_size
from k3m20.lattice import GRAM, Mat3, Vec, divisibility, mat_det, norm, orthogonal_complement
from k3m20.polarizations import EnumerationAnomaly, OrbitClass, index_from


def two_square_tables(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """(even_ok, odd_ok) over 0..limit: m = x^2 + y^2 with x, y both even / both odd."""
    top = math.isqrt(limit)
    even_ok = np.zeros(limit + 1, dtype=np.bool_)
    odd_ok = np.zeros(limit + 1, dtype=np.bool_)
    esq = np.arange(0, top + 1, 2, dtype=np.int64) ** 2
    osq = np.arange(1, top + 1, 2, dtype=np.int64) ** 2
    for s in esq:
        rest = esq[esq <= limit - s]
        even_ok[s + rest] = True
    for s in osq:
        rest = osq[osq <= limit - s]
        odd_ok[s + rest] = True
    return even_ok, odd_ok


def representable_range(max_n: int) -> np.ndarray:
    """flags[n] for 0 <= n <= max_n: some vector has norm 4n (flags[0] is False)."""
    limit = 4 * max_n
    even_ok, odd_ok = two_square_tables(limit)
    flags = np.zeros(max_n + 1, dtype=np.bool_)
    ns = np.arange(0, max_n + 1, dtype=np.int64)
    for delta in range(math.isqrt(limit // 10) + 1):
        rest = 4 * ns - 10 * delta * delta
        valid = rest >= 0
        table = even_ok if delta % 2 == 0 else odd_ok
        flags[valid] |= table[rest[valid]]
    flags[0] = False
    return flags


def unimodular_entries(bound: int) -> np.ndarray:
    """All (p, q, r, s) with |entries| <= bound and ps - qr = 1, in lexicographic order."""
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    quads = np.stack(np.meshgrid(r, r, r, r, indexing="ij"), axis=-1).reshape(-1, 4)
    det = quads[:, 0] * quads[:, 3] - quads[:, 1] * quads[:, 2]
    return quads[det == 1]


def transform_forms(a: int, b: int, c: int, ts: np.ndarray) -> np.ndarray:
    """Images of the form (a, b, c) under each SL2 row (p, q, r, s) of ts, as (k, 3)."""
    p, q, r, s = ts[:, 0], ts[:, 1], ts[:, 2], ts[:, 3]
    a2 = a * p * p + b * p * r + c * r * r
    b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    c2 = a * q * q + b * q * s + c * s * s
    return np.stack([a2, b2, c2], axis=1)


# The isometry group of the invariant lattice is generated by -id together with
#
#     rho1 = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]      (swap e and f)
#     rho2 = [[1, 0, -1], [0, -1, 0], [0, 0, -1]]   (reflection)
#
# acting on column vectors.  It closes to 16 elements, is isomorphic to
# D4 x {+-1}, and every element carries delta to +-delta.

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


def enumerate_solutions(n: int) -> list[Vec]:
    """All lattice vectors of norm 4n, in lexicographic order.

    Exact over python ints for any n; the reference that
    `kernels.orbit_reps` is tested against.
    """
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    four_n = 4 * n
    out: list[Vec] = []
    dmax = isqrt(four_n // 10)
    for delta in range(-dmax, dmax + 1):
        rest = four_n - 10 * delta * delta
        x_top = isqrt(rest)
        for lam in range(-((x_top - delta) // 2), (x_top + delta) // 2 + 1):
            rem = rest - (2 * lam - delta) ** 2
            s = isqrt(rem)
            if s * s != rem or (s - delta) % 2 != 0:
                continue
            out.append((lam, (delta + s) // 2, delta))
            if s > 0:
                out.append((lam, (delta - s) // 2, delta))
    out.sort()
    assert all(norm(v) == four_n for v in out)
    return out


def orbit_class(n: int, x: int, y: int, z: int) -> OrbitClass:
    """The orbit of the split-coordinate point (x, y, z) and its invariants.

    (x, y, z) must be the orbit's domain point, 0 <= x <= y, z >= 0 (see
    `isometries`).
    """
    if not (0 <= x <= y and z >= 0 and (x - z) % 2 == (y - z) % 2 == 0):
        raise EnumerationAnomaly(n, f"({x}, {y}, {z}) is outside the fundamental domain")
    if x * x + y * y + 10 * z * z != 4 * n:
        raise EnumerationAnomaly(n, f"({x}, {y}, {z}) does not have norm {4 * n}")
    rep = canonical_member(x, y, z)
    r, root = divisibility(rep)
    _, gram = orthogonal_complement(rep)
    tx = canonical(from_gram(gram))
    d = tx.discriminant
    idx = index_from(n, d)
    return OrbitClass(
        canonical=rep,
        orbit_size=orbit_size(x, y, z),
        divisibility=r,
        primitive_root=root,
        tx=tx,
        discriminant=d,
        index=idx,
    )
