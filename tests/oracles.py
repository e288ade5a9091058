"""Exact references and brute-force oracles the library is checked against.

None of these is on the library's path.  Each one answers a question the
library answers in closed form, by reduction or in numpy blocks, by plain
search or one value at a time over python ints:

- `two_square_tables` / `representable_range`: which n have a vector of
  norm 4n, by a table scan of 4n - 10 delta^2 = x^2 + y^2 (checks the
  closed form `is_representable`); `is_prime` (trial division) and
  `_two_squares` (brute force), with `two_squares` their checked entry,
  find the primes p = 1 (mod 4) and their splits p = lam^2 + mu^2 (check
  `representability.prime_witnesses`, which sieves and splits them by
  Hermite-Serret); `trial_division_hits` finds the odd primes of
  4n - 10 z^2 by the remainder of every pair (checks `twosquares._hits`,
  which sieves them from roots mod p);
- `orbit_order`, `class_columns` and `distinct_forms`: the orbit order, the
  class grouping and `scan`'s distinct forms by multi-key `np.lexsort`
  (check the package's sorts, each a stable argsort of one int64 key);
- `unimodular_entries` / `transform_forms`: the forms a bounded SL2(Z)
  search reaches from (a, b, c) (checks Gauss reduction);
- `generate_group` / `orbit`: the 16 isometries as the closure of three
  3x3 matrices, and an orbit as the set of its images (checks
  `lattice.domain_point` and the split-coordinate closed forms);
  `mat_det` and `GRAM_DET` pin the Gram matrix's determinant;
  `parity_lift`, `canonical_member`, `orbit_size` and `canonical_rep` are
  those closed forms one orbit at a time (`kernels.orbit_classes` evaluates
  them on whole arrays), and `same_orbit` compares two vectors' domain
  points;
- `enumerate_solutions`: every vector of norm 4n, by a scan over delta and
  lam (checks the orbit walk `kernels.orbit_reps`), and `degree_points`,
  the domain points of norm 4n by a scan over z and x, pinned to it
  (checks `twosquares.degree_reps` and each degree of the walk);
- the one-vector lattice algebra `is_primitive`, `divisibility`, `_xgcd`,
  `check_gram2` and `orthogonal_complement`, and the one-form Gauss
  reduction `from_gram`, `transform`, `reduce`, `canonical` and
  `equivalent` with its SL2(Z) witness, on the form records
  `EvenBinaryForm` and `ReducedForm`;
- `orbit_class`: one orbit's invariants over python ints, one orbit at a
  time, through `orthogonal_complement` and `canonical`, as an
  `OrbitClass` record (checks the batched `kernels.orbit_classes`);
- `div_feasible`: the obstruction equation target = n alpha^2 d m by
  search (checks the closed form t = 1, t | 2, t | 3 of
  `polarizations.class_table`), `index_from`, the sublattice index of
  one (n, d) from d I^2 = 160 n (checks the index column that
  `orbit_classes` reads off each point), and `quadric_count_parts`, the two counts
  whose difference is `quadric_count`;
- `class_statuses`: one class's (base-point, hyperelliptic, quadrics)
  statuses by branches, and `table_statuses` every row's, one row at a
  time (check `polarizations.status_columns` and the reports' statuses);
- `table_output`: the stdout of `table` rendered one row at a time (checks
  the CLI's chunked one-`%` rendering); `parse_table_csv` reads
  `table --format csv` back into integer rows;
  `report_to_dict` and `scan_to_dict` are the json payloads of `classify`
  and `scan`, whose `json.dumps(..., indent=2)` the CLI's templates must
  print byte for byte; `report_to_dict` is built from `orbit_class` and
  `div_feasible`, and `scan_to_dict`'s witnesses from `two_squares`,
  sharing no code with the package's reports.
- `documented_corrections`: the misprinted published values that
  `golden.GOLDEN_ROWS` keeps in its `printed_*` fields.

The range scan and the SL2(Z) search work in int64 numpy arrays; the group,
the enumeration and the one-orbit references work over python ints;
callers keep the inputs small.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd, isqrt

import numpy as np

from k3m20 import __version__, polarizations
from k3m20.cli import CSV_HEADER
from k3m20.golden import GOLDEN_ROWS
from k3m20.kernels import ReductionAnomaly
from k3m20.lattice import GRAM, ComplementAnomaly, Vec, domain_point, inner, norm
from k3m20.polarizations import (
    DOUBLED,
    FEASIBLE,
    INFEASIBLE,
    KNOWN_MODEL,
    ClassTable,
    EnumerationAnomaly,
    IndexAnomaly,
    class_table,
)
from k3m20.twosquares import _odd_primes


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

Mat3 = tuple[Vec, Vec, Vec]
Gram2 = tuple[tuple[int, int], tuple[int, int]]

GRAM_DET = 160

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


def mat_det(m: Mat3) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


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


def degree_points(n: int) -> np.ndarray:
    """The domain points (x, y, z) of norm 4n, ordered by z, then x, as a (k, 3) int64 array.

    For each z it takes the x of z's parity with 2 x^2 <= m = 4n - 10 z^2,
    and keeps y = sqrt(m - x^2) when that is an integer of z's parity; so
    0 <= x <= y and x = y = z (mod 2).  Exact over python ints.
    """
    points = []
    for z in range(isqrt(4 * n // 10) + 1):
        m = 4 * n - 10 * z * z
        for x in range(z % 2, isqrt(m // 2) + 1, 2):
            y = isqrt(m - x * x)
            if y * y == m - x * x and (y - z) % 2 == 0:
                points.append((x, y, z))
    return np.array(points, dtype=np.int64).reshape(-1, 3)


# ---------------------------------------------------------------------------
# the lattice, one vector at a time (checks kernels.orbit_classes' complement)


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
    w = mat_vec(GRAM, v)
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


# ---------------------------------------------------------------------------
# binary forms: Gauss reduction of one form with its SL2(Z) witness (checks kernels._reduce)


@dataclass(frozen=True)
class EvenBinaryForm:
    """Triple (a, b, c) for the even Gram matrix [[4a, 2b], [2b, 4c]]."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.c <= 0 or self.discriminant <= 0:
            raise ValueError("form must be positive definite")

    @property
    def discriminant(self) -> int:
        return 4 * self.a * self.c - self.b * self.b

    @property
    def gram(self) -> Gram2:
        return ((4 * self.a, 2 * self.b), (2 * self.b, 4 * self.c))

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def is_reduced(self) -> bool:
        return -self.a < self.b <= self.a <= self.c


@dataclass(frozen=True)
class ReducedForm(EvenBinaryForm):
    """An EvenBinaryForm satisfying -a < b <= a <= c."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_reduced():
            raise ValueError("form is not reduced")
        # b^2 <= ac, that is 3ac <= d, for any reduced positive form
        if self.b * self.b > self.a * self.c:
            raise ReductionAnomaly(f"reduction anomaly: reduced form {self.triple()} breaks b^2 <= ac")


Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY2: Mat2 = ((1, 0), (0, 1))


def from_gram(gram: Gram2) -> EvenBinaryForm:
    """Read (a, b, c) off an even positive definite 2x2 Gram matrix."""
    check_gram2(gram)
    return EvenBinaryForm(gram[0][0] // 4, gram[0][1] // 2, gram[1][1] // 4)


def _mat2_mul(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def transform(form: EvenBinaryForm, t: Mat2) -> EvenBinaryForm:
    """The form of the basis change by t in SL2(Z): x -> p x' + q y', y -> r x' + s y'."""
    (p, q), (r, s) = t
    if p * s - q * r != 1:
        raise ValueError("transform must have determinant 1")
    a, b, c = form.a, form.b, form.c
    return EvenBinaryForm(
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def reduce(form: EvenBinaryForm) -> tuple[ReducedForm, Mat2]:
    """Gauss-reduce, returning (reduced, t) with t^T Gram(form) t = Gram(reduced).

    Normalisation shifts b into (-a, a] by b -> b + 2ka; when a > c the swap
    (a, b, c) -> (c, -b, a) applies.  Each swap strictly drops a, so the loop
    terminates.
    """
    a, b, c = form.a, form.b, form.c
    t: Mat2 = IDENTITY2
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
            t = _mat2_mul(t, ((1, k), (0, 1)))
        if a > c:
            a, b, c = c, -b, a
            t = _mat2_mul(t, ((0, -1), (1, 0)))
        elif -a < b <= a:
            break
    reduced = ReducedForm(a, b, c)
    if transform(form, t).triple() != reduced.triple():
        raise ReductionAnomaly(
            f"reduction anomaly: witness {t} does not carry {form.triple()} to {reduced.triple()}"
        )
    return reduced, t


def canonical(form: EvenBinaryForm) -> ReducedForm:
    """Class label: the reduced form with b >= 0 in the exceptional cases."""
    r, _ = reduce(form)
    if r.b < 0 and (r.b == -r.a or r.a == r.c):
        return ReducedForm(r.a, -r.b, r.c)
    return r


def equivalent(f1: EvenBinaryForm, f2: EvenBinaryForm) -> bool:
    """SL2(Z)-equivalence of forms."""
    return canonical(f1).triple() == canonical(f2).triple()


# ---------------------------------------------------------------------------
# the orbit model of one domain point (checks orbit_classes' canonical member and size)


def parity_lift(x: int, y: int, z: int) -> Vec:
    """Invert the unfolding: (x, y, z) -> (lam, mu, delta) = ((x+z)/2, (y+z)/2, z)."""
    if (x - z) % 2 or (y - z) % 2:
        raise ValueError("x, y, z must share one parity")
    return ((x + z) // 2, (y + z) // 2, z)


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
    """Whether v and w lie in one orbit of the 16 isometries: they share a domain point."""
    return domain_point(v) == domain_point(w)


# ---------------------------------------------------------------------------
# representability, obstruction search and quadric counts


def is_prime(n: int) -> bool:
    """Trial division; inputs here are small."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def _two_squares(p: int) -> tuple[int, int]:
    """The essentially unique (lam, mu) with lam^2 + mu^2 = p, lam <= mu,
    for a p already known to be a prime congruent to 1 mod 4; found by brute force."""
    lam = 1
    while 2 * lam * lam <= p:
        rem = p - lam * lam
        mu = isqrt(rem)
        if mu * mu == rem:
            return lam, mu
        lam += 1
    raise AssertionError("two-square decomposition must exist")  # pragma: no cover


def two_squares(p: int) -> tuple[int, int]:
    """The essentially unique (lam, mu) with lam^2 + mu^2 = p, lam <= mu.

    Requires p prime with p = 1 (mod 4); found by brute force.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError("need a prime congruent to 1 mod 4")
    return _two_squares(p)


# the remainders of every (m, prime) pair in tiles of this many entries
_TILE = 2**13


def trial_division_hits(n: int, m: np.ndarray) -> tuple[np.ndarray, ...]:
    """(i, p, e, p^e): every odd prime p <= sqrt(4n) that divides m[i], to the
    power e, ordered by i and p, for values m = 4n - 10 z^2 > 0.

    Tests the remainder of every pair of an m and a prime p with 10 z^2 = 4n
    solvable mod p (p | n, or 10 n a square mod p by Euler's criterion), in
    tiles of `_TILE` entries, and divides each hit out while it divides
    (checks `twosquares._hits`, which sieves the hits from roots mod p).
    """
    primes = np.array(
        [p for p in _odd_primes(isqrt(4 * n)).tolist() if n % p == 0 or pow(10 * n, (p - 1) // 2, p) == 1],
        dtype=np.int64,
    )
    width = max(1, _TILE // len(m))
    hits = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))]
    for p0 in range(0, len(primes), width):
        tile = primes[p0 : p0 + width]
        hit = np.flatnonzero(m % tile[:, None] == 0)
        hits.append((hit % len(m), tile[hit // len(m)]))
    i, p = (np.concatenate(h) for h in zip(*hits))
    order = np.lexsort((p, i))
    i, p = i[order], p[order]
    cof, e = m[i], np.zeros_like(p)
    live = np.arange(len(p))
    while live.size:
        q = cof[live] // p[live]
        exact = q * p[live] == cof[live]
        live = live[exact]
        cof[live] = q[exact]
        e[live] += 1
    return i, p, e, m[i] // cof


def orbit_order(reps: np.ndarray) -> np.ndarray:
    """The order of orbit points (x, y, z) by degree, then by canonical member
    ((-y - z) / 2, (-x - z) / 2, -z), by a 4-key np.lexsort (checks the
    one-key sort of `polarizations._orbit_rows`)."""
    x, y, z = reps.T
    return np.lexsort((-z, -x - z, -y - z, x * x + y * y + 10 * z * z))


def class_columns(ns: np.ndarray, rows: np.ndarray) -> dict[str, np.ndarray]:
    """The class table's columns n, lam, mu, delta, a, b, c, d, index and odd
    from orbit rows ordered by degree and canonical member, grouped by
    (n, a, b, c) by a 4-key np.lexsort, each class's first orbit giving its
    row (checks `polarizations._classes`, which groups by (n, a, b, -I))."""
    order = np.lexsort((rows[:, 7], rows[:, 6], rows[:, 5], ns))
    n, forms = ns[order], rows[order, 5:8]
    first = np.ones(len(n), dtype=bool)
    first[1:] = (n[1:] != n[:-1]) | (forms[1:] != forms[:-1]).any(axis=1)
    starts = np.flatnonzero(first)
    lam, mu, delta, _, _, a, b, c, d, index = rows[order[starts]].T
    odd = np.logical_or.reduceat(rows[order, 4] % 2 == 1, starts)
    return dict(n=n[starts], lam=lam, mu=mu, delta=delta, a=a, b=b, c=c, d=d, index=index, odd=odd)


def distinct_forms(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The distinct forms (a, b, c) in increasing order, as rows, by a 3-key
    np.lexsort (checks the one-key sort of `scan`)."""
    forms = np.column_stack((a, b, c))[np.lexsort((c, b, a))]
    first = np.ones(len(forms), dtype=bool)
    first[1:] = (forms[1:] != forms[:-1]).any(axis=1)
    return forms[first]


def index_from(n: int, d: int) -> int:
    """Sublattice index I with d * I^2 = 160 n; anomaly unless square.

    The complement of a degree-4n vector has index I in the full orthogonal
    sublattice of the vector, and n d = 10 t^2 for the same reason; both
    must be exact squares, or IndexAnomaly is raised.  (A square 160 n / d
    implies a square n d / 10, not conversely, so the second is checked
    first: then each check can fire alone.)
    """
    if n < 1 or d < 1:
        raise ValueError("need positive n and d")
    if (n * d) % 10 or isqrt(n * d // 10) ** 2 * 10 != n * d:
        raise IndexAnomaly(n, d, f"n*d = {n * d} is not 10 times a square")
    num = 160 * n
    i = isqrt(num // d)
    if num % d or i * i * d != num:
        raise IndexAnomaly(n, d, f"index anomaly: 160*{n}/{d} is not a perfect square")
    return i


def quadric_count_parts(n: int) -> tuple[int, int]:
    """(quadrics in the ambient P^(2n+1), sections of the doubled class).

    Their difference is quadric_count: C(2n+3, 2) - (2 + 8n).
    """
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    return comb(2 * n + 3, 2), 8 * n + 2


def div_feasible(target: int, n: int, d: int) -> bool:
    """Is target = n * alpha^2 * d * m solvable with integers alpha, m >= 1?"""
    if target < 1 or n < 1 or d < 1:
        raise ValueError("need positive arguments")
    base = n * d
    alpha = 1
    while base * alpha * alpha <= target:
        if target % (base * alpha * alpha) == 0:
            return True
        alpha += 1
    return False


def class_statuses(
    n: int, d: int, div1: bool, div2: bool, eq90: bool, odd: bool
) -> tuple[str, str, str]:
    """The (base-point, hyperelliptic, quadrics) statuses of one transcendental
    class of degree 4n and discriminant d, from its obstruction feasibility
    (see ClassTable) and whether some orbit of it has odd divisibility.

    A class of a prior model is a known model; a class of a doubled degree
    whose orbits all have even divisibility is a doubled polarization for
    the hyperelliptic check; any other solvable equation is FEASIBLE.
    The prior models are read from the module at each call, so that a test
    may replace them.
    """
    prior = (n, d) in polarizations.PRIOR_MODELS
    doubled = n in polarizations.DOUBLED_DEGREES and not odd
    bp = KNOWN_MODEL if prior else FEASIBLE if div1 else INFEASIBLE
    hyp = KNOWN_MODEL if prior else DOUBLED if doubled else FEASIBLE if div2 else INFEASIBLE
    return bp, hyp, FEASIBLE if eq90 else INFEASIBLE


def table_statuses(table: ClassTable) -> list[tuple[str, str, str]]:
    """The class_statuses of every row of a class table, one row at a time."""
    columns = (table.n, table.d, table.div1, table.div2, table.eq90, table.odd)
    return [class_statuses(*row) for row in zip(*(col.tolist() for col in columns))]


# ---------------------------------------------------------------------------
# the table's output, and the csv table read back


def table_output(max_n: int, fmt: str) -> str:
    """The stdout of `table --max-n max_n --format fmt`, rendered one row at a
    time: a tuple per class row, then a string per row (json by json.dumps)."""
    table = class_table(max_n)
    n = table.n.tolist()
    q = [total - removed for total, removed in map(quadric_count_parts, n)]
    columns = (table.a, table.b, table.c, table.lam, table.mu, table.delta, table.index)
    rows = list(zip(n, [4 * k for k in n], q, *(col.tolist() for col in columns)))
    keys = CSV_HEADER.split(",")
    if fmt == "json":
        return json.dumps([dict(zip(keys, row)) for row in rows], indent=2) + "\n"
    sep = "," if fmt == "csv" else "\t"
    lines = [sep.join(keys), *(sep.join(map(str, row)) for row in rows)]
    if fmt == "text":
        lines.insert(0, f"k3m20 {__version__}")
    return "\n".join(lines) + "\n"


def parse_table_csv(text: str) -> list[tuple[int, ...]]:
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER.split(","):
        raise ValueError("bad csv header")
    return [tuple(int(x) for x in row) for row in reader if row]


def report_to_dict(n: int) -> dict:
    """The json payload of `classify --n n`: orbit_class on every domain point
    of norm 4n that degree_points finds, ordered by canonical member, and the
    obstruction flags by div_feasible's search over the degree's classes."""
    orbits = sorted((orbit_class(n, *point) for point in degree_points(n).tolist()), key=lambda o: o.canonical)
    discriminants = {o.discriminant for o in orbits}
    total, removed = quadric_count_parts(n)
    return {
        "n": n,
        "l_squared": 4 * n,
        "representable": bool(orbits),
        "orbits": [
            {
                "canonical": list(o.canonical),
                "orbit_size": o.orbit_size,
                "divisibility": o.divisibility,
                "tx": {"a": o.tx.a, "b": o.tx.b, "c": o.tx.c},
                "discriminant": o.discriminant,
                "index": o.index,
            }
            for o in orbits
        ],
        "quadric_count": total - removed,
        "ambient_dim": 2 * n + 1,
        "feasibility": {
            key: any(div_feasible(target, n, d) for d in discriminants)
            for key, target in (("div1", 10), ("div2", 40), ("eq90", 90))
        },
    }


def scan_to_dict(max_n: int) -> dict:
    """The json payload of `scan --max-n max_n`."""
    table = class_table(max_n)
    non_rep = sorted(set(range(1, max_n + 1)) - set(table.n.tolist()))
    classes = sorted(set(zip(table.a.tolist(), table.b.tolist(), table.c.tolist())))
    witnesses = [(p, (*two_squares(p), 0)) for p in range(5, max_n + 1, 4) if is_prime(p)]
    inconsistent = {n for n, s in zip(table.n.tolist(), table_statuses(table)) if FEASIBLE in s}
    return {
        "max_n": max_n,
        "representable_count": max_n - len(non_rep),
        "non_representable": non_rep,
        "tx_class_count": len(classes),
        "tx_classes": [list(c) for c in classes],
        "anomalies": len(inconsistent),
        "prime_witnesses": [[p, list(v)] for p, v in witnesses],
    }


# ---------------------------------------------------------------------------
# the published table's errata


def documented_corrections() -> tuple[tuple[int, tuple[int, int, int], str], ...]:
    """(n, published form, field) for every misprint golden.GOLDEN_ROWS keeps in a printed_* field."""
    out: list[tuple[int, tuple[int, int, int], str]] = []
    for row in GOLDEN_ROWS:
        for field, printed in (
            ("q", row.printed_q),
            ("form", row.printed_form),
            ("index", row.printed_index),
        ):
            if printed is not None:
                out.append((row.n, row.printed_form or row.form, field))
    return tuple(out)


# ---------------------------------------------------------------------------
# one orbit's invariants


@dataclass(frozen=True)
class OrbitClass:
    """One isometry orbit of solution vectors and its derived invariants."""

    canonical: Vec
    orbit_size: int
    divisibility: int
    primitive_root: Vec
    tx: ReducedForm
    discriminant: int
    index: int


def orbit_class(n: int, x: int, y: int, z: int) -> OrbitClass:
    """The orbit of the split-coordinate point (x, y, z) and its invariants.

    (x, y, z) must be the orbit's domain point, 0 <= x <= y, z >= 0 (see
    `lattice`).
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
