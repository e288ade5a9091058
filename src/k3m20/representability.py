"""Which degrees 4n embed into the invariant lattice.

norm(lam, mu, delta) = 4n unfolds, via x = 2 lam - delta, y = 2 mu - delta,
z = delta, to

    4n = x^2 + y^2 + 10 z^2     with x = y = z (mod 2),

and the parity constraint is automatic: x^2 + y^2 + 10 z^2 = 0 (mod 4)
forces x, y, z all even or all odd.  The ternary form x^2 + y^2 + 10 z^2
misses exactly the integers 4^i (16 j + 6), so 4n is representable iff
n is not of the form 4^i (16 j + 6).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from . import kernels
from .lattice import Vec, norm

# largest n accepted by orbit_reps: 4n <= 2**62, so every square, sum and
# difference formed while walking norms up to 4n is exact in int64
MAX_N = 2**60
# (z, x) pairs per numpy block in orbit_reps; bounds its working memory
_CHUNK = 2**13


def is_representable(n: int) -> bool:
    """Closed form: strip factors of 4, reject residue 6 mod 16."""
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    m = n
    while m % 4 == 0:
        m //= 4
    return m % 16 != 6


def enumerate_solutions(n: int) -> list[Vec]:
    """All lattice vectors of norm 4n, in lexicographic order.

    Exact over python ints for any n; the reference that `orbit_reps` is
    tested against.
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


def _isqrt_np(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) for int64 0 <= m <= 2**62: the float estimate is off by at most 1."""
    s = np.sqrt(m.astype(np.float64)).astype(np.int64)
    s -= (s * s > m).astype(np.int64)
    s += ((s + 1) * (s + 1) <= m).astype(np.int64)
    return s


def orbit_reps(lo: int, hi: int) -> np.ndarray:
    """One vector per isometry orbit of the vectors with 4 lo <= norm <= 4 hi.

    Rows are (x, y, z) = (2 lam - delta, 2 mu - delta, delta), in which the
    norm is x^2 + y^2 + 10 z^2 and the 16 isometries are the signed
    permutations of (x, y) times the sign of z.  So every orbit has exactly
    one point with 0 <= x <= y, z >= 0 and x = y = z (mod 2), and those
    points are the rows, as an (k, 3) int64 array ordered by z, x, y.

    The walk runs over the (z, x) pairs with 10 z^2 + 2 x^2 <= 4 hi in
    blocks of `_CHUNK` pairs, and each pair contributes the y of its
    parity in [x, sqrt(4 hi - 10 z^2 - x^2)] with norm at least 4 lo.
    """
    if not 1 <= lo <= hi <= MAX_N:
        raise ValueError(f"need 1 <= lo <= hi <= {MAX_N}")
    top, bottom = 4 * hi, 4 * lo
    zs = np.arange(isqrt(top // 10) + 1, dtype=np.int64)
    x_counts = (_isqrt_np((top - 10 * zs * zs) // 2) - zs % 2) // 2 + 1
    x_ends = np.cumsum(x_counts)
    blocks = []
    for p0 in range(0, int(x_ends[-1]), _CHUNK):  # z = x = 0 makes this at least one pair
        # the z rows meeting pairs [p0, p0 + _CHUNK), each cut to that window
        z0 = int(np.searchsorted(x_ends, p0, side="right"))
        z1 = int(np.searchsorted(x_ends, p0 + _CHUNK, side="left")) + 1
        row_starts = x_ends[z0:z1] - x_counts[z0:z1]
        width = np.minimum(x_ends[z0:z1], p0 + _CHUNK) - np.maximum(row_starts, p0)
        z = np.repeat(zs[z0:z1], width)
        x = z % 2 + 2 * (np.arange(p0, p0 + z.size) - np.repeat(row_starts, width))
        rest = top - 10 * z * z - x * x
        y_hi = _isqrt_np(rest)
        y_hi -= (y_hi - z) % 2
        short = rest - (top - bottom)  # y^2 >= short keeps the norm >= 4 lo
        y_lo = np.where(short > 0, _isqrt_np(np.maximum(short - 1, 0)) + 1, 0)
        np.maximum(y_lo, x, out=y_lo)
        y_lo += (y_lo - z) % 2
        count = np.maximum((y_hi - y_lo) // 2 + 1, 0)
        step = np.arange(count.sum(), dtype=np.int64) - np.repeat(np.cumsum(count) - count, count)
        y = np.repeat(y_lo, count) + 2 * step
        blocks.append(np.stack([np.repeat(x, count), y, np.repeat(z, count)], axis=1))
    return np.concatenate(blocks)


def representable_range(max_n: int) -> list[bool]:
    """flags[n] for 0 <= n <= max_n by brute-force enumeration (kernel-backed)."""
    if max_n < 1:
        raise ValueError("scan limit must be positive")
    if max_n <= kernels.MAX_SCAN_N:
        return [bool(b) for b in kernels.representable_range(max_n)]
    return [n != 0 and bool(_any_solution_py(n)) for n in range(max_n + 1)]


def _any_solution_py(n: int) -> bool:
    four_n = 4 * n
    dmax = isqrt(four_n // 10)
    for delta in range(dmax + 1):
        rest = four_n - 10 * delta * delta
        x = delta % 2
        while x * x * 2 <= rest:
            s2 = rest - x * x
            s = isqrt(s2)
            if s * s == s2 and (s - delta) % 2 == 0:
                return True
            x += 2
    return False


def parity_lift(x: int, y: int, z: int) -> Vec:
    """Invert the unfolding: (x, y, z) -> (lam, mu, delta) = ((x+z)/2, (y+z)/2, z)."""
    if (x - z) % 2 or (y - z) % 2:
        raise ValueError("x, y, z must share one parity")
    return ((x + z) // 2, (y + z) // 2, z)


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


def two_squares(p: int) -> tuple[int, int]:
    """The essentially unique (lam, mu) with lam^2 + mu^2 = p, lam <= mu.

    Requires p prime with p = 1 (mod 4); found by brute force.
    """
    if not is_prime(p) or p % 4 != 1:
        raise ValueError("need a prime congruent to 1 mod 4")
    lam = 1
    while 2 * lam * lam <= p:
        rem = p - lam * lam
        mu = isqrt(rem)
        if mu * mu == rem:
            return lam, mu
        lam += 1
    raise AssertionError("two-square decomposition must exist")  # pragma: no cover


def infinitude_scan(count: int) -> list[tuple[int, Vec]]:
    """First `count` primes p = 1 (mod 4) with the vector (lam, mu, 0) of norm 4p.

    Each witness is primitive (gcd(lam, mu) = 1 since lam^2 + mu^2 is prime),
    certifying infinitely many distinct representable degrees.
    """
    if count < 1:
        raise ValueError("need at least one witness")
    out: list[tuple[int, Vec]] = []
    p = 5
    while len(out) < count:
        if p % 4 == 1 and is_prime(p):
            lam, mu = two_squares(p)
            v: Vec = (lam, mu, 0)
            assert norm(v) == 4 * p
            out.append((p, v))
        p += 2
    return out
