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

from .lattice import Vec, norm


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
