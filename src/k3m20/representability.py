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

import itertools
from collections.abc import Iterator
from math import isqrt

from .lattice import NormAnomaly, Vec, norm


def is_representable(n: int) -> bool:
    """Closed form: strip factors of 4, reject residue 6 mod 16."""
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    m = n
    while m % 4 == 0:
        m //= 4
    return m % 16 != 6


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


def prime_witnesses() -> Iterator[tuple[int, Vec]]:
    """The primes p = 1 (mod 4) from 5 up, each with the vector (lam, mu, 0) of norm 4p.

    Each witness is primitive (gcd(lam, mu) = 1 since lam^2 + mu^2 is prime),
    certifying infinitely many distinct representable degrees.
    """
    for p in itertools.count(5, 4):
        if is_prime(p):
            lam, mu = _two_squares(p)
            v: Vec = (lam, mu, 0)
            if norm(v) != 4 * p:
                raise NormAnomaly(f"norm anomaly: the witness {v} of p = {p} does not have norm {4 * p}")
            yield p, v
