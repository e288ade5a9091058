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

import numpy as np

from .kernels import _first_bad
from .lattice import NormAnomaly, Vec
from .twosquares import _gaussian_primes, _odd_primes


def is_representable(n):
    """Closed form, elementwise on an array of n: n is not 4^i (16 j + 6).

    n = 2^k o with o odd is 4^i (16 j + 6) = 2^(2i + 1) (8 j + 3) exactly
    when k is odd and o = 3 (mod 8); its lowest set bit 2^k is 2 (mod 3)
    exactly when k is odd.
    """
    if np.any(n < 1):
        raise ValueError("degree parameter n must be positive")
    low = n & -n
    return (low % 3 == 1) | (n // low & 7 != 3)


def prime_witnesses(max_n: int) -> list[tuple[int, Vec]]:
    """The primes 5 <= p <= max_n with p = 1 (mod 4), each with the vector (lam, mu, 0) of norm 4p.

    The primes come from a sieve and are split as p = lam^2 + mu^2,
    lam <= mu, by Hermite-Serret (see twosquares._gaussian_primes).  Each
    witness is primitive (gcd(lam, mu) = 1 since lam^2 + mu^2 is prime),
    certifying infinitely many distinct representable degrees.
    """
    primes = _odd_primes(max_n)
    p = primes[primes & 3 == 1]
    a, b = _gaussian_primes(p)
    lam, mu = np.minimum(a, b), np.maximum(a, b)
    # the norm of (lam, mu, 0) is 4 (lam^2 + mu^2) by the split form
    i = _first_bad(lam * lam + mu * mu != p)
    if i is not None:
        v = (int(lam[i]), int(mu[i]), 0)
        raise NormAnomaly(f"norm anomaly: the witness {v} of p = {int(p[i])} does not have norm {4 * int(p[i])}")
    return [(p, (lam, mu, 0)) for p, lam, mu in zip(p.tolist(), lam.tolist(), mu.tolist())]
