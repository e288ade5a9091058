"""One degree by sums of two squares: the orbit representatives of norm 4n, by factoring.

`degree_reps(n)` returns the domain points of norm 4n, ordered by z, x, y
as the range walk `kernels.orbit_reps` orders its rows, without walking
the norm: each of the about sqrt(0.4 n) values m = 4n - 10 z^2 is
factored at the z where its primes up to sqrt(4n) divide it, found from
the square roots of 4n / 10 mod p, and its points x^2 + y^2 = m are
combined from its Gaussian primes.  A walk would visit about 0.45 n
(z, x) pairs for the same rows.  In the tests, the walk's rows of each
degree up to 3000 and a brute-force search beyond are this path's
references (and trial division of every m the reference of the sieve).
All arithmetic is exact in int64 for n up to kernels.MAX_N (see there).
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from .kernels import MAX_N, EnumerationAnomaly, _first_bad, _isqrt_np, _one_key, _ragged, _starts

# values m = 4n - 10 z^2 factored at once in degree_reps, and (m, prime) entries
# per tile of the remainder test; together they bound its working memory
_BLOCK = 2**12
_TILE = 2**13


def degree_reps(n: int) -> np.ndarray:
    """The orbit representatives of norm 4n by sums of two squares, ordered by z, x, y as the walk's.

    For each z with m = 4n - 10 z^2 > 0, the points 0 <= x <= y with
    x^2 + y^2 = m come from m's factorization over the Gaussian integers
    (the r2 formula, Hardy & Wright ch. XVI).  Write m = h * prod p^e_p
    over its primes p = 1 (mod 4).  m is a sum of two squares exactly when
    h is s^2 or 2 s^2 (every prime 3 mod 4 to an even power), and then its
    points are, up to units and conjugation, the products
    s (1 + i)^[h = 2 s^2] prod_p pi_p^k conj(pi_p)^(e_p - k), 0 <= k <= e_p,
    with pi_p conj(pi_p) = p (see _gaussian_primes and _gaussian_products).
    x = y = z (mod 2) holds by itself: m is 0 mod 4 for even z, 2 mod 4 for
    odd z.  m = 0 gives the point x = y = 0.

    An odd prime p divides m exactly when z = r or -r (mod p) for a root r
    of 10 r^2 = 4n (mod p), so m's odd primes up to sqrt(4n) are sieved:
    `_roots` finds r for every p it can, and the hits z = +-r (mod p) are
    marked as arithmetic progressions; only the primes p = 1 (mod 8) that
    have roots (and 5 when 5 | n) are found by testing remainders, in
    tiles of `_TILE` entries.  Each block of `_BLOCK` values of m is then
    divided by its primes only at the hits; what is left is a power of 2
    times 1 or one prime above sqrt(4n).  Each m's points must account for
    exactly its r2(m) = 4 prod_p (e_p + 1) ordered pairs, or
    EnumerationAnomaly is raised.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"need 1 <= n <= {MAX_N}")
    top = 4 * n
    zs = np.arange(isqrt(top // 10) + 1, dtype=np.int64)
    ms = top - 10 * zs * zs
    z, m = zs[ms > 0], ms[ms > 0]
    roots = _roots(n, _odd_primes(isqrt(top)))
    blocks = [_block_reps(n, z[j : j + _BLOCK], m[j : j + _BLOCK], roots) for j in range(0, len(m), _BLOCK)]
    zero = zs[ms == 0]
    return np.concatenate([*blocks, np.stack([0 * zero, 0 * zero, zero], axis=1)])


def _roots(n: int, primes: np.ndarray) -> tuple[np.ndarray, ...]:
    """(p, r, tested): for the odd primes `primes`, the p that divide some
    4n - 10 z^2, each with a root r of 10 r^2 = 4n (mod p), and the primes
    `tested` that divide some 4n - 10 z^2 but get no root.

    With a = 4n / 10 (mod p), r is a square root of a: a^((p + 1) / 4) for
    p = 3 (mod 4), and Atkin's a v (2 a v^2 - 1) with v = (2a)^((p - 5) / 8)
    for p = 5 (mod 8); a root is kept when r^2 = a, which holds
    exactly when a is a square mod p.  For p = 1 (mod 8), a is tested by
    Euler's criterion a^((p - 1) / 2) = 1 and goes to `tested`.  p | n gives
    r = 0.  10 has no inverse mod 5, and 5 divides every 4n - 10 z^2 when
    5 | n and none otherwise.
    """
    five = primes == 5
    p = primes[~five]
    # 1 / 10 = (k p + 1) / 10 (mod p), with k = 9, 3, 7, 1 for p = 1, 3, 7, 9 (mod 10)
    a = 4 * n % p * ((np.array([0, 9, 0, 3, 0, 0, 0, 7, 0, 1])[p % 10] * p + 1) // 10) % p
    three, five_eight = p & 3 == 3, p & 7 == 5
    t = _powmod(
        np.where(five_eight, 2 * a % p, a),
        np.where(three, (p + 1) // 4, np.where(five_eight, (p - 5) // 8, (p - 1) // 2)),
        p,
    )
    r = np.where(three, t, a * t % p * ((2 * a * t % p * t - 1) % p) % p)
    euler = p & 7 == 1
    root = (r * r % p == a) & (~euler | (a == 0))
    tested = p[euler & (t == 1)]
    if n % 5 == 0:
        tested = np.concatenate([primes[five], tested])
    return p[root], r[root], tested


def _block_reps(n: int, z: np.ndarray, m: np.ndarray, roots: tuple[np.ndarray, ...]) -> np.ndarray:
    """degree_reps' points (x, y, z) for one block of consecutive z and m = 4n - 10 z^2 > 0."""
    i, p, e, pe = _hits(z, m, *roots)
    # per m with a prime found (i is sorted): the product over its primes, or its split ones
    starts = _starts(i)
    split = p & 3 == 1
    left = m.copy()
    left[i[starts]] //= np.multiply.reduceat(pe, starts)
    large = left // (left & -left)  # the odd part: 1 or the one prime factor above sqrt(4n)
    big = (large & 3 == 1) & (large > 1)
    h = m // np.where(big, large, 1)
    h[i[starts]] //= np.multiply.reduceat(np.where(split, pe, 1), starts)
    # m is a sum of two squares exactly when the rest h is s^2 or 2 s^2
    s, t = _isqrt_np(h), _isqrt_np(h // 2)
    square = s * s == h
    keep = square | (2 * t * t == h)
    r2 = np.where(big, 8, 4)
    r2[i[starts]] *= np.multiply.reduceat(np.where(split, e + 1, 1), starts)

    # the split primes of the kept m, which are renumbered 0..k-1, in row order
    f_row = np.concatenate([i[split], np.flatnonzero(big)])
    f_p = np.concatenate([p[split], large[big]])
    f_e = np.concatenate([e[split], np.ones(int(big.sum()), dtype=np.int64)])
    mine = keep[f_row]
    order = np.argsort(f_row[mine])
    f_row = (np.cumsum(keep) - 1)[f_row[mine][order]]
    f_p, f_e = f_p[mine][order], f_e[mine][order]
    m, z, r2 = m[keep], z[keep], r2[keep]
    # each distinct prime is split once
    primes, which = np.unique(f_p, return_inverse=True)
    a, b = (v[which] for v in _gaussian_primes(primes))
    k = _first_bad(a * a + b * b != f_p)
    if k is not None:
        raise EnumerationAnomaly(n, f"({int(a[k])}, {int(b[k])}) does not split the prime {int(f_p[k])}")
    row, re, im = _gaussian_products(np.where(square, s, t)[keep], ~square[keep], f_row, a, b, f_e)

    # one point per orbit in the domain 0 <= x <= y, ordered by z, x, y
    x, y = np.minimum(np.abs(re), np.abs(im)), np.maximum(np.abs(re), np.abs(im))
    key = _one_key(row, x, y)
    order = np.argsort(key)
    order = order[_starts(key[order])]
    row, x, y = row[order], x[order], y[order]
    # completeness: a point with 0 < x < y stands for 8 ordered pairs, one with x = 0 or x = y for 4,
    # and the points of each m must stand for its r2(m) = 4 prod_p (e_p + 1) (as floats, exact below 2^53)
    found = np.bincount(row, weights=np.where((x == 0) | (x == y), 4, 8), minlength=len(m))
    bad = found != r2
    bad[row[x * x + y * y != m[row]]] = True
    k = _first_bad(bad)
    if k is not None:
        raise EnumerationAnomaly(
            n, f"z = {int(z[k])}: {int(found[k])} of the r2({int(m[k])}) = {int(r2[k])} ordered pairs found"
        )
    return np.stack([x, y, z[row]], axis=1)


def _hits(
    z: np.ndarray, m: np.ndarray, p: np.ndarray, r: np.ndarray, tested: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(i, p, e, p^e): every odd prime p up to sqrt(4n) that divides
    m[i] = 4n - 10 z[i]^2, to the power e, ordered by i and p; z is a run of
    consecutive values, and (p, r, tested) come from `_roots`."""
    # the progressions z = r and z = -r (mod p), one when r = 0, from their first term in the window
    step = np.concatenate([p, p[r > 0]])
    off = (np.concatenate([r, -r[r > 0]]) - z[0]) % step
    count = (len(z) - off + step - 1) // step
    prime = np.repeat(step, count)
    hits = [(np.repeat(off, count) + _ragged(count) * prime, prime)]
    width = max(1, _TILE // len(m))
    for p0 in range(0, len(tested), width):
        tile = tested[p0 : p0 + width]
        hit = np.flatnonzero(m % tile[:, None] == 0)
        hits.append((hit % len(m), tile[hit // len(m)]))
    i, p = (np.concatenate(h) for h in zip(*hits))
    order = np.argsort(_one_key(i, p))
    i, p = i[order], p[order]
    # divide p out of a copy of m while it divides
    cof, e = m[i], np.zeros_like(p)
    live = np.arange(len(p))
    while live.size:
        q = cof[live] // p[live]
        exact = q * p[live] == cof[live]
        live = live[exact]
        cof[live] = q[exact]
        e[live] += 1
    return i, p, e, m[i] // cof


def _odd_primes(limit: int) -> np.ndarray:
    """The odd primes up to limit, as an int64 array (sieve of Eratosthenes)."""
    sieve = np.zeros(limit + 1, dtype=bool)
    sieve[3::2] = True
    for p in range(3, isqrt(limit) + 1, 2):
        if sieve[p]:
            sieve[p * p :: 2 * p] = False
    return np.flatnonzero(sieve).astype(np.int64)


def _gaussian_primes(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) with a^2 + b^2 = p, for an array of primes p = 1 (mod 4).

    Hermite-Serret in Brillhart's form: t = c^((p - 1) / 4) is a square
    root of -1 mod p for a quadratic non-residue c, and Euclid's algorithm
    on p and min(t, p - t) meets b and a as its first two remainders below
    sqrt(p).  c is the least non-residue: 2 when p = 5 (mod 8), else the
    first odd q with p a non-square mod q, which by reciprocity ((q/p) =
    (p/q) for p = 1 mod 4) is the least odd prime non-residue; a composite
    q is a square mod every such p, its prime factors all being residues.
    Exact in int64 for p < 2**40 (see _powmod).
    """
    if not len(p):
        return p, p
    c = np.where(p & 7 == 5, 2, 0)
    q = 3
    # a prime's least non-residue is below sqrt(p) + 1; a p that is not prime may have none,
    # so the search stops there and c = 2 leaves such a p to fail a^2 + b^2 = p
    while (c == 0).any() and (q - 1) ** 2 <= p.max():
        squares = np.zeros(q, dtype=bool)
        squares[np.arange(q) ** 2 % q] = True
        c[(c == 0) & ~squares[p % q]] = q
        q += 2
    c[c == 0] = 2
    t = _powmod(c, (p - 1) // 4, p)
    # b > isqrt(p) is b^2 > p for an integer b
    a, b, root = p.copy(), np.minimum(t, p - t), _isqrt_np(p)
    live = np.flatnonzero(b > root)
    while live.size:
        a[live], b[live] = b[live], a[live] % b[live]
        live = live[b[live] > root[live]]
    return b, a % b


def _powmod(base: np.ndarray, exp: np.ndarray, mod: np.ndarray) -> np.ndarray:
    """base^exp mod mod elementwise (broadcast), from the top bit of exp down; exact in int64
    for 0 <= base < 2**23 and 2 <= mod < 2**40.  Each bit squares r and multiplies it by base or 1;
    r^2 is taken whole when every mod is below 2**31 (r^2 < 2**62), else in two limbs of r split
    at bit 17, exact up to 2**40."""
    bits = np.arange(int(np.max(exp, initial=0)).bit_length())[::-1, None]
    factors = np.where(exp >> bits & 1 == 1, base, 1)
    result = np.ones_like(base * exp)
    whole = np.max(mod, initial=0) < 2**31
    for factor in factors:
        if whole:
            square = result * result
        else:
            square = result * (result >> 17) % mod * 2**17 + result * (result & (2**17 - 1))
        result = square % mod * factor % mod
    return result


def _gaussian_products(base, twice, row, a, b, e):
    """The Gaussian integers base[j] (1 + i)^twice[j] prod pi^k conj(pi)^(e - k),
    0 <= k <= e, over the factors pi = a + b i of each row j (row, a, b, e,
    ordered by row); returns (owner row, real part, imaginary part).

    The factors are taken in rounds, the r-th factor of every row at once;
    each round repeats every product of a row with a factor e + 1 times.
    Every partial product divides m, so each term stays below sqrt(m).
    """
    owner = np.arange(len(base))
    re, im = base.copy(), np.where(twice, base, 0)
    rank = np.arange(len(row)) - np.searchsorted(row, row)
    for r in range(int(rank.max()) + 1 if len(row) else 0):
        slot = np.full(len(base), -1)
        slot[row[rank == r]] = np.flatnonzero(rank == r)
        f = slot[owner]
        count = np.where(f >= 0, e[f] + 1, 1)
        owner, re, im, f = (np.repeat(v, count) for v in (owner, re, im, f))
        k = _ragged(count)
        fa, fb, fe = a[f], b[f], np.where(f >= 0, e[f], 0)
        for step in range(int(fe.max())):
            fb_s = np.where(step < k, fb, -fb)  # pi for the first k steps, then conj(pi)
            on = step < fe
            re, im = np.where(on, re * fa - im * fb_s, re), np.where(on, re * fb_s + im * fa, im)
    return owner, re, im
