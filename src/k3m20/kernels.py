"""The int64 orbit walk: one vector per isometry orbit of a band of norms.

This is the library's only numeric kernel.  It is exact while every
square, sum and difference it forms fits in int64, which holds for norms
up to 4 * MAX_N = 2**62; callers refuse larger degrees.  The exact
pure-python reference it is tested against is the enumeration of every
norm-4n vector in `tests/oracles.py`.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

# largest n accepted by orbit_reps: 4n <= 2**62, so every square, sum and
# difference formed while walking norms up to 4n is exact in int64
MAX_N = 2**60
# (z, x) pairs per numpy block in orbit_reps; bounds its working memory
_CHUNK = 2**13


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
