"""Brute-force oracles the library is checked against.

None of these is on the library's path.  Each one answers a question the
library answers in closed form or by reduction, by plain search:

- `two_square_tables` / `representable_range`: which n have a vector of
  norm 4n, by a table scan of 4n - 10 delta^2 = x^2 + y^2 (checks the
  closed form `is_representable`);
- `unimodular_entries` / `transform_forms`: the forms a bounded SL2(Z)
  search reaches from (a, b, c) (checks Gauss reduction).

They work in int64 numpy arrays; callers keep the inputs small.
"""

from __future__ import annotations

import math

import numpy as np


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
