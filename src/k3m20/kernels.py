"""Hot numeric kernels: numba fast path with a pure-numpy fallback.

Backend selection is via the K3M20_BACKEND environment variable
("auto", "numba", "numpy"; default "auto" picks numba when importable)
or `set_backend` at runtime.  Both paths produce identical arrays.

Kernels work over int64 and are only called for inputs that fit
comfortably (callers guard the range and fall back to exact pure-python
code above it).  Everything here scans representability of
4n = x^2 + y^2 + 10 z^2 with x = y = z (mod 2) over a range of n, or
batches SL2(Z) actions on binary form triples; see representability /
binary_forms for the exact-arithmetic reference implementations.
"""

from __future__ import annotations

import math
import os

import numpy as np

_ENV_VAR = "K3M20_BACKEND"

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    HAVE_NUMBA = False

# largest range scan (two bool tables of 4*max_n+1 entries are allocated)
MAX_SCAN_N = 20_000_000


def _resolve(name: str) -> str:
    if name == "auto":
        return "numba" if HAVE_NUMBA else "numpy"
    if name == "numba" and not HAVE_NUMBA:
        raise RuntimeError("numba backend requested but numba is not importable")
    if name not in ("numba", "numpy"):
        raise ValueError(f"unknown backend: {name!r}")
    return name


_BACKEND = _resolve(os.environ.get(_ENV_VAR, "auto"))


def active_backend() -> str:
    return _BACKEND


def set_backend(name: str) -> str:
    """Select "numba", "numpy" or "auto"; returns the backend now active."""
    global _BACKEND
    _BACKEND = _resolve(name)
    return _BACKEND


def warmup() -> str:
    """Trigger jit compilation so timed code paths run steady-state."""
    two_square_tables(64)
    ts = unimodular_entries(1)
    transform_forms(1, 0, 1, ts)
    representable_range(16)
    return _BACKEND


# ---------------------------------------------------------------------------
# parity-split two-square tables:
#   even_ok[m] <=> m = x^2 + y^2 with x, y both even
#   odd_ok[m]  <=> m = x^2 + y^2 with x, y both odd


def _two_square_tables_np(limit: int):
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


# ---------------------------------------------------------------------------
# representability of 4n over a range of n


def _representable_range_np(max_n: int) -> np.ndarray:
    limit = 4 * max_n
    even_ok, odd_ok = _two_square_tables_np(limit)
    flags = np.zeros(max_n + 1, dtype=np.bool_)
    ns = np.arange(0, max_n + 1, dtype=np.int64)
    dmax = math.isqrt(limit // 10)
    for delta in range(dmax + 1):
        rest = 4 * ns - 10 * delta * delta
        valid = rest >= 0
        table = even_ok if delta % 2 == 0 else odd_ok
        hit = np.zeros(max_n + 1, dtype=np.bool_)
        hit[valid] = table[rest[valid]]
        flags |= hit
    flags[0] = False
    return flags


# ---------------------------------------------------------------------------
# bounded SL2(Z) matrices and batched form transforms


def _unimodular_entries_np(bound: int) -> np.ndarray:
    r = np.arange(-bound, bound + 1, dtype=np.int64)
    p, q, rr, s = np.meshgrid(r, r, r, r, indexing="ij")
    quads = np.stack([p, q, rr, s], axis=-1).reshape(-1, 4)
    det = quads[:, 0] * quads[:, 3] - quads[:, 1] * quads[:, 2]
    return quads[det == 1]


def _transform_forms_np(a: int, b: int, c: int, ts: np.ndarray) -> np.ndarray:
    p, q, r, s = ts[:, 0], ts[:, 1], ts[:, 2], ts[:, 3]
    a2 = a * p * p + b * p * r + c * r * r
    b2 = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
    c2 = a * q * q + b * q * s + c * s * s
    return np.stack([a2, b2, c2], axis=1)


# ---------------------------------------------------------------------------
# numba twins

if HAVE_NUMBA:

    @njit
    def _isqrt_nb(m: np.int64) -> np.int64:
        if m < 0:
            return np.int64(-1)
        s = np.int64(math.sqrt(m))
        while s * s > m:
            s -= 1
        while (s + 1) * (s + 1) <= m:
            s += 1
        return s

    @njit
    def _two_square_tables_nb(limit: np.int64):
        even_ok = np.zeros(limit + 1, dtype=np.bool_)
        odd_ok = np.zeros(limit + 1, dtype=np.bool_)
        x = np.int64(0)
        while x * x <= limit:
            m = 2 * x * x
            y = x
            while m <= limit:
                even_ok[m] = True
                m += 4 * y + 4
                y += 2
            x += 2
        x = np.int64(1)
        while x * x <= limit:
            m = 2 * x * x
            y = x
            while m <= limit:
                odd_ok[m] = True
                m += 4 * y + 4
                y += 2
            x += 2
        return even_ok, odd_ok

    @njit
    def _representable_range_nb(max_n: np.int64) -> np.ndarray:
        limit = 4 * max_n
        even_ok, odd_ok = _two_square_tables_nb(limit)
        flags = np.zeros(max_n + 1, dtype=np.bool_)
        for n in range(1, max_n + 1):
            four_n = 4 * n
            delta = 0
            while 10 * delta * delta <= four_n:
                rest = four_n - 10 * delta * delta
                if delta % 2 == 0:
                    if even_ok[rest]:
                        flags[n] = True
                        break
                elif odd_ok[rest]:
                    flags[n] = True
                    break
                delta += 1
        return flags

    @njit
    def _unimodular_entries_nb(bound: np.int64) -> np.ndarray:
        n_side = 2 * bound + 1
        count = 0
        for pass_no in range(2):
            if pass_no == 1:
                out = np.empty((count, 4), dtype=np.int64)
                count = 0
            for i in range(n_side**4):
                s = i % n_side - bound
                r = (i // n_side) % n_side - bound
                q = (i // n_side**2) % n_side - bound
                p = (i // n_side**3) % n_side - bound
                if p * s - q * r == 1:
                    if pass_no == 1:
                        out[count, 0] = p
                        out[count, 1] = q
                        out[count, 2] = r
                        out[count, 3] = s
                    count += 1
        return out

    @njit
    def _transform_forms_nb(a: np.int64, b: np.int64, c: np.int64, ts: np.ndarray) -> np.ndarray:
        out = np.empty((ts.shape[0], 3), dtype=np.int64)
        for i in range(ts.shape[0]):
            p, q, r, s = ts[i, 0], ts[i, 1], ts[i, 2], ts[i, 3]
            out[i, 0] = a * p * p + b * p * r + c * r * r
            out[i, 1] = 2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s
            out[i, 2] = a * q * q + b * q * s + c * s * s
        return out


def _pick(np_impl, nb_name: str):
    if _BACKEND == "numba":
        return globals()[nb_name]
    return np_impl


# ---------------------------------------------------------------------------
# public dispatchers


def two_square_tables(limit: int):
    """(even_ok, odd_ok) boolean tables up to `limit` inclusive."""
    if limit < 0 or limit > 4 * MAX_SCAN_N:
        raise ValueError("table limit out of supported range")
    return _pick(_two_square_tables_np, "_two_square_tables_nb")(limit)


def representable_range(max_n: int) -> np.ndarray:
    """flags[n] for 0 <= n <= max_n, by brute-force enumeration."""
    if not 1 <= max_n <= MAX_SCAN_N:
        raise ValueError("range scan limit out of supported range")
    return _pick(_representable_range_np, "_representable_range_nb")(max_n)


def unimodular_entries(bound: int) -> np.ndarray:
    """All (p, q, r, s) with |entries| <= bound and ps - qr = 1, lex order."""
    if not 1 <= bound <= 12:
        raise ValueError("bound out of supported range")
    return _pick(_unimodular_entries_np, "_unimodular_entries_nb")(bound)


def transform_forms(a: int, b: int, c: int, ts: np.ndarray) -> np.ndarray:
    """Images of the form (a, b, c) under each SL2 row of ts, as (k, 3)."""
    if max(abs(a), abs(b), abs(c)) > 2**20:
        raise ValueError("form entries out of int64 kernel range")
    return _pick(_transform_forms_np, "_transform_forms_nb")(
        int(a), int(b), int(c), np.ascontiguousarray(ts, dtype=np.int64)
    )
