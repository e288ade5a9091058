"""One degree by sums of two squares against the orbit walk.

`twosquares.degree_reps(n)` factors each m = 4n - 10 z^2 over the Gaussian
integers; it must return exactly the array of `kernels.orbit_reps(n, n)`,
the walk that stays the range path and is itself pinned to the pure-python
enumeration in `test_orbit_reps.py`.
"""

import subprocess
import sys
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3m20 import twosquares
from k3m20.kernels import MAX_N, orbit_reps
from k3m20.twosquares import _gaussian_primes, degree_reps
from oracles import is_prime, two_squares


def _same(n):
    got, want = degree_reps(n), orbit_reps(n, n)
    assert got.dtype == want.dtype and got.shape == want.shape, n
    assert (got == want).all(), n


def test_degree_reps_match_the_walk_up_to_3000():
    for n in range(1, 3001):
        _same(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(3001, 4 * 10**6))
@example(3999999)
def test_degree_reps_match_the_walk_large_n(n):
    _same(n)


def _ms(n):
    return [4 * n - 10 * z * z for z in range(isqrt(4 * n // 10) + 1)]


@pytest.mark.parametrize(
    "n, why",
    [
        (10, "m = 0 at z = 2: the point (0, 0, 2)"),
        (90, "m = 0 at z = 6"),
        (3999949, "m = 4n at z = 0 has the prime n = 1 (mod 4) above sqrt(4n)"),
        (3999971, "m = 4n at z = 0 has the prime n = 3 (mod 4) above sqrt(4n)"),
        (2**21, "a high power of 2"),
        (5**9, "a high power of 5"),
        (2**10 * 5**4, "powers of 2 and 5"),
        (9 * 49 * 1009, "m = 4n at z = 0 has 3^2 7^2"),
        (27 * 1009, "m = 4n at z = 0 has 3^3"),
    ],
)
def test_degree_reps_edge_cases(n, why):
    ms = _ms(n)
    if "m = 0" in why:
        assert 0 in ms
    if "above sqrt(4n)" in why:
        assert is_prime(n) and n > isqrt(4 * n)
    _same(n)


def test_degree_reps_survive_small_blocks_and_tiles(monkeypatch):
    # blocks of 5 values of m, tiles of 1 or 2 primes
    monkeypatch.setattr(twosquares, "_BLOCK", 5)
    monkeypatch.setattr(twosquares, "_TILE", 7)
    for n in (1, 2, 3, 10, 90, 1000, 12345, 3999999):
        _same(n)


def test_degree_reps_guards():
    for n in (0, MAX_N + 1):
        with pytest.raises(ValueError):
            degree_reps(n)


def test_gaussian_primes_split_every_prime():
    small = [p for p in range(5, 20000, 4) if is_prime(p)]
    a, b = _gaussian_primes(np.array(small, dtype=np.int64))
    assert [tuple(sorted(ab)) for ab in zip(a.tolist(), b.tolist())] == [two_squares(p) for p in small]
    # above 2**31 the primes run as python ints
    large = [p for p in range(2**31 + 1, 2**31 + 1000, 4) if is_prime(p)]
    large += [2305843009213693973, 2305843009213694009]  # primes near 2**61
    a, b = _gaussian_primes(np.array(large, dtype=np.int64))
    assert [x * x + y * y for x, y in zip(a.tolist(), b.tolist())] == large


def test_completeness_guard_fires_under_python_optimize():
    # only the first Gaussian product of each m is kept, so every m with two
    # split prime factors (counted with multiplicity) loses points
    code = (
        "import numpy as np\n"
        "from k3m20 import polarizations as p, twosquares\n"
        "products = twosquares._gaussian_products\n"
        "def first_only(*args):\n"
        "    owner, re, im = products(*args)\n"
        "    first = np.r_[True, owner[1:] != owner[:-1]]\n"
        "    return owner[first], re[first], im[first]\n"
        "twosquares._gaussian_products = first_only\n"
        "try:\n"
        "    p.classify(3999999)\n"
        "except p.EnumerationAnomaly as exc:\n"
        "    print(type(exc).__name__, exc.n, 'ordered pairs found' in str(exc))\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["EnumerationAnomaly", "3999999", "True"]
