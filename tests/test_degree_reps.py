"""One degree by sums of two squares against the orbit walk and a brute-force search.

`twosquares.degree_reps(n)` factors each m = 4n - 10 z^2 over the Gaussian
integers; it must return exactly the rows of norm 4n of the range walk
`kernels.orbit_reps`, in its order, for every n up to 3000, and beyond the
walk's range exactly the array of `tests/oracles.py::degree_points`, which
searches every x; both are pinned to the pure-python enumeration in
`test_orbit_reps.py`.
"""

import hashlib
import subprocess
import sys
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3m20 import classify, twosquares
from k3m20.cli import report_json
from k3m20.kernels import MAX_N, orbit_reps
from k3m20.twosquares import _gaussian_primes, _powmod, degree_reps
from oracles import degree_points, is_prime, trial_division_hits, two_squares


def _same(n, want=None):
    got = degree_reps(n)
    want = degree_points(n) if want is None else want
    assert got.dtype == want.dtype and got.shape == want.shape, n
    assert (got == want).all(), n


def test_degree_reps_match_the_walk_up_to_3000():
    # the two production paths against each other: each degree's rows of one walk, in its order
    reps = orbit_reps(3000)
    norms = (reps * reps) @ np.array([1, 1, 10])
    order = np.argsort(norms, kind="stable")  # by norm, and within a norm in the walk's order
    cuts = np.searchsorted(norms[order], 4 * np.arange(1, 3002)).tolist()
    assert cuts[0] == 0 and cuts[-1] == len(reps)  # no origin, and no norm past 4 * 3000
    for n in range(1, 3001):
        _same(n, reps[order[cuts[n - 1] : cuts[n]]])


@settings(max_examples=20, deadline=None)
@given(st.integers(3001, 4 * 10**6))
@example(3999999)
def test_degree_reps_match_the_walk_large_n(n):
    _same(n)


def _ms(n):
    return [4 * n - 10 * z * z for z in range(isqrt(4 * n // 10) + 1)]


EDGE_CASES = [
    (10, "m = 0 at z = 2: the point (0, 0, 2)"),
    (90, "m = 0 at z = 6"),
    (3999949, "m = 4n at z = 0 has the prime n = 1 (mod 4) above sqrt(4n)"),
    (3999971, "m = 4n at z = 0 has the prime n = 3 (mod 4) above sqrt(4n)"),
    (2**21, "a high power of 2"),
    (5**9, "a high power of 5"),
    (2**10 * 5**4, "powers of 2 and 5"),
    (9 * 49 * 1009, "m = 4n at z = 0 has 3^2 7^2"),
    (27 * 1009, "m = 4n at z = 0 has 3^3"),
]


@pytest.mark.parametrize("n, why", EDGE_CASES)
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


def _same_hits(n):
    # degree_reps' blocks of m = 4n - 10 z^2 > 0, each factored at its sieved hits and by trial division
    top = 4 * n
    z = np.arange(isqrt(top // 10) + 1, dtype=np.int64)
    m = top - 10 * z * z
    z, m = z[m > 0], m[m > 0]
    roots = twosquares._roots(n, twosquares._odd_primes(isqrt(top)))
    for j in range(0, len(m), twosquares._BLOCK):
        block = slice(j, j + twosquares._BLOCK)
        got, want = twosquares._hits(z[block], m[block], *roots), trial_division_hits(n, m[block])
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape and (g == w).all(), (n, j)


# a prime the sieve missed would stay in the cofactor, which degree_reps takes for one prime, so
# the r2 guard could pass on a wrong factorization: the hit list itself is pinned to trial division
def test_hits_match_trial_division_up_to_3000():
    for n in range(1, 3001):
        _same_hits(n)


@pytest.mark.parametrize("n, why", EDGE_CASES)
def test_hits_match_trial_division_edge_cases(n, why):
    _same_hits(n)


@settings(max_examples=20, deadline=None)
@given(st.integers(3001, 4 * 10**6))
def test_hits_match_trial_division_large_n(n):
    _same_hits(n)


@pytest.mark.parametrize(
    "n",
    [
        999707100,  # 2^2 3 5^2 7 17 41 683: primes 1 (mod 8) divide n, and 5 divides every m
        10**9,  # 10 n is a square, so every prime up to sqrt(4n) divides some m
    ],
)
def test_hits_match_trial_division_at_the_cap(n):
    _same_hits(n)


_ODD_PRIMES = [p for p in range(3, 1000, 2) if is_prime(p)]


def _solutions(p):
    """Every z mod p with 10 z^2 = c (mod p), per residue c."""
    out = [set() for _ in range(p)]
    for z in range(p):
        out[10 * z * z % p].add(z)
    return out


_SOLUTIONS = {p: _solutions(p) for p in _ODD_PRIMES}


@pytest.mark.parametrize(
    "ns",
    [
        range(1, 1201),
        [5**k for k in range(1, 13)] + [25 * k for k in (3, 7, 17, 41, 113, 9973)],
        [17 * 41 * 73 * 89 * 97, 3**7 * 5**2 * 7 * 11 * 13, 113 * 137 * 193 * 241 * 257],
        [999707100, 10**9, 3999999, 2 * 10**9, 997 * 991 * 983],
    ],
    ids=["small", "powers-of-5", "products-of-primes", "large"],
)
def test_roots_match_brute_force(ns):
    # every prime that divides some 4n - 10 z^2 gets a root r, whose +-r are all of z mod p, or is
    # one of the primes 1 (mod 8), or 5, whose hits are found by their remainders
    primes = np.array(_ODD_PRIMES, dtype=np.int64)
    for n in ns:
        p, r, tested = (v.tolist() for v in twosquares._roots(n, primes))
        solvable = {q for q in _ODD_PRIMES if _SOLUTIONS[q][4 * n % q]}
        assert set(p) | set(tested) == solvable and not set(p) & set(tested), n
        assert all(q % 8 == 1 or q == 5 for q in tested), n
        assert all(_SOLUTIONS[q][4 * n % q] == {s, -s % q} for q, s in zip(p, r)), n


# above 2**30 the cofactor primes that degree_reps splits pass 2**31, and above 2**30.5 they pass
# 2**31.5, where a plain int64 product of two residues overflows (3999999593 at n = 1999999999)
@pytest.mark.parametrize(
    "n, digest",
    [
        (1500000001, "f04c423412d41661a3b9795929f18179ff962de7ae60d65cf459f5925a8c24ec"),
        (1999999999, "5f468c18c94ad5bd722e2f7b2e2b41a864eb91c8762022264ea08b212f6ce366"),
    ],
)
def test_classify_above_2_to_the_30(n, digest):
    assert hashlib.sha256((report_json(classify(n)) + "\n").encode()).hexdigest() == digest


# primes just below 2**31.5 (past it a plain product of two residues overflows), 4e9 (above
# every prime degree_reps splits, which is below 2n) and 2**40
_MODULI = [3037000493, 3999999979, 1099511627689]


def _powmod_lists(moduli):
    return st.lists(st.tuples(st.integers(0, 2**23 - 1), st.integers(0, 2**40), moduli), min_size=1, max_size=20)


def _check_powmod(triples):
    base, exp, mod = (np.array(v, dtype=np.int64) for v in zip(*triples))
    got = _powmod(base, exp, mod)
    assert got.dtype == np.int64 and got.tolist() == [pow(b, e, m) for b, e, m in triples]


@settings(max_examples=200, deadline=None)
@given(_powmod_lists(st.one_of(st.sampled_from(_MODULI), st.integers(2, 2**40 - 1))))
@example([(2**23 - 1, 2**40 - 1, _MODULI[2]), (2**17 - 1, 2**40, _MODULI[0]), (0, 0, 2), (5, 0, 3)])
# every modulus below 2**31, so the squares are taken whole: 7 is a primitive root of the prime
# 2**31 - 1, so 7^((p - 1) / 2) = p - 1 and the power p - 1 squares p - 1, the largest residue
@example([(7, 2**30 - 1, 2**31 - 1), (7, 2**31 - 2, 2**31 - 1), (2**23 - 1, 2**40, 2**31 - 2), (2**17, 2**40 - 1, 3)])
# the largest modulus exactly 2**31, so the squares are split at bit 17
@example([(7, 2**31 - 2, 2**31 - 1), (2**23 - 1, 2**40 - 1, 2**31)])
def test_powmod_matches_pow(triples):
    _check_powmod(triples)


# a list of up to 20 moduli drawn up to 2**40 has them all below 2**31 almost never
@settings(max_examples=200, deadline=None)
@given(_powmod_lists(st.one_of(st.just(2**31 - 1), st.integers(2, 2**31 - 1))))
def test_powmod_matches_pow_below_2_to_the_31(triples):
    _check_powmod(triples)


def test_degree_reps_guards():
    for n in (0, MAX_N + 1):
        with pytest.raises(ValueError):
            degree_reps(n)


def test_gaussian_primes_split_every_prime():
    small = [p for p in range(5, 20000, 4) if is_prime(p)]
    a, b = _gaussian_primes(np.array(small, dtype=np.int64))
    assert [tuple(sorted(ab)) for ab in zip(a.tolist(), b.tolist())] == [two_squares(p) for p in small]
    # past 2**31 on int64 too, up to the largest split prime (below 2n <= 4e9) and on to 2**40
    large = [p for p in range(2**31 + 1, 2**31 + 1000, 4) if is_prime(p)]
    large += [3999999901, 3999999937, 1099511627609, 1099511627689]  # primes just below 4e9 and 2**40
    a, b = _gaussian_primes(np.array(large, dtype=np.int64))
    assert a.dtype == b.dtype == np.int64
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
