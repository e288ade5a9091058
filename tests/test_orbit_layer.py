"""The batched per-orbit layer `kernels.orbit_classes` against the one-orbit oracle.

`tests/oracles.py::orbit_class` computes an orbit's invariants over python
ints, one orbit at a time, through the oracles `orthogonal_complement` and
`canonical`.  The batched layer must give the same canonical
member, divisibility, reduced form, discriminant, index and orbit size for
every orbit, in int64 up to `MAX_N`, with Gram entries within the bounds
derived next to `MAX_N`, and each of its guards must raise its named error.
"""

import inspect
import random
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3m20 import kernels
from k3m20.kernels import (
    MAX_N,
    EnumerationAnomaly,
    ReductionAnomaly,
    orbit_classes,
    orbit_reps,
)
from k3m20.lattice import ComplementAnomaly
from k3m20.polarizations import classify
from k3m20.twosquares import degree_reps
from oracles import (
    EvenBinaryForm,
    _xgcd,
    canonical,
    canonical_member,
    degree_points,
    divisibility,
    orbit_class,
    transform,
)

RANGE_N = 2000


def _oracle_row(n, x, y, z):
    o = orbit_class(n, x, y, z)
    return [*o.canonical, o.orbit_size, o.divisibility, *o.tx.triple(), o.discriminant, o.index]


def _degrees(reps):
    return (reps * reps) @ np.array([1, 1, 10], dtype=np.int64) // 4


def _check_rows(ns, reps):
    rows = orbit_classes(ns, reps)
    assert rows.shape == (len(reps), 10)
    for n, (x, y, z), row in zip(ns.tolist(), reps.tolist(), rows.tolist()):
        assert row == _oracle_row(n, x, y, z), (n, x, y, z)
    return rows


def test_no_rows():
    rows = orbit_classes(np.zeros(0, dtype=np.int64), np.zeros((0, 3), dtype=np.int64))
    assert rows.shape == (0, 10) and rows.dtype == np.int64


def test_matches_oracle_for_every_orbit_up_to_2000():
    reps = orbit_reps(RANGE_N)
    assert len(reps) > 4 * 2**11  # several blocks
    _check_rows(_degrees(reps), reps)


@settings(max_examples=10, deadline=None)
@given(st.integers(RANGE_N + 1, 10**6))
@example(10**6)
def test_classify_matches_oracle_large_n(n):
    reps = degree_points(n).tolist()
    want = sorted((orbit_class(n, *p) for p in reps), key=lambda o: o.canonical)
    assert classify(n).orbits.tolist() == [
        [*o.canonical, o.orbit_size, o.divisibility, *o.tx.triple(), o.discriminant, o.index] for o in want
    ]


def _domain_points(lo, hi, count, seed):
    """count domain points (x, y, z) with lo <= norm / 4 <= hi, drawn at random."""
    rng = random.Random(seed)
    points = set()
    while len(points) < count:
        m = 4 * rng.randint(lo, hi)
        z = rng.randint(0, isqrt(m // 10))
        x = rng.randint(0, isqrt((m - 10 * z * z) // 2))
        y = isqrt(m - 10 * z * z - x * x)
        x, y = x - (x - z) % 2, y - (y - z) % 2  # one parity; the norm stays a multiple of 4
        if 0 <= x <= y and lo <= (x * x + y * y + 10 * z * z) // 4 <= hi:
            points.add((x, y, z))
    return np.array(sorted(points), dtype=np.int64)


def _edge_points(hi, count, seed):
    """Domain points of degree at most hi, and near it, on each edge of the
    domain: x = 0, x = y and z = 0, count of each, and the one point (0, 0, z)."""
    rng = random.Random(seed)
    top = 4 * hi
    points = set()
    for _ in range(count):
        z = 2 * rng.randint(0, isqrt(top // 10) // 2)  # x = 0 needs y and z even
        y = isqrt(top - 10 * z * z)
        points.add((0, y - y % 2, z))
        z = rng.randint(0, isqrt(top // 10) - 1)
        x = isqrt((top - 10 * z * z) // 2)
        x -= (x - z) % 2
        points.add((x, x, z))
        x = 2 * rng.randint(0, isqrt(top // 2) // 2)  # z = 0 needs x and y even
        y = isqrt(top - x * x)
        points.add((x, y - y % 2, 0))
    z = isqrt(top // 10)
    points.add((0, 0, z - z % 2))
    return np.array(sorted(points), dtype=np.int64)


@pytest.mark.parametrize(
    "lo, hi",
    [(2**24 - 10**5, 2**24), (2**24 + 1, 2**24 + 10**5), (MAX_N - 10**6, MAX_N)],
    ids=["int64", "object", "max-n"],
)
def test_matches_oracle_around_the_int64_bound(lo, hi):
    # just below and just above 2**24, where blocks once went over to python
    # ints (hence the id "object"), and just below MAX_N, up to which int64 is
    # proven exact; every case now runs int64 rows
    reps = np.concatenate([_domain_points(lo, hi, 300, seed=lo), _edge_points(hi, 20, seed=hi)])
    ns = _degrees(reps)
    assert lo <= ns.min() and ns.max() <= hi
    rows = _check_rows(ns, reps)
    assert rows.dtype == np.int64
    # the same block on python ints, where nothing can wrap, gives the same rows
    big = reps.astype(object)
    x, y, _ = big.T
    assert rows.tolist() == kernels._classes_block(big, kernels._xgcd(-2 * y, -2 * x)).tolist()


@pytest.mark.parametrize(
    "reps",
    [
        lambda: orbit_reps(RANGE_N),
        lambda: np.concatenate([_domain_points(MAX_N - 10**6, MAX_N, 300, seed=1), _edge_points(MAX_N, 20, seed=2)]),
        lambda: degree_reps(MAX_N - 1),
    ],
    ids=["range", "max-n", "degree-max-n-1"],
)
def test_gram_entries_within_the_stated_bounds(monkeypatch, reps):
    # the bounds derived next to MAX_N: g11 <= 16 n, |g12| <= 28 n and g22 <= 49 n, on python
    # ints, where nothing can wrap
    reps = reps()
    grams = []
    check = kernels._check_gram
    monkeypatch.setattr(kernels, "_check_gram", lambda *gram: grams.append(gram) or check(*gram))
    big = reps.astype(object)
    x, y, _ = big.T
    kernels._classes_block(big, kernels._xgcd(-2 * y, -2 * x))
    [(g11, g12, g21, g22)] = grams
    n = _degrees(reps).astype(object)
    assert (g12 == g21).all()
    assert (g11 <= 16 * n).all()
    assert (abs(g12) <= 28 * n).all()
    assert (g22 <= 49 * n).all()


@pytest.mark.parametrize(
    "point",
    [(1, 1, 1), (3, 3, 3), (2, 2, 2), (6, 6, 6), (0, 2, 2), (4, 4, 0), (0, 0, 2), (0, 0, 4)],
    ids=["h-1", "h-3", "r-h-2", "r-h-6", "r-half-h-2", "r-half-h-4", "flat-2", "flat-4"],
)
def test_divisibility_from_one_gcd(point):
    # r is h = gcd(x, y, z) = gcd(2 lam, 2 mu, delta) when x, y and z have one lowest set bit
    # (x & -x == y & -y == z & -z), else h / 2
    reps = np.array([point])
    [row] = orbit_classes(_degrees(reps), reps).tolist()
    assert row[4] == divisibility(canonical_member(*point))[0]


def test_euclid_per_pair_across_blocks(monkeypatch):
    # the extended gcd runs once per distinct (x, y); with blocks of 5 rows, the
    # rows of one pair (which differ in z) fall in many blocks
    reps = orbit_reps(300)
    ns = _degrees(reps)
    pairs = len(np.unique(reps[:, :2], axis=0))
    assert pairs < len(reps) // 2
    want = orbit_classes(ns, reps)
    calls = []
    xgcd = kernels._xgcd
    monkeypatch.setattr(kernels, "_xgcd", lambda a, b: calls.append(len(a)) or xgcd(a, b))
    monkeypatch.setattr(kernels, "_ROWS", 5)
    assert (_check_rows(ns, reps) == want).all()
    assert calls == [pairs]


def test_degree_guard():
    point = np.array([[0, 0, 0]])
    for n in (0, MAX_N + 1):
        with pytest.raises(ValueError, match=f"need 1 <= n <= {MAX_N}"):
            orbit_classes(np.array([n]), point)


# ---------------------------------------------------------------------------
# the batched pieces against their scalar counterparts


def _forms(max_entry):
    """Positive definite (a, b, c) with entries up to about max_entry."""
    return st.tuples(
        st.integers(1, max_entry), st.integers(-max_entry, max_entry), st.integers(1, max_entry)
    ).filter(lambda f: 4 * f[0] * f[2] > f[1] * f[1])


@pytest.mark.parametrize("dtype, max_entry", [(np.int64, 2**40), (object, 2**200)], ids=["int64", "object"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reduce_matches_canonical(dtype, max_entry, data):
    forms = data.draw(st.lists(_forms(max_entry) | _forms(50), min_size=1, max_size=40))
    a, b, c = (np.array(col, dtype=dtype) for col in zip(*forms))
    reduced, (p, q, r, s) = kernels._reduce(a, b, c)
    kernels._check_witness((a, b, c), reduced, (p, q, r, s))
    for i, f in enumerate(forms):
        want = canonical(EvenBinaryForm(*f)).triple()
        assert tuple(int(col[i]) for col in reduced) == want, f
        t = ((int(p[i]), int(q[i])), (int(r[i]), int(s[i])))
        assert transform(EvenBinaryForm(*f), t).triple() == want


_ints = st.integers(-(2**40), 2**40)


@given(st.lists(st.tuples(_ints, _ints), min_size=1, max_size=30))
def test_xgcd_matches_scalar(pairs):
    a, b = (np.array(col, dtype=np.int64) for col in zip(*pairs))
    got = np.stack(kernels._xgcd(a, b), axis=1).tolist()
    assert got == [list(_xgcd(x, y)) for x, y in pairs]


# ---------------------------------------------------------------------------
# every guard raises its named error


@pytest.mark.parametrize(
    "point",
    [[3, 1, 1], [-1, 1, 1], [1, 1, -1], [0, 1, 1], [1, 2, 1]],
    ids=["x>y", "x<0", "z<0", "parity-x", "parity-y"],
)
def test_domain_guard(point):
    with pytest.raises(EnumerationAnomaly, match="fundamental domain") as exc:
        orbit_classes(np.array([5]), np.array([point]))
    assert exc.value.n == 5


def test_domain_guard_before_the_pair_key():
    # x, y spans of 2**40 + 1 and 2**24 - 1 would need 2**64 keys: the domain guard fires
    # first, not SortKeyAnomaly
    with pytest.raises(EnumerationAnomaly, match=r"\(1099511627776, 16777216, 0\) is outside") as exc:
        orbit_classes(np.array([1, 7]), np.array([[0, 2, 0], [2**40, 2**24, 0]]))
    assert exc.value.n == 7


def test_norm_guard():
    with pytest.raises(EnumerationAnomaly, match="does not have norm 20"):
        orbit_classes(np.array([5, 5]), np.array([[1, 1, 1], [0, 2, 0]]))


def _classify_3():
    return orbit_classes(np.array([3]), np.array([[1, 1, 1]]))


def _patch_block(monkeypatch, old, new):
    """Replace the one occurrence of old in kernels._classes_block's source by new."""
    source = inspect.getsource(kernels._classes_block)
    assert source.count(old) == 1, old
    namespace = dict(vars(kernels))
    exec(source.replace(old, new), namespace)
    monkeypatch.setattr(kernels, "_classes_block", namespace["_classes_block"])


@pytest.mark.parametrize(
    "fault",
    [
        lambda mp: mp.setattr(kernels, "_xgcd", lambda a, b: (a * 0 + 1, a * 0, a * 0)),  # wrong cofactors
        # G rep is not the functional used
        lambda mp: _patch_block(mp, "w3 = x + y - 10 * z", "w3 = x + y + 10 * z"),
        # u2's split point is not u2
        lambda mp: _patch_block(mp, "2 * u2[1] - u2[2]", "2 * u2[1] + u2[2]"),
    ],
    ids=["cofactors", "functional", "functional-asymmetric"],
)
def test_orthogonality_guard(monkeypatch, fault):
    fault(monkeypatch)
    with pytest.raises(ComplementAnomaly, match="not both orthogonal"):
        _classify_3()


@pytest.mark.parametrize(
    "gram, message",
    [
        ([[4, 2], [0, 4]], "is not symmetric"),
        ([[2, 0], [0, 4]], "not divisible by 4"),
        ([[4, 0], [0, 6]], "not divisible by 4"),
        ([[4, 1], [1, 4]], "odd off-diagonal"),
        ([[-4, 0], [0, 4]], "not positive definite"),
        ([[0, 0], [0, 4]], "not positive definite"),
    ],
    ids=["symmetric", "diagonal-11", "diagonal-22", "off-diagonal", "negative", "zero"],
)
def test_gram_guards(gram, message):
    good = [[4, 2], [2, 8]]
    with pytest.raises(ComplementAnomaly, match=message):
        kernels._check_gram(*(np.array([good[i][j], gram[i][j], good[i][j]]) for i in (0, 1) for j in (0, 1)))


# faults past the orthogonality check, in the Gram entries or the form of the point (1, 1, 1),
# whose complement's Gram matrix is [[8, 16], [16, 92]]
@pytest.mark.parametrize(
    "old, new, message",
    [
        ("g21 = X2 * X1 + Y2 * Y1", "g21 = X2 * X1 - Y2 * Y1", "Gram matrix .* is not symmetric"),
        ("+ 10 * Z2 * Z2", "+ Z2 * Z2", "Gram matrix .* not divisible by 4"),
        ("g11 = X1 * X1 + Y1 * Y1", "g11 = X1 * X1 - Y1 * Y1", "Gram matrix .* not positive definite"),  # g11 = 0
        ("g12 // 2,", "g12,", r"the form .* not positive definite"),  # (2, 16, 23) is indefinite
    ],
    ids=["symmetric", "diagonal", "zero", "indefinite"],
)
def test_wrong_gram_reaches_the_gram_guards(monkeypatch, old, new, message):
    _patch_block(monkeypatch, old, new)
    with pytest.raises(ComplementAnomaly, match=message):
        _classify_3()


@pytest.mark.parametrize(
    "form",
    [(1, 3, 1), (1, 2, 1), (3, 12, 12), (2, 1, -3), (4, 0, 0)],
    ids=["indefinite", "degenerate", "degenerate-shifted", "negative-c", "zero-c"],
)
def test_reduce_rejects_forms_that_are_not_positive_definite(form):
    with pytest.raises(ComplementAnomaly, match="not positive definite"):
        kernels._reduce(*(np.array([e]) for e in form))


@pytest.mark.parametrize(
    "form, reduced, witness",
    [
        ((2, -8, 23), (2, 0, 15), (1, 0, 0, 1)),  # the identity does not carry the form there
        ((2, 1, 5), (2, -1, 5), (1, 0, 0, -1)),  # carries it, with det -1
        ((2, -8, 23), (2, -8, 23), (1, 0, 0, 1)),  # b outside (-a, a]
        ((2, -1, 2), (2, -1, 2), (1, 0, 0, 1)),  # a = c with b < 0
    ],
    ids=["witness", "det", "inequalities", "sign"],
)
def test_witness_guard(form, reduced, witness):
    with pytest.raises(ReductionAnomaly, match="not the canonical reduced form"):
        kernels._check_witness(*(tuple(np.array([e]) for e in part) for part in (form, reduced, witness)))

