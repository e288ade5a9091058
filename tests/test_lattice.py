from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3m20.lattice import GRAM, inner, norm
from oracles import GRAM_DET, check_gram2, divisibility, is_primitive, mat_det, mat_vec, orthogonal_complement

coords = st.integers(min_value=-10**6, max_value=10**6)
big_coords = st.integers(min_value=-(10**50), max_value=10**50)
vectors = st.tuples(coords, coords, coords)
big_vectors = st.tuples(big_coords, big_coords, big_coords)


def split_norm(v):
    lam, mu, delta = v
    return (2 * lam - delta) ** 2 + (2 * mu - delta) ** 2 + 10 * delta**2


def solve_in_span(basis, target):
    """Integer coefficients (x, y) with x*u1 + y*u2 == target, or None."""
    u1, u2 = basis
    m11 = sum(a * a for a in u1)
    m12 = sum(a * b for a, b in zip(u1, u2))
    m22 = sum(a * a for a in u2)
    b1 = sum(a * t for a, t in zip(u1, target))
    b2 = sum(a * t for a, t in zip(u2, target))
    det = m11 * m22 - m12 * m12
    x_num = b1 * m22 - b2 * m12
    y_num = b2 * m11 - b1 * m12
    if det == 0 or x_num % det or y_num % det:
        return None
    x, y = x_num // det, y_num // det
    if all(x * a + y * b == t for a, b, t in zip(u1, u2, target)):
        return x, y
    return None


def test_gram_constants():
    # symmetric, even, positive definite (leading minors 4, 16, 160), det 160
    assert GRAM == ((4, 0, -2), (0, 4, -2), (-2, -2, 12))
    assert all(GRAM[i][j] == GRAM[j][i] for i in range(3) for j in range(3))
    assert all(GRAM[i][i] % 2 == 0 for i in range(3))
    minors = (GRAM[0][0], GRAM[0][0] * GRAM[1][1] - GRAM[0][1] ** 2, mat_det(GRAM))
    assert minors == (4, 16, GRAM_DET)
    assert GRAM_DET == 160


def test_inner_examples():
    e, f, h = (1, 0, 0), (0, 1, 0), (0, 0, 1)
    assert norm(e) == norm(f) == 4
    assert norm(h) == 12
    assert inner(e, f) == 0
    assert inner(e, h) == inner(f, h) == -2
    assert inner((-1, 1, 0), (6, 0, 1)) == -24
    assert mat_vec(GRAM, h) == (-2, -2, 12)


@given(big_vectors)
def test_norm_matches_split_form(v):
    assert inner(v, v) == split_norm(v)


@given(big_vectors)
def test_norm_multiple_of_four_and_positive(v):
    n = norm(v)
    assert n % 4 == 0
    assert n >= 0
    assert (n == 0) == (v == (0, 0, 0))


@given(big_vectors, big_vectors)
def test_inner_even_and_symmetric(v, w):
    assert inner(v, w) % 2 == 0
    assert inner(v, w) == inner(w, v)


@given(vectors, vectors, st.integers(min_value=-50, max_value=50))
def test_inner_bilinear(v, w, r):
    rv = (r * v[0], r * v[1], r * v[2])
    assert inner(rv, w) == r * inner(v, w)
    s = (v[0] + w[0], v[1] + w[1], v[2] + w[2])
    assert norm(s) == norm(v) + 2 * inner(v, w) + norm(w)


def test_primitivity():
    assert is_primitive((1, 2, 0))
    assert not is_primitive((2, 4, 0))
    assert divisibility((3, 6, 0)) == (3, (1, 2, 0))
    assert divisibility((-2, 0, 0)) == (2, (-1, 0, 0))
    assert divisibility((1, 1, 1)) == (1, (1, 1, 1))
    with pytest.raises(ValueError):
        is_primitive((0, 0, 0))
    with pytest.raises(ValueError):
        divisibility((0, 0, 0))


@given(vectors)
def test_divisibility_splits(v):
    if v == (0, 0, 0):
        return
    r, root = divisibility(v)
    assert r >= 1
    assert is_primitive(root)
    assert tuple(r * c for c in root) == v


def test_complement_of_h():
    basis, gram = orthogonal_complement((0, 0, 1))
    # same sublattice as the reference basis (f - e, h + 6e)
    for ref in ((-1, 1, 0), (6, 0, 1)):
        assert solve_in_span(basis, ref) is not None
    for u in basis:
        assert solve_in_span(((-1, 1, 0), (6, 0, 1)), u) is not None
        assert inner(u, (0, 0, 1)) == 0
    assert gram[0][0] * gram[1][1] - gram[0][1] ** 2 == 480


def test_complement_errors_and_invariants():
    with pytest.raises(ValueError):
        orthogonal_complement((0, 0, 0))
    for v in [(1, 0, 0), (1, 1, 2), (-3, 5, 1), (2, 2, -1), (7, 0, -2)]:
        basis, gram = orthogonal_complement(v)
        check_gram2(gram)
        assert inner(basis[0], v) == 0 and inner(basis[1], v) == 0
        assert gram == ((norm(basis[0]), inner(*basis)), (inner(*basis), norm(basis[1])))


@given(vectors)
def test_complement_orthogonality(v):
    if v == (0, 0, 0):
        return
    basis, gram = orthogonal_complement(v)
    assert inner(basis[0], v) == 0
    assert inner(basis[1], v) == 0
    assert gram[0][0] > 0 and gram[0][0] * gram[1][1] > gram[0][1] ** 2


def test_complement_saturated():
    # a scaled vector has the same complement as its primitive root
    for v, w in [((2, 0, 0), (1, 0, 0)), ((3, 3, 0), (1, 1, 0)), ((0, 0, -2), (0, 0, 1))]:
        bv, _ = orthogonal_complement(v)
        bw, _ = orthogonal_complement(w)
        for u in bv:
            assert solve_in_span(bw, u) is not None
        for u in bw:
            assert solve_in_span(bv, u) is not None


def test_check_gram2_rejections():
    with pytest.raises(ValueError, match="symmetric"):
        check_gram2(((4, 2), (0, 4)))
    with pytest.raises(ValueError, match="diagonal"):
        check_gram2(((2, 0), (0, 4)))
    with pytest.raises(ValueError, match="off-diagonal"):
        check_gram2(((4, 1), (1, 4)))
    with pytest.raises(ValueError, match="definite"):
        check_gram2(((4, 12), (12, 4)))
    check_gram2(((4, 2), (2, 4)))


def test_gcd_content_of_gram_rows():
    # every row of G has content 2, so complements divide out a factor
    for row in GRAM:
        assert gcd(gcd(row[0], row[1]), row[2]) == 2
