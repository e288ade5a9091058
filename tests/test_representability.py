import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3m20.lattice import norm
from k3m20.representability import is_representable, prime_witnesses
from oracles import (
    enumerate_solutions,
    generate_group,
    is_prime,
    is_primitive,
    mat_vec,
    parity_lift,
    representable_range,
    two_squares,
)


def test_closed_form_examples():
    assert is_representable(1)
    assert is_representable(5)
    assert not is_representable(6)
    assert not is_representable(24)  # 4 * 6
    assert not is_representable(96)  # 16 * 6
    assert not is_representable(4**5 * 22)
    assert is_representable(90)
    with pytest.raises(ValueError):
        is_representable(0)
    with pytest.raises(ValueError):
        is_representable(-3)


def test_non_representable_prefix():
    non_rep = [n for n in range(1, 101) if not is_representable(n)]
    assert non_rep[:5] == [6, 22, 24, 38, 54]
    assert non_rep == [6, 22, 24, 38, 54, 70, 86, 88, 96]


def test_closed_form_matches_enumeration_small():
    for n in range(1, 301):
        assert is_representable(n) == bool(enumerate_solutions(n)), n


def test_representable_range_matches_closed_form():
    # brute force over every n <= 10**6 (Dickson's theorem for x^2 + y^2 + 10 z^2), against the
    # closed form on the whole array, and on python ints at 1..10^4 and every 997th n
    flags = representable_range(10**6)
    assert not flags[0]
    assert np.array_equal(flags[1:], is_representable(np.arange(1, 10**6 + 1)))
    scalars = [*range(1, 10**4 + 1), *range(997, 10**6 + 1, 997)]
    assert [is_representable(n) for n in scalars] == flags[scalars].tolist()


def test_enumerate_solutions_basic():
    assert enumerate_solutions(1) == [(-1, 0, 0), (0, -1, 0), (0, 1, 0), (1, 0, 0)]
    assert enumerate_solutions(6) == []
    sols5 = enumerate_solutions(5)
    assert len(sols5) == 24
    assert (1, 2, 0) in sols5 and (0, 1, -1) in sols5
    with pytest.raises(ValueError):
        enumerate_solutions(0)


def test_enumerate_solutions_sorted_and_exact():
    for n in (1, 3, 10, 45, 90, 123):
        sols = enumerate_solutions(n)
        assert sols == sorted(sols)
        assert len(set(sols)) == len(sols)
        assert all(norm(v) == 4 * n for v in sols)


def test_enumeration_closed_under_isometries():
    group = generate_group()
    for n in (3, 5, 9, 45):
        sols = set(enumerate_solutions(n))
        for v in sols:
            for m in group:
                assert mat_vec(m, v) in sols


def test_parity_lift():
    assert parity_lift(2, 0, 0) == (1, 0, 0)
    assert parity_lift(1, 1, 1) == (1, 1, 1)
    assert parity_lift(-3, 5, 1) == (-1, 3, 1)
    with pytest.raises(ValueError):
        parity_lift(1, 2, 1)
    with pytest.raises(ValueError):
        parity_lift(2, 2, 1)


@given(st.tuples(st.integers(-100, 100), st.integers(-100, 100), st.integers(-100, 100)))
def test_parity_lift_inverts_unfolding(v):
    lam, mu, delta = v
    x, y, z = 2 * lam - delta, 2 * mu - delta, delta
    assert parity_lift(x, y, z) == v
    assert norm(v) == x * x + y * y + 10 * z * z


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-3, 50):
        assert is_prime(n) == (n in primes)


def test_two_squares():
    assert two_squares(5) == (1, 2)
    assert two_squares(13) == (2, 3)
    assert two_squares(97) == (4, 9)
    with pytest.raises(ValueError):
        two_squares(7)
    with pytest.raises(ValueError):
        two_squares(9)
    with pytest.raises(ValueError):
        two_squares(2)


def test_infinitude_scan():
    assert prime_witnesses(5) == [(5, (1, 2, 0))]
    ws = prime_witnesses(61)
    assert [p for p, _ in ws] == [5, 13, 17, 29, 37, 41, 53, 61]
    for p, v in ws:
        assert is_prime(p) and p % 4 == 1
        assert v[2] == 0
        assert is_primitive(v)
        assert norm(v) == 4 * p


def test_infinitude_witnesses_give_distinct_norms():
    ws = prime_witnesses(313)  # the 30th prime p = 1 (mod 4)
    assert len(ws) == 30
    ps = [p for p, _ in ws]
    assert ps == sorted(set(ps))
    for p, _ in ws:
        assert is_representable(p)


@pytest.mark.parametrize("max_n", [1, 4, 5, 13, 14, 1000, 20000])
def test_prime_witnesses_match_trial_division(max_n):
    # the sieve and the Hermite-Serret split against trial division and brute force
    want = [(p, (*two_squares(p), 0)) for p in range(max_n + 1) if is_prime(p) and p % 4 == 1]
    assert prime_witnesses(max_n) == want
