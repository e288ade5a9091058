"""The brute-force oracles in tests/oracles.py against plainer loops and the exact code."""

import numpy as np
import pytest

from k3m20.representability import is_representable
from oracles import (
    EvenBinaryForm,
    representable_range,
    transform,
    transform_forms,
    two_square_tables,
    unimodular_entries,
)


def test_two_square_tables():
    even_ok, odd_ok = two_square_tables(100)
    # reference by direct double loop
    ref_even = np.zeros(101, dtype=bool)
    ref_odd = np.zeros(101, dtype=bool)
    for x in range(11):
        for y in range(11):
            m = x * x + y * y
            if m <= 100:
                if x % 2 == 0 and y % 2 == 0:
                    ref_even[m] = True
                if x % 2 == 1 and y % 2 == 1:
                    ref_odd[m] = True
    assert np.array_equal(even_ok, ref_even)
    assert np.array_equal(odd_ok, ref_odd)


def test_unimodular_entries():
    ts = unimodular_entries(1)
    dets = ts[:, 0] * ts[:, 3] - ts[:, 1] * ts[:, 2]
    assert np.all(dets == 1)
    assert np.all(np.abs(ts) <= 1)
    # identity is present; lexicographic ordering
    assert [1, 0, 0, 1] in ts.tolist()
    assert ts.tolist() == sorted(ts.tolist())
    # brute-force count over the 3^4 grid
    count = sum(
        1
        for p in (-1, 0, 1)
        for q in (-1, 0, 1)
        for r in (-1, 0, 1)
        for s in (-1, 0, 1)
        if p * s - q * r == 1
    )
    assert len(ts) == count


def test_transform_forms_matches_exact():
    ts = unimodular_entries(3)
    out = transform_forms(4, -3, 7, ts)
    f = EvenBinaryForm(4, -3, 7)
    for row, img in zip(ts, out):
        t = ((int(row[0]), int(row[1])), (int(row[2]), int(row[3])))
        assert transform(f, t).triple() == tuple(int(x) for x in img)


# the int64 numpy table scan of 4n - 10 delta^2 = x^2 + y^2
@pytest.mark.parametrize("scan", [representable_range], ids=["numpy"])
def test_representable_range_agrees(scan):
    flags = scan(500)
    assert not flags[0]
    for n in range(1, 501):
        assert bool(flags[n]) == is_representable(n), n
