import pytest

from k3m20.representability import is_representable
from oracles import representable_range


# the int64 numpy table scan of 4n - 10 delta^2 = x^2 + y^2
@pytest.mark.parametrize("scan", [representable_range], ids=["numpy"])
def test_representable_range_agrees(scan):
    flags = scan(500)
    assert not flags[0]
    for n in range(1, 501):
        assert bool(flags[n]) == is_representable(n), n
