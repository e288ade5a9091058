import numpy as np
import pytest

from k3m20 import kernels
from k3m20.binary_forms import EvenBinaryForm, transform


@pytest.fixture()
def restore_backend():
    before = kernels.active_backend()
    yield
    kernels.set_backend(before)


BACKENDS = ["numpy"] + (["numba"] if kernels.HAVE_NUMBA else [])


def test_backend_selection(restore_backend):
    assert kernels.set_backend("numpy") == "numpy"
    assert kernels.active_backend() == "numpy"
    auto = kernels.set_backend("auto")
    assert auto in ("numba", "numpy")
    with pytest.raises(ValueError):
        kernels.set_backend("cuda")


@pytest.mark.skipif(not kernels.HAVE_NUMBA, reason="numba not importable")
def test_warmup_reports_backend(restore_backend):
    kernels.set_backend("numba")
    assert kernels.warmup() == "numba"


@pytest.mark.parametrize("backend", BACKENDS)
def test_two_square_tables(backend, restore_backend):
    kernels.set_backend(backend)
    even_ok, odd_ok = kernels.two_square_tables(100)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_representable_range_agrees(backend, restore_backend):
    from k3m20.representability import is_representable

    kernels.set_backend(backend)
    flags = kernels.representable_range(500)
    for n in range(1, 501):
        assert bool(flags[n]) == is_representable(n)


def test_backends_produce_identical_arrays(restore_backend):
    if not kernels.HAVE_NUMBA:
        pytest.skip("numba not importable")
    pairs = []
    for backend in ("numba", "numpy"):
        kernels.set_backend(backend)
        pairs.append(
            (
                kernels.representable_range(300),
                kernels.unimodular_entries(2),
                kernels.transform_forms(2, 1, 3, kernels.unimodular_entries(2)),
            )
        )
    for a, b in zip(pairs[0], pairs[1]):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("backend", BACKENDS)
def test_unimodular_entries(backend, restore_backend):
    kernels.set_backend(backend)
    ts = kernels.unimodular_entries(1)
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


@pytest.mark.parametrize("backend", BACKENDS)
def test_transform_forms_matches_exact(backend, restore_backend):
    kernels.set_backend(backend)
    ts = kernels.unimodular_entries(3)
    out = kernels.transform_forms(4, -3, 7, ts)
    f = EvenBinaryForm(4, -3, 7)
    for row, img in zip(ts, out):
        t = ((int(row[0]), int(row[1])), (int(row[2]), int(row[3])))
        assert transform(f, t).triple() == tuple(int(x) for x in img)


def test_guards():
    with pytest.raises(ValueError):
        kernels.unimodular_entries(0)
    with pytest.raises(ValueError):
        kernels.unimodular_entries(13)
    with pytest.raises(ValueError):
        kernels.transform_forms(2**21, 0, 1, np.zeros((1, 4), dtype=np.int64))
    with pytest.raises(ValueError):
        kernels.two_square_tables(-1)


def test_env_var_selects_backend():
    import os
    import subprocess
    import sys

    code = "import k3m20.kernels as k; print(k.active_backend())"
    for env_val, expected in (("numpy", "numpy"), ("auto", kernels._resolve("auto"))):
        env = dict(os.environ, K3M20_BACKEND=env_val)
        out = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        assert out.stdout.strip() == expected
