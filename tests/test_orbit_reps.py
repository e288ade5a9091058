"""Orbit representatives and their closed-form orbit data against the exact reference.

The reference enumerates every vector of norm 4n
(`tests/oracles.py::enumerate_solutions`, pure python) and builds each
orbit as the set of its 16 images (`tests/oracles.py::orbit`).  The
brute-force `tests/oracles.py::degree_points` must return exactly the
reference's vectors in the fundamental domain 0 <= x <= y, z >= 0 of the
split coordinates x = 2 lam - delta, y = 2 mu - delta, z = delta, and the
walk `orbit_reps(N)` exactly their union over the degrees 1..N; the
`canonical` and `orbit_size` that `classify` derives from each of them in
closed form must be the orbit's lexicographic minimum and its size.
"""

import dataclasses
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3m20.polarizations import classify, classify_range
from k3m20.kernels import MAX_RANGE_N, _isqrt_np, orbit_reps
from oracles import degree_points, enumerate_solutions, orbit

RANGE_N = 2000


@pytest.fixture(scope="module")
def range_reports():
    return classify_range(RANGE_N)


def _check_degree(n, report):
    sols = enumerate_solutions(n)
    domain = sorted(
        (2 * lam - d, 2 * mu - d, d) for lam, mu, d in sols if 0 <= 2 * lam - d <= 2 * mu - d and d >= 0
    )
    assert sorted(map(tuple, degree_points(n).tolist())) == domain, n
    covered: set = set()
    for lam, mu, delta, size, *_ in report.orbits.tolist():
        canonical = (lam, mu, delta)
        orb = orbit(canonical)
        assert canonical == min(orb), (n, canonical)
        assert size == len(orb), (n, canonical)
        assert not orb & covered
        covered |= orb
    assert covered == set(sols), n
    assert int(report.orbits[:, 3].sum()) == len(sols), n


def test_reps_and_orbit_data_match_reference_up_to_2000(range_reports):
    for report in range_reports:
        _check_degree(report.n, report)


@settings(max_examples=10, deadline=None)
@given(st.integers(RANGE_N + 1, 10**6))
@example(10**6)
def test_reps_and_orbit_data_match_reference_large_n(n):
    _check_degree(n, classify(n))


def _fields(report):
    classes = report.classes
    columns = [getattr(classes, field.name).tolist() for field in dataclasses.fields(classes)]
    return (
        report.n, report.l_squared, report.representable, report.orbits.tolist(), columns,
        report.statuses, report.quadric_count, report.ambient_dim,
    )


def test_classify_range_matches_per_degree(range_reports):
    assert [_fields(r) for r in range_reports] == [_fields(classify(n)) for n in range(1, RANGE_N + 1)]


def test_range_is_union_of_degrees():
    reps = orbit_reps(300)
    assert reps.dtype == np.int64 and reps.shape[1] == 3
    # ordered by z, x, y, each point once
    zxy = list(map(tuple, reps[:, [2, 0, 1]].tolist()))
    assert zxy == sorted(set(zxy))
    per_degree = sorted(tuple(r) for n in range(1, 301) for r in degree_points(n).tolist())
    assert sorted(map(tuple, reps.tolist())) == per_degree


def test_orbit_reps_guards(monkeypatch):
    # refused before any array is built
    monkeypatch.setattr(np, "arange", None)
    for max_n in (0, MAX_RANGE_N + 1):
        with pytest.raises(ValueError, match=f"need 1 <= max_n <= {MAX_RANGE_N}"):
            orbit_reps(max_n)


def test_isqrt_exact_up_to_the_int64_bound():
    # the bound _isqrt_np documents, far above the 4 * MAX_N degree_reps needs
    top = 2**62
    s = math.isqrt(top)
    ms = [0, 1, 2, 3, 4, top, top - 1, s * s, s * s - 1, (s - 1) ** 2, (s - 1) ** 2 - 1]
    ms += [k * k + e for k in (2**26 + 1, 2**30 - 3, 3 * 2**29 + 7) for e in (-1, 0, 1)]
    got = _isqrt_np(np.array(ms, dtype=np.int64)).tolist()
    assert got == [math.isqrt(m) for m in ms]


def test_guards_fire_under_python_optimize():
    code = (
        "import numpy as np\n"
        "from k3m20 import polarizations as p\n"
        "p.degree_reps = lambda n: np.zeros((0, 3), dtype=np.int64)\n"
        "try:\n"
        "    p.classify(5)\n"
        "except p.EnumerationAnomaly as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "EnumerationAnomaly"
