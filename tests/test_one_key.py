"""The one-key sorts: `kernels._one_key` and the package's sorts built on it.

Every multi-column sort in the package is an argsort of one mixed-radix
int64 key, of numpy's default kind: each key is unique, or its ties are equal rows, or
the order of its ties is not used.  Here the key is checked on its own
(ties, negative columns, empty input, the 2**63 bound), `_runs`, the one
multi-column sort-and-group, finds the runs of equal rows, each sort is pinned
to the multi-key `np.lexsort` order it replaced, kept in `tests/oracles.py`
(the orbit order and the class grouping on ranges up to the cap and on
single degrees up to `MAX_N`, `scan`'s distinct forms, and the order of
`degree_reps`' points), and the output is shown not to depend on the order
of ties.
"""

import json

import numpy as np
import pytest

from k3m20 import cli, polarizations
from k3m20.kernels import MAX_N, MAX_RANGE_N, SortKeyAnomaly, _one_key, _runs, orbit_reps
from k3m20.twosquares import degree_reps
from oracles import class_columns, distinct_forms, orbit_order

# ---------------------------------------------------------------------------
# the key


def test_one_key_sorts_as_lexsort_with_stable_ties():
    rng = np.random.default_rng(0)
    columns = [rng.integers(-3, 4, 600), rng.integers(-10**12, 10**12, 600) // 10**11, rng.integers(0, 3, 600)]
    key = _one_key(*columns)
    assert key.dtype == np.int64
    # many rows tie on all three columns, and keep their input order
    assert (np.argsort(key, kind="stable") == np.lexsort(columns[::-1])).all()
    # equal keys are exactly equal rows
    same_rows = np.logical_and.reduce([c[:, None] == c[None, :] for c in columns])
    assert ((key[:, None] == key[None, :]) == same_rows).all()


def test_one_key_of_negative_columns():
    # digits -5 - (-7) and 3 - (-3) etc., radices 3 and 7
    key = _one_key(np.array([-5, -5, -7]), np.array([3, -3, 0]))
    assert key.tolist() == [2 * 7 + 6, 2 * 7 + 0, 0 * 7 + 3]


def test_one_key_of_empty_columns():
    key = _one_key(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64))
    assert key.dtype == np.int64 and key.shape == (0,)


def test_one_key_bound():
    # radices 7 and (2**63 - 1) / 7 multiply to 2**63 - 1: the largest key is 2**63 - 2
    top = (2**63 - 1) // 7
    key = _one_key(np.array([0, 6, 6]), np.array([0, top - 1, top - 2]))
    assert key.tolist() == [0, 2**63 - 2, 2**63 - 3]
    for columns in (
        (np.array([-(2**62), 2**62 - 1]),),  # one radix of exactly 2**63
        (np.array([0, 2**32 - 1]), np.array([5, 5 + 2**31 - 1])),  # 2**32 * 2**31 = 2**63
        (np.array([0, 6]), np.array([0, top])),  # 7 * (top + 1), just past
    ):
        with pytest.raises(SortKeyAnomaly, match=r"sort key anomaly: .* past int64"):
            _one_key(*columns)


def test_runs_group_equal_rows():
    rng = np.random.default_rng(1)
    columns = [rng.integers(-2, 3, 400), rng.integers(0, 4, 400)]
    order, starts = _runs(*columns)
    rows = np.stack(columns, axis=1)[order]
    # the rows in lexicographic order, each run of equal rows starting at one of starts
    assert rows.tolist() == sorted(rows.tolist())
    assert starts.tolist() == [0, *np.flatnonzero((rows[1:] != rows[:-1]).any(axis=1)) + 1]
    assert rows[starts].tolist() == np.unique(rows, axis=0).tolist()
    order, starts = _runs(np.zeros(0, dtype=np.int64))
    assert order.shape == starts.shape == (0,)


# ---------------------------------------------------------------------------
# each sort against its lexsort reference


def _check_sorts(lo, hi, reps):
    """_orbit_rows' order and _classes' grouping of degrees lo..hi against the lexsort orders."""
    ns, rows = polarizations._orbit_rows(lo, hi, reps)
    x, y, z = reps[orbit_order(reps)].T
    assert (ns == (x * x + y * y + 10 * z * z) // 4).all()
    assert (rows[:, :3] == np.stack([(-y - z) // 2, (-x - z) // 2, -z], axis=1)).all()
    table = polarizations._classes(ns, rows)
    for name, column in class_columns(ns, rows).items():
        assert (getattr(table, name) == column).all(), name
    return table


@pytest.mark.parametrize("max_n", [*range(1, 61), 2000, MAX_RANGE_N])
def test_range_sorts_match_lexsort(capsys, monkeypatch, max_n):
    table = _check_sorts(1, max_n, orbit_reps(max_n))
    # scan's distinct forms and non-representable degrees, from the same table
    monkeypatch.setattr(cli, "class_table", lambda n: table)
    assert cli.main(["scan", "--max-n", str(max_n), "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["tx_classes"] == distinct_forms(table.a, table.b, table.c).tolist()
    degrees = set(table.n.tolist())
    assert payload["non_representable"] == [n for n in range(1, max_n + 1) if n not in degrees]


@pytest.mark.parametrize(
    "n",
    [
        1,
        90,
        3999999,
        999707100,  # 2^2 3 5^2 7 17 41 683: primes 1 (mod 8) divide n, and 5 divides every m
        MAX_N - 1,  # 1999999999: the spans of (a, b, c) would need 65 bits, those of (a, b, I) 36
    ],
)
def test_single_degree_sorts_match_lexsort(n):
    reps = degree_reps(n)
    # degree_reps' one-key sort of (row, x, y) leaves distinct points ordered by z, x, y
    x, y, z = reps.T
    assert (np.lexsort((y, x, z)) == np.arange(len(reps))).all()
    assert len(np.unique(reps, axis=0)) == len(reps)
    _check_sorts(n, n, reps)


# ---------------------------------------------------------------------------
# no output depends on the order of ties


def _reversed_ties(argsort):
    """np.argsort of a 1-d key with each run of equal keys in reverse input order."""

    def patched(key):
        assert key.ndim == 1
        return len(key) - 1 - argsort(key[::-1], kind="stable")

    return patched


def test_reversed_ties_change_no_output(capsys, monkeypatch):
    calls = [["table", "--max-n", "300", "--format", f] for f in ("text", "csv", "json")]
    calls += [["scan", "--max-n", "300", "--format", f] for f in ("text", "json")]
    calls.append(["classify", "--n", "3999999", "--format", "json"])
    want = []
    for argv in calls:
        cli.main(argv)
        want.append(capsys.readouterr().out)
    key = np.array([3, 1, 3, 1, 2])
    assert _reversed_ties(np.argsort)(key).tolist() == [3, 1, 4, 2, 0]
    monkeypatch.setattr(np, "argsort", _reversed_ties(np.argsort))
    for argv, out in zip(calls, want):
        cli.main(argv)
        assert capsys.readouterr().out == out, argv
    _check_sorts(1, 300, orbit_reps(300))
