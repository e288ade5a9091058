import dataclasses

import pytest

from k3m20 import golden
from k3m20.golden import (
    GOLDEN_ROWS,
    NON_REPRESENTABLE_GOLDEN,
    GoldenDiff,
    golden_check,
)
from k3m20.lattice import norm
from k3m20.polarizations import classify
from oracles import documented_corrections


def test_rows_cover_expected_degrees():
    assert sorted({r.n for r in GOLDEN_ROWS}) == [1, 2, 3, 4, 5, 7, 8, 9, 10, 15, 18, 30, 45, 90]
    assert len(GOLDEN_ROWS) == 22
    assert NON_REPRESENTABLE_GOLDEN == (6,)


def test_rows_are_self_consistent_after_corrections():
    for row in GOLDEN_ROWS:
        assert row.l_squared == 4 * row.n
        assert row.want_q == 2 * row.n * row.n - 3 * row.n + 1
        a, b, c = row.want_form
        d = 4 * a * c - b * b
        assert d * row.want_index**2 == 160 * row.n
        assert row.embeddings
        for v in row.embeddings:
            assert norm(v) == row.l_squared


def test_corrected_rows_carry_notes():
    for row in GOLDEN_ROWS:
        overridden = any(
            x is not None for x in (row.q_expected, row.form_expected, row.index_expected)
        )
        assert overridden == bool(row.note)


def test_documented_corrections():
    assert set(documented_corrections()) == {
        (1, (1, 0, 10), "q"),
        (7, (2, 0, 35), "q"),
        (7, (2, 0, 35), "index"),
        (15, (2, 0, 3), "index"),
        (15, (5, 0, 25), "form"),
        (15, (5, 0, 25), "index"),
    }


def test_golden_check_classifies_each_degree_once(monkeypatch):
    calls = []
    monkeypatch.setattr(golden, "classify", lambda n: calls.append(n) or classify(n))
    assert golden_check().ok
    assert sorted(calls) == sorted({*NON_REPRESENTABLE_GOLDEN, *(r.n for r in GOLDEN_ROWS)})


def test_golden_check_passes():
    result = golden_check()
    assert result.ok
    assert result.diffs == ()
    assert len(result.lines) == len(GOLDEN_ROWS) + len(NON_REPRESENTABLE_GOLDEN)
    assert all(": ok" in line for line in result.lines)


def test_golden_check_flags_injected_index_fault():
    rows = list(GOLDEN_ROWS)
    i = next(k for k, r in enumerate(rows) if r.n == 3)
    rows[i] = dataclasses.replace(rows[i], index=3)
    result = golden_check(tuple(rows))
    assert not result.ok
    index_diffs = [d for d in result.diffs if d.field == "index"]
    assert len(index_diffs) == 1
    assert index_diffs[0].n == 3 and index_diffs[0].expected == 3
    assert any("FAIL" in line for line in result.lines)


def test_golden_check_flags_injected_form_fault():
    rows = list(GOLDEN_ROWS)
    i = next(k for k, r in enumerate(rows) if r.n == 2)
    rows[i] = dataclasses.replace(rows[i], form=(1, 0, 5))
    result = golden_check(tuple(rows))
    assert not result.ok
    fields = {d.field for d in result.diffs}
    assert "tx" in fields
    assert "class-set" in fields


def test_golden_check_flags_injected_count_fault():
    rows = list(GOLDEN_ROWS)
    i = next(k for k, r in enumerate(rows) if r.n == 5)
    rows[i] = dataclasses.replace(rows[i], q=37)
    result = golden_check(tuple(rows))
    assert [d.field for d in result.diffs] == ["q"]


def _replace_row(degree, **changes):
    """GOLDEN_ROWS with the first row of the degree changed."""
    rows = list(GOLDEN_ROWS)
    i = next(j for j, r in enumerate(rows) if r.n == degree)
    rows[i] = dataclasses.replace(rows[i], **changes)
    return tuple(rows)


@pytest.mark.parametrize(
    "degree, changes, diff",
    [
        (1, {"embeddings": ((1, 1, 1),)}, "n=1 form=(1, 0, 10): embedding-norm: expected 4, got 12"),
        (
            9,
            {"embeddings": ((3, 0, 1),)},
            "n=9 form=(1, 0, 10): embedding-class: expected (1, 0, 10), got (9, 6, 11)",
        ),
        (3, {"l_squared": 13}, "n=3 form=(2, 0, 15): l_squared: expected 13, got 12"),
    ],
    ids=["embedding-norm", "embedding-class", "l_squared"],
)
def test_golden_check_flags_one_injected_row_fault(degree, changes, diff):
    result = golden_check(_replace_row(degree, **changes))
    assert list(map(str, result.diffs)) == [diff]
    assert [line.split(":")[0] for line in result.lines if "FAIL" in line] == [diff.split(":")[0]]


def test_golden_check_flags_a_missing_orbit(monkeypatch):
    def lose_first_orbit(n):
        rep = classify(n)
        return dataclasses.replace(rep, orbits=rep.orbits[1:]) if n == 5 else rep

    monkeypatch.setattr(golden, "classify", lose_first_orbit)
    result = golden_check()
    assert list(map(str, result.diffs)) == [
        "n=5 form=(5, 0, 10): embedding-orbit: expected (0, 1, -1), got None"
    ]
    assert "n=5 form=(5, 0, 10): FAIL (q=36, I=2)" in result.lines


def test_golden_check_flags_a_row_of_a_non_representable_degree():
    result = golden_check(_replace_row(2, n=6, l_squared=24))
    assert list(map(str, result.diffs)) == [
        "n=6 form=(2, 2, 3): representable: expected True, got False",
        "n=6 form=(2, 2, 3): q: expected 3, got 55",
        "n=6 form=(2, 2, 3): tx: expected (2, 2, 3), got []",
        "n=6 form=(2, 2, 3): embedding-norm: expected 24, got 8",
        "n=6 form=(0, 0, 0): class-set: expected [(2, 2, 3)], got []",
    ]
    assert result.lines[0] == "n=6: ok (no embedding, as published)"
    assert result.lines[-1] == "n=6: FAIL (class sets differ)"


def test_golden_check_flags_an_embedding_at_the_non_representable_degree(monkeypatch):
    monkeypatch.setattr(golden, "classify", lambda n: classify(7 if n == 6 else n))
    result = golden_check()
    assert list(map(str, result.diffs)) == ["n=6 form=(0, 0, 0): representable: expected False, got True"]
    assert result.lines[0] == "n=6: FAIL (expected no embedding)"
    assert result.lines[1:] == golden_check().lines[1:]


def test_golden_check_on_row_subset():
    subset = tuple(r for r in GOLDEN_ROWS if r.n in (3, 45))
    result = golden_check(subset)
    assert result.ok


def test_diff_rendering():
    d = GoldenDiff(n=3, form=(2, 0, 15), field="index", expected=3, got=[2])
    assert str(d) == "n=3 form=(2, 0, 15): index: expected 3, got [2]"
