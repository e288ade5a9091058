"""The class layer `polarizations.class_table` against per-orbit data and `div_feasible`.

`class_table` groups the orbit rows of `kernels.orbit_classes` into one row
per degree and transcendental class, with the smallest canonical member,
the index, the closed-form obstruction checks and whether some orbit has odd
divisibility.  Here each column is recomputed from the orbit rows in plain
python, the obstruction checks by `div_feasible`'s search, the status
columns and the reports' statuses by `class_statuses` one row at a time, and
each guard of the layer must raise its named error.
"""

from itertools import product
from math import isqrt

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from k3m20 import cli, polarizations
from k3m20.cli import main
from k3m20.kernels import MAX_N, ReductionAnomaly, orbit_reps
from k3m20.polarizations import (
    DOUBLED,
    DOUBLED_DEGREES,
    FEASIBLE,
    INFEASIBLE,
    KNOWN_MODEL,
    MAX_RANGE_N,
    PRIOR_MODELS,
    ClassTable,
    EnumerationAnomaly,
    IndexAnomaly,
    class_table,
    classify,
    classify_range,
    model_verdict,
    quadric_count,
    status_columns,
)
from oracles import class_statuses, degree_points, div_feasible, index_from, table_statuses

RANGE_N = 3000
_COLUMNS = ("n", "a", "b", "c", "d", "lam", "mu", "delta", "index", "div1", "div2", "eq90", "odd")


def _rows(table):
    return list(zip(*(getattr(table, name).tolist() for name in _COLUMNS)))


def _feasible(n, d):
    return tuple(div_feasible(target, n, d) for target in (10, 40, 90))


def _expected_rows(ns, rows):
    """The table rows recomputed one orbit row at a time."""
    classes: dict = {}
    for n, (lam, mu, delta, _, r, a, b, c, d, _) in zip(ns.tolist(), rows.tolist()):
        d0, member, odd = classes.get((n, a, b, c), (d, (lam, mu, delta), False))
        assert d0 == d
        classes[n, a, b, c] = (d, min(member, (lam, mu, delta)), odd or r % 2 == 1)
    return [
        (n, a, b, c, d, *member, index_from(n, d), *_feasible(n, d), odd)
        for (n, a, b, c), (d, member, odd) in sorted(classes.items())
    ]


def test_matches_orbit_rows_and_div_feasible_up_to_3000():
    ns, rows = polarizations._orbit_rows(1, RANGE_N, orbit_reps(RANGE_N))
    table = class_table(RANGE_N)
    assert _rows(table) == _expected_rows(ns, rows)
    # the prior models' hyperelliptic equations are the only solvable ones
    solvable = zip(table.n.tolist(), table.d.tolist(), table.div1 | table.div2 | table.eq90)
    assert {(n, d) for n, d, any_solvable in solvable if any_solvable} == set(PRIOR_MODELS)
    assert table.n.dtype == np.int64 and table.odd.any() and not table.odd.all()


@settings(max_examples=20, deadline=None)
@given(st.integers(RANGE_N + 1, 10**6))
@example(10**6)
def test_classify_feasibility_matches_div_feasible_large_n(n):
    report = classify(n)
    orbits = report.orbits.tolist()
    triples = report.classes.forms()
    members = zip(report.classes.lam.tolist(), report.classes.mu.tolist(), report.classes.delta.tolist())
    assert list(members) == [min(tuple(o[:3]) for o in orbits if tuple(o[5:8]) == t) for t in triples]
    assert triples == sorted({tuple(o[5:8]) for o in orbits})
    flags = zip(report.classes.div1.tolist(), report.classes.div2.tolist(), report.classes.eq90.tolist())
    for flag, d in zip(flags, report.classes.d.tolist()):
        assert flag == _feasible(n, d)


def _fake_rows(pairs):
    """One orbit row per (n, d), each with the form (1, 0, d / 4) or
    (1, 1, (d + 1) / 4) of discriminant d and the index of (n, d), which the
    layer's guards accept."""
    ns = np.array([n for n, _ in pairs], dtype=np.int64)
    rows = [[-1, 0, 0, 1, 1, 1, d % 2, (d + 1) // 4, d, index_from(n, d)] for n, d in pairs]
    return ns, np.array(rows, dtype=np.int64)


def test_closed_form_on_every_index_pair():
    # every (n, d) index_from accepts with d = 4ac - b^2 for some form, so
    # d = 0 or 3 mod 4; this leaves out t = 1 (n d = 10 has no such d), which
    # no class reaches, but not t = 3 (n = 30, d = 3)
    pairs = []
    for n in range(1, 400):
        for i in range(isqrt(160 * n), 0, -1):
            if 160 * n % (i * i) == 0:
                d = 160 * n // (i * i)
                try:
                    index_from(n, d)
                except IndexAnomaly:
                    continue
                pairs.append((n, d))
    assert {(1, 10), (9, 10), (30, 3)} <= set(pairs)  # t = 1 twice, then t = 3
    pairs = sorted((n, d) for n, d in pairs if d % 4 in (0, 3))
    table = polarizations._classes(*_fake_rows(pairs))
    got = zip(*(col.tolist() for col in (table.n, table.d, table.div1, table.div2, table.eq90)))
    # the table orders a degree's rows by form, not by d
    assert sorted(got) == [(n, d, *_feasible(n, d)) for n, d in pairs]
    assert not table.div1.any() and table.div2.any() and table.eq90.any()


def test_class_rows_at_the_bound(capsys):
    # at n = MAX_N, d = 8 (the form (1, 0, 2)) and I = 200000 satisfy d I^2 = 160 n
    ns = np.array([MAX_N], dtype=np.int64)
    rows = np.array([[-1, 0, 0, 1, 1, 1, 0, 2, 8, 200000]], dtype=np.int64)
    table = polarizations._classes(ns, rows)
    assert table.index.tolist() == [200000] and table.n.tolist() == [MAX_N]
    assert not (table.div1[0] or table.div2[0] or table.eq90[0])
    # and quadric_count is exact at its degree
    assert quadric_count(int(table.n[0])) == 2 * MAX_N**2 - 3 * MAX_N + 1
    # and so is the q field the table renders
    cli._write_table("csv", table)
    (row,) = capsys.readouterr().out.splitlines()[1:]
    assert row.split(",")[2] == str(2 * MAX_N**2 - 3 * MAX_N + 1)


def test_every_orbit_row_carries_its_class_index():
    reports = classify_range(500)
    assert sum(len(r.orbits) for r in reports) > sum(len(r.classes) for r in reports)
    for report in reports:
        index = dict(zip(report.classes.forms(), report.classes.index.tolist()))
        for row in report.orbits.tolist():
            assert row[9] == index[tuple(row[5:8])], (report.n, row)


def test_class_table_guards():
    for max_n in (0, MAX_N + 1):
        with pytest.raises(ValueError, match=f"scan limit must be in 1..{MAX_RANGE_N}"):
            class_table(max_n)


@pytest.mark.parametrize("function", [class_table, classify_range], ids=["class_table", "classify_range"])
def test_range_bound_refuses_before_the_walk(monkeypatch, function):
    def walk(max_n):
        raise AssertionError(f"orbit_reps({max_n}) was called")

    monkeypatch.setattr(polarizations, "orbit_reps", walk)
    with pytest.raises(ValueError, match=f"scan limit must be in 1..{MAX_RANGE_N}"):
        function(MAX_RANGE_N + 1)


# ---------------------------------------------------------------------------
# every guard of the layer raises its named error


@pytest.mark.parametrize(
    "column, value",
    [(5, 0), (7, 0), (8, 0), (6, 6)],
    ids=["a", "c", "d", "b^2>ac"],
)
def test_form_guard(column, value):
    # the one class of n = 3 is (2, 0, 15), d = 120; each edit breaks one clause
    ns, rows = polarizations._orbit_rows(3, 3, degree_points(3))
    rows[:, column] = value
    with pytest.raises(ReductionAnomaly, match=r"breaks a, c, d > 0 and b\^2 <= ac"):
        polarizations._classes(ns, rows)


def test_discriminant_guard():
    # d = 9 * 40 at n = 1 without its form (1, 0, 10): the class's d no longer is 4ac - b^2
    ns, rows = polarizations._orbit_rows(1, 5, orbit_reps(5))
    rows[:, 8] *= 9
    with pytest.raises(ReductionAnomaly, match=r"discriminant 360 at n = 1 breaks d = 4ac - b\^2"):
        polarizations._classes(ns, rows)


def test_discriminant_guard_sees_every_orbit():
    # the second orbit of the class (5, 0, 10) of n = 5 with d = 4 * 200 and I = 2 / 2 keeps
    # d I^2 = 160 n but breaks d = 4ac - b^2; grouping by (n, a, b, -I) needs both on every orbit
    ns, rows = polarizations._orbit_rows(1, 5, orbit_reps(5))
    assert ns[4] == ns[5] == 5 and rows[4, 5:10].tolist() == rows[5, 5:10].tolist() == [5, 0, 10, 200, 2]
    rows[5, 8:10] = (800, 1)
    with pytest.raises(ReductionAnomaly, match=r"discriminant 800 at n = 5 breaks d = 4ac - b\^2"):
        polarizations._classes(ns, rows)


def test_index_guard():
    # d = 9 * 40 at n = 1, with the form scaled by 3 to (3, 0, 30), keeps
    # d = 4ac - b^2 (and n d = 10 t^2, t = 6), but the point's index I = 2 gives 9 * 160 n
    ns, rows = polarizations._orbit_rows(1, 5, orbit_reps(5))
    rows[:, 5:9] *= (3, 3, 3, 9)
    with pytest.raises(IndexAnomaly, match=r"I = 2 breaks d I\^2 = 160 n at n = 1, d = 360") as exc:
        polarizations._classes(ns, rows)
    assert (exc.value.n, exc.value.d) == (1, 360)


def test_index_from_guards_reach_the_table():
    ns, rows = polarizations._orbit_rows(1, 5, orbit_reps(5))
    # c one larger keeps d = 4ac - b^2 with d = 44 at n = 1: n d is not 10 times a
    # square, which index_from checks first, and d I^2 = 160 n fails at the point's I = 2
    rows[:, 7] += 1
    rows[:, 8] += 4 * rows[:, 5]
    with pytest.raises(IndexAnomaly, match=r"I = 2 breaks d I\^2 = 160 n at n = 1, d = 44") as exc:
        polarizations._classes(ns, rows)
    assert (exc.value.n, exc.value.d) == (1, 44)


def test_index_column_matches_index_from():
    # on a range, and on the large degree 2^24 + 1
    small, big = class_table(2000), classify(2**24 + 1).classes
    assert small.index.dtype == big.index.dtype == np.int64 and len(big)
    for table in (small, big):
        pairs = zip(table.n.tolist(), table.d.tolist(), table.index.tolist())
        assert all(index == index_from(n, d) for n, d, index in pairs)


def test_orbits_of_a_degree_the_closed_form_rejects(monkeypatch):
    monkeypatch.setattr(polarizations, "is_representable", lambda n: n != 5)
    with pytest.raises(EnumerationAnomaly, match="2 orbits found, .* representable=False") as exc:
        class_table(8)
    assert exc.value.n == 5


def test_no_orbits_for_a_representable_degree(monkeypatch):
    walk = polarizations.orbit_reps

    def without_degree_5(max_n):
        reps = walk(max_n)
        return reps[(reps * reps) @ np.array([1, 1, 10]) != 20]

    monkeypatch.setattr(polarizations, "orbit_reps", without_degree_5)
    with pytest.raises(EnumerationAnomaly, match="0 orbits found, .* representable=True") as exc:
        class_table(8)
    assert exc.value.n == 5


@pytest.mark.parametrize(
    "point, message",
    [([0, 0, 0], "does not have norm 4"), ([0, 6, 0], "does not have norm 32")],
    ids=["origin", "degree-9"],
)
def test_walk_rows_off_the_range_are_refused(monkeypatch, point, message):
    # _orbit_rows clips each degree into 1..max_n, so that orbit_classes' norm check
    # refuses the origin and a point past the range instead of adding a degree to the table
    walk = polarizations.orbit_reps
    monkeypatch.setattr(polarizations, "orbit_reps", lambda max_n: np.concatenate([walk(max_n), [point]]))
    with pytest.raises(EnumerationAnomaly, match=message):
        class_table(8)


# ---------------------------------------------------------------------------
# one decision for scan and model_verdict


@pytest.mark.parametrize(
    "n, d, div1, div2, eq90, odd, want",
    [
        (1, 40, False, True, False, True, (KNOWN_MODEL, KNOWN_MODEL, INFEASIBLE)),
        (4, 16, False, True, False, False, (INFEASIBLE, DOUBLED, INFEASIBLE)),
        (4, 16, False, True, False, True, (INFEASIBLE, FEASIBLE, INFEASIBLE)),
        (3, 120, True, False, True, True, (FEASIBLE, INFEASIBLE, FEASIBLE)),
        (3, 120, False, False, False, True, (INFEASIBLE, INFEASIBLE, INFEASIBLE)),
    ],
    ids=["prior", "doubled", "doubled-odd", "feasible", "plain"],
)
def test_class_statuses(n, d, div1, div2, eq90, odd, want):
    assert class_statuses(n, d, div1, div2, eq90, odd) == want
    # the status columns of a one-row table, and the statuses a report would carry
    ints = [np.array([v], dtype=np.int64) for v in (n, 0, 0, 0, d, 0, 0, 0, 1)]
    table = ClassTable(*ints, *(np.array([v]) for v in (div1, div2, eq90, odd)))
    prior, doubled, feasible = status_columns(table)
    assert (prior[0], doubled[0], feasible[0]) == (KNOWN_MODEL in want, DOUBLED in want, FEASIBLE in want)
    assert polarizations._statuses(table) == [want]


def test_statuses_of_every_flag_combination():
    # each (div1, div2, eq90, odd) on a class of a prior model, of a doubled degree and of neither
    rows = [(n, d, *flags) for n, d in [(1, 40), (4, 16), (3, 120)] for flags in product((False, True), repeat=4)]
    n, d, *flags = (np.array(col) for col in zip(*rows))
    zero = np.zeros(len(rows), dtype=np.int64)
    table = ClassTable(n, zero, zero, zero, d, zero, zero, zero, zero + 1, *flags)
    assert polarizations._statuses(table) == table_statuses(table)
    assert len(set(table_statuses(table))) == len(polarizations._STATUS_TRIPLES) == 14


def test_model_verdict_reads_the_class_table(capsys):
    max_n = 300
    table = class_table(max_n)
    statuses = table_statuses(table)
    # each report's classes are its degree's table rows, field by field, with their statuses
    reports = [classify(n) for n in range(1, max_n + 1)]
    assert [row for r in reports for row in _rows(r.classes)] == _rows(table)
    assert [s for r in reports for s in r.statuses] == statuses
    assert all(model_verdict(r).consistent for r in reports if r.representable)
    assert not any(FEASIBLE in s for s in statuses)
    assert {n for n, s in zip(table.n.tolist(), statuses) if DOUBLED in s} == DOUBLED_DEGREES
    # and classify's csv body is that degree's rows of the table csv
    assert main(["table", "--max-n", str(max_n), "--format", "csv"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    by_n: dict[int, list[str]] = {}
    for line in lines:
        by_n.setdefault(int(line.split(",")[0]), []).append(line)
    for n in range(1, max_n + 1):
        rc = main(["classify", "--n", str(n), "--format", "csv"])
        assert capsys.readouterr().out.splitlines() == [header, *by_n.get(n, [])]
        assert rc == (0 if n in by_n else 2), n
    assert 6 not in by_n and len(by_n) < max_n


def _check_statuses(table, statuses):
    want = table_statuses(table)
    assert statuses == want
    prior, doubled, feasible = status_columns(table)
    assert prior.tolist() == [s[0] == KNOWN_MODEL for s in want]
    assert doubled.tolist() == [s[1] == DOUBLED for s in want]
    assert feasible.tolist() == [FEASIBLE in s for s in want]


@pytest.mark.parametrize("prior_models", [PRIOR_MODELS, {}], ids=["prior", "no-prior"])
def test_status_columns_match_table_statuses(monkeypatch, prior_models):
    # without the prior models their hyperelliptic equations are FEASIBLE,
    # so the feasible column is not all False
    monkeypatch.setattr(polarizations, "PRIOR_MODELS", prior_models)
    table = class_table(2000)
    _check_statuses(table, polarizations._statuses(table))
    # a large degree, the prior-model degrees and the doubled degrees, through classify
    big = classify(2**24 + 1)
    assert big.classes.n.dtype == np.int64 and len(big.classes)
    for report in [big, *map(classify, (1, 2, 10, 4, 8, 20, 40))]:
        _check_statuses(report.classes, report.statuses)
    assert status_columns(table)[2].any() == (not prior_models)
