import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3m20 import polarizations
from k3m20.lattice import norm
from k3m20.polarizations import (
    DOUBLED,
    DOUBLED_DEGREES,
    FEASIBLE,
    INFEASIBLE,
    KNOWN_MODEL,
    PRIOR_MODELS,
    EnumerationAnomaly,
    IndexAnomaly,
    ambient_dim,
    classify,
    classify_range,
    model_verdict,
    quadric_count,
)
from k3m20.kernels import MAX_N
from oracles import div_feasible, divisibility, index_from, orbit, quadric_count_parts


# ---------------------------------------------------------------------------
# counting formulas


def test_quadric_count_small_values():
    assert [quadric_count(n) for n in range(1, 7)] == [0, 3, 10, 21, 36, 55]
    assert quadric_count(45) == 3916


def test_quadric_count_parts_identity():
    for n in range(1, 200):
        total, removed = quadric_count_parts(n)
        assert total - removed == quadric_count(n)


def test_ambient_dim():
    assert [ambient_dim(n) for n in (1, 2, 3, 45)] == [3, 5, 7, 91]


def test_count_guards():
    for fn in (quadric_count, quadric_count_parts, ambient_dim):
        with pytest.raises(ValueError):
            fn(0)


# ---------------------------------------------------------------------------
# sublattice index


def test_index_from_known_pairs():
    assert index_from(1, 40) == 2
    assert index_from(2, 20) == 4
    assert index_from(3, 120) == 2
    assert index_from(10, 4) == 20
    assert index_from(15, 24) == 10
    assert index_from(15, 600) == 2
    assert index_from(45, 200) == 6
    assert index_from(45, 1800) == 2


def test_index_from_anomalies():
    # 2400 / 500 is not an integer
    with pytest.raises(IndexAnomaly) as exc:
        index_from(15, 500)
    assert (exc.value.n, exc.value.d) == (15, 500)
    # 480 / 7 is not an integer
    with pytest.raises(IndexAnomaly):
        index_from(3, 7)
    # 320 / 16 = 20 is integral but not a square
    with pytest.raises(IndexAnomaly) as exc:
        index_from(2, 16)
    assert (exc.value.n, exc.value.d) == (2, 16)
    with pytest.raises(ValueError):
        index_from(0, 40)
    with pytest.raises(ValueError):
        index_from(1, 0)


@pytest.mark.parametrize(
    "n, d, message", [(3, 4, r"n\*d = 12 is not"), (1, 1000, r"160\*1/1000")], ids=["n*d", "160n/d"]
)
def test_index_from_each_check_fires_alone(n, d, message):
    # n d = 10 is 10 times a square, but 160 / 1000 is not a square
    with pytest.raises(IndexAnomaly, match=message) as exc:
        index_from(n, d)
    assert (exc.value.n, exc.value.d) == (n, d)


@given(st.integers(min_value=1, max_value=500), st.integers(min_value=1, max_value=40))
def test_index_from_roundtrip(n, i):
    # construct d so that d * i^2 = 160 n exactly, whenever possible
    num = 160 * n
    if num % (i * i):
        return
    d = num // (i * i)
    assert index_from(n, d) == i


# ---------------------------------------------------------------------------
# obstruction equation solvability


def test_div_feasible_examples():
    assert div_feasible(10, 1, 10) is True
    assert div_feasible(40, 1, 40) is True
    assert div_feasible(40, 2, 20) is True
    assert div_feasible(40, 10, 4) is True
    assert div_feasible(90, 9, 10) is True
    assert div_feasible(90, 1, 10) is True  # alpha = 3, m = 1
    assert div_feasible(10, 3, 8) is False
    assert div_feasible(90, 3, 160) is False
    assert div_feasible(10, 1, 40) is False
    with pytest.raises(ValueError):
        div_feasible(0, 1, 1)
    with pytest.raises(ValueError):
        div_feasible(10, 0, 1)


@given(
    st.integers(min_value=1, max_value=200),
    st.integers(min_value=1, max_value=50),
    st.integers(min_value=1, max_value=50),
)
def test_div_feasible_matches_brute_force(target, n, d):
    brute = any(
        n * alpha * alpha * d * m == target
        for alpha in range(1, target + 1)
        for m in range(1, target + 1)
        if n * alpha * alpha * d * m <= target
    )
    assert div_feasible(target, n, d) == brute


# ---------------------------------------------------------------------------
# classification reports


def test_classify_worked_degree_12():
    rep = classify(3)
    assert rep.n == 3 and rep.l_squared == 12 and rep.representable
    # (lam, mu, delta, size, r, a, b, c, d, index)
    assert rep.orbits.tolist() == [[-1, -1, -1, 8, 1, 2, 0, 15, 120, 2]]
    assert rep.quadric_count == 10
    assert rep.ambient_dim == 7
    assert rep.classes.forms() == [(2, 0, 15)]
    assert len(rep.classes) == 1
    f = rep.classes
    assert not f.div1[0] and not f.div2[0] and not f.eq90[0]


def test_classify_non_representable():
    rep = classify(6)
    assert not rep.representable
    assert rep.orbits.shape == (0, 10) and len(rep.classes) == 0 and rep.statuses == []
    assert rep.quadric_count == quadric_count(6)


def test_classify_orbit_structure_is_exact():
    for n in (1, 2, 5, 9, 10, 45):
        rep = classify(n)
        seen = set()
        for lam, mu, delta, size, r, a, b, c, d, index in rep.orbits.tolist():
            canonical = (lam, mu, delta)
            orb = orbit(canonical)
            assert len(orb) == size
            assert min(orb) == canonical
            assert not (orb & seen)
            seen |= orb
            assert all(norm(v) == 4 * n for v in orb)
            assert divisibility(canonical)[0] == r
            assert d == 4 * a * c - b * b
            assert d * index**2 == 160 * n


def test_classify_degree_180_has_five_orbits_two_classes():
    rep = classify(45)
    orbits = rep.orbits.tolist()
    assert sorted(o[3] for o in orbits) == [8, 16, 16, 16, 16]
    assert rep.classes.forms() == [(5, 0, 10), (5, 0, 90)]
    by_class = {t: [o for o in orbits if tuple(o[5:8]) == t] for t in rep.classes.forms()}
    assert sorted(len(v) for v in by_class.values()) == [2, 3]
    assert {o[9] for o in orbits} == {2, 6}


def test_classify_degree_60_and_360():
    rep15 = classify(15)
    assert len(rep15.orbits) == 3
    assert rep15.classes.forms() == [(2, 0, 3), (5, 0, 30)]
    assert set(rep15.orbits[:, 9].tolist()) == {2, 10}
    rep90 = classify(90)
    assert len(rep90.orbits) == 5
    assert len(rep90.classes) == 4


def test_classify_degree_40_hits_diagonal_class():
    rep = classify(10)
    assert sorted(rep.orbits[:, 3].tolist()) == [2, 8]
    small = min(rep.orbits.tolist(), key=lambda o: o[3])
    assert small == [-1, -1, -2, 2, 1, 1, 0, 1, 4, 20]


def test_classify_guards():
    with pytest.raises(ValueError):
        classify(0)


# ---------------------------------------------------------------------------
# model verdicts


def test_model_verdict_known_models():
    for (n, d), _label in PRIOR_MODELS.items():
        rep = classify(n)
        verdict = model_verdict(rep)
        hits = [s for e, s in zip(rep.classes.d.tolist(), rep.statuses) if e == d]
        assert len(hits) == 1
        base_point, hyperelliptic, _ = hits[0]
        assert base_point == KNOWN_MODEL
        assert hyperelliptic == KNOWN_MODEL
        assert verdict.consistent


def test_model_verdict_doubled_degrees():
    for n in sorted(DOUBLED_DEGREES):
        rep = classify(n)
        doubled_classes = [s for s in rep.statuses if s[1] == DOUBLED]
        assert doubled_classes, f"no doubled class at n={n}"
        assert model_verdict(rep).consistent


def test_model_verdict_plain_degree():
    rep = classify(3)
    verdict = model_verdict(rep)
    assert rep.statuses == [(INFEASIBLE, INFEASIBLE, INFEASIBLE)]
    assert verdict.consistent
    assert verdict.label == "embedding; quadrics only"


def test_model_verdict_sweep_small_range():
    prior_hits = set()
    doubled_ns = set()
    for n in range(1, 121):
        rep = classify(n)
        if not rep.representable:
            with pytest.raises(ValueError):
                model_verdict(rep)
            continue
        verdict = model_verdict(rep)
        assert verdict.consistent, f"inconsistent verdict at n={n}"
        assert all(quadrics == INFEASIBLE for _, _, quadrics in rep.statuses)
        for d, (base_point, hyperelliptic, _) in zip(rep.classes.d.tolist(), rep.statuses):
            if KNOWN_MODEL in (base_point, hyperelliptic):
                prior_hits.add((n, d))
            if hyperelliptic == DOUBLED:
                doubled_ns.add(n)
    assert prior_hits == set(PRIOR_MODELS)
    assert doubled_ns == set(DOUBLED_DEGREES)


def test_model_verdict_statuses_are_never_silently_feasible():
    for n in range(1, 121):
        rep = classify(n)
        if not rep.representable:
            continue
        assert model_verdict(rep).consistent
        for statuses in rep.statuses:
            assert FEASIBLE not in statuses


# ---------------------------------------------------------------------------
# range scans


def test_classify_range_serial():
    reports = classify_range(12)
    assert [r.n for r in reports] == list(range(1, 13))
    assert reports[5].representable is False  # n = 6


def test_classify_range_guards():
    with pytest.raises(ValueError):
        classify_range(0)
    with pytest.raises(ValueError):
        classify_range(MAX_N + 1)
    with pytest.raises(ValueError):
        classify(MAX_N + 1)


@pytest.mark.parametrize(
    "points",
    [
        [[3, 1, 1]],  # x > y: outside the fundamental domain
        [[1, 2, 1]],  # mixed parity
        [[0, 2, 0]],  # norm 4, not 20
        [],  # 20 is representable, so an empty enumeration is a fault
    ],
)
def test_classify_invariants_raise_enumeration_anomaly(monkeypatch, points):
    monkeypatch.setattr(
        polarizations, "degree_reps", lambda n: np.array(points, dtype=np.int64).reshape(-1, 3)
    )
    with pytest.raises(EnumerationAnomaly) as exc:
        classify(5)
    assert exc.value.n == 5
