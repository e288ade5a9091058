"""End-to-end acceptance checks.

Each test covers one numbered acceptance criterion, verifies it at the
stated tolerance (exact arithmetic unless a time budget is given), and
prints a single `criterion NN: PASS (...)` line.  A failed criterion fails
its test, so the pass/fail state is always visible in the pytest output.
"""

import math
import random
import time

import numpy as np
import pytest

from k3m20.golden import GOLDEN_ROWS, golden_check
from k3m20.lattice import GRAM, inner, norm
from k3m20.polarizations import (
    DOUBLED_DEGREES,
    FEASIBLE,
    PRIOR_MODELS,
    classify,
    classify_range,
    model_verdict,
)
from k3m20.representability import is_representable, prime_witnesses
from k3m20.veronese import doubled_model_dims, quadrics_on_veronese2, scaled_quartic_dims
from oracles import (
    IDENTITY,
    NEG_IDENTITY,
    RHO1,
    RHO2,
    EvenBinaryForm,
    canonical,
    div_feasible,
    documented_corrections,
    enumerate_solutions,
    equivalent,
    from_gram,
    generate_group,
    is_prime,
    is_primitive,
    mat_mul,
    mat_vec,
    orbit,
    reduce,
    representable_range,
    same_orbit,
    transform,
    transform_forms,
    unimodular_entries,
)


@pytest.fixture(scope="module")
def reports_500():
    t0 = time.perf_counter()
    reports = classify_range(500)
    return reports, time.perf_counter() - t0


def _pass(capsys, num, elapsed, detail, budget=None):
    if budget is not None:
        assert elapsed < budget, f"criterion {num}: {elapsed:.3f}s exceeds the {budget}s budget"
        line = f"criterion {num:02d}: PASS ({elapsed:.3f}s < {budget}s) {detail}"
    else:
        line = f"criterion {num:02d}: PASS ({elapsed:.3f}s) {detail}"
    with capsys.disabled():
        print(line)


def test_criterion_01_golden_table_reproduced_exactly(capsys):
    t0 = time.perf_counter()
    result = golden_check()
    elapsed = time.perf_counter() - t0
    assert result.ok, [str(d) for d in result.diffs]
    assert result.diffs == ()
    assert len(result.lines) == 23  # 22 published rows + the no-embedding degree
    assert len(documented_corrections()) == 6
    _pass(
        capsys, 1, elapsed,
        f"{len(GOLDEN_ROWS)} rows + 1 empty degree, 6 documented corrections",
        budget=1.0,
    )


def test_criterion_02_worked_degree_12(capsys):
    t0 = time.perf_counter()
    sols = enumerate_solutions(3)
    assert len(sols) == 8
    report = classify(3)
    (row,) = report.orbits.tolist()
    assert row[3] == 8

    # the complement of h = (0, 0, 1) in the basis (f - e, h + 6e)
    u1, u2 = (-1, 1, 0), (6, 0, 1)
    h = (0, 0, 1)
    assert inner(u1, h) == 0 and inner(u2, h) == 0
    gram = ((inner(u1, u1), inner(u1, u2)), (inner(u2, u1), inner(u2, u2)))
    assert gram == ((8, -24), (-24, 132))
    raw = from_gram(gram)
    assert raw.triple() == (2, -12, 33)
    reduced, witness = reduce(raw)
    assert reduced.triple() == (2, 0, 15)
    assert transform(raw, witness).triple() == (2, 0, 15)
    # the pipeline's own complement lands in the same class
    assert equivalent(raw, EvenBinaryForm(*row[5:8]))

    assert row[9] == 2
    assert report.ambient_dim == 7
    assert report.quadric_count == 10
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 2, elapsed,
        "8 solutions, 1 orbit, (2,-12,33) -> (2,0,15), I=2, P^7, 10 quadrics",
        budget=0.1,
    )


def test_criterion_03_isometry_group_and_orbit_chain(capsys):
    t0 = time.perf_counter()
    group = generate_group()
    assert len(group) == 16
    for m in group:
        mt = tuple(tuple(m[i][j] for i in range(3)) for j in range(3))
        assert mat_mul(mat_mul(mt, GRAM), m) == GRAM

    flip = mat_mul(NEG_IDENTITY, RHO2)
    assert flip in group and RHO1 in group and IDENTITY in group
    chain = [(1, 1, 1), (0, 1, 1), (1, 0, 1), (0, 0, 1)]
    assert mat_vec(flip, chain[0]) == chain[1]
    assert mat_vec(RHO1, chain[1]) == chain[2]
    assert mat_vec(flip, chain[2]) == chain[3]
    assert all(norm(v) == 12 for v in chain)
    assert orbit(chain[0]) == orbit(chain[3])
    elapsed = time.perf_counter() - t0
    _pass(capsys, 3, elapsed, "order 16, M^T G M = G, chain e+f+h -> f+h -> e+h -> h")


def test_criterion_04_closed_form_matches_brute_force(capsys):
    t0 = time.perf_counter()
    flags = representable_range(10000).tolist()
    closed = [is_representable(n) for n in range(1, 10001)]
    assert flags[1:] == closed
    missing = [n for n in range(1, 10001) if not flags[n]]
    assert missing[:5] == [6, 22, 24, 38, 54]
    assert 24 in missing and 96 in missing
    # per-degree enumeration ties the range scan to actual lattice vectors
    for n in range(1, 101):
        assert bool(enumerate_solutions(n)) == flags[n]
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 4, elapsed,
        f"n <= 10000 agree; {len(missing)} non-representable, prefix {missing[:5]}",
        budget=30.0,
    )


def test_criterion_05_index_invariants_are_perfect_squares(capsys, reports_500):
    reports, build_s = reports_500
    t0 = time.perf_counter()
    anomalies = 0
    orbits_seen = 0
    for rep in reports:
        for *_, d, index in rep.orbits.tolist():
            orbits_seen += 1
            num = 160 * rep.n
            if num % d:
                anomalies += 1
                continue
            q = num // d
            if math.isqrt(q) ** 2 != q or index != math.isqrt(q):
                anomalies += 1
            nd = rep.n * d
            if nd % 10 or math.isqrt(nd // 10) ** 2 * 10 != nd:
                anomalies += 1
    assert anomalies == 0
    assert orbits_seen == sum(len(r.orbits) for r in reports)
    elapsed = build_s + (time.perf_counter() - t0)
    _pass(
        capsys, 5, elapsed,
        f"160n/d and nd/10 square for all {orbits_seen} orbits, n <= 500, anomalies 0",
        budget=60.0,
    )


def test_criterion_06_obstructions_all_infeasible(capsys, reports_500):
    reports, _ = reports_500
    t0 = time.perf_counter()
    prior_hits = set()
    doubled_hits = set()
    for rep in reports:
        if not rep.representable:
            continue
        verdict = model_verdict(rep)
        assert verdict.consistent, f"n={rep.n}"
        for statuses in rep.statuses:
            assert FEASIBLE not in statuses
        n = rep.n
        for triple, d in zip(rep.classes.forms(), rep.classes.d.tolist()):
            assert div_feasible(90, n, d) is False
            if (n, d) in PRIOR_MODELS:
                prior_hits.add((n, d))
            else:
                assert div_feasible(10, n, d) is False
                if n in DOUBLED_DEGREES:
                    class_orbits = [o for o in rep.orbits.tolist() if tuple(o[5:8]) == triple]
                    assert all(o[4] % 2 == 0 for o in class_orbits)
                    doubled_hits.add(n)
                else:
                    assert div_feasible(40, n, d) is False
    assert prior_hits == set(PRIOR_MODELS)
    assert doubled_hits == set(DOUBLED_DEGREES)
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 6, elapsed,
        "div-10/div-40 false outside exclusions, div-90 always false, n <= 500",
    )


def test_criterion_07_dimension_chases(capsys):
    t0 = time.perf_counter()
    assert doubled_model_dims(4) == (9, 54, 21, 33)
    assert doubled_model_dims(2) == (5, 20, 3, 17)
    assert quadrics_on_veronese2(5) == 105
    assert scaled_quartic_dims(3) == (19, 0, 19)
    assert scaled_quartic_dims(5) == (55, 4, 51)
    with pytest.raises(ValueError):
        doubled_model_dims(1)
    for n in range(2, 1001):
        assert doubled_model_dims(n)[3] == 8 * n + 1
    for r in range(3, 1001):
        assert scaled_quartic_dims(r)[2] == 2 * r * r + 1
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 7, elapsed,
        "n=4: 21 quadrics -> P^33; n=2: 105 -> P^17; r=3 -> P^19, r=5 -> P^51;"
        " identities to 1000",
    )


def test_criterion_08_orbit_separation_and_delta_invariance(capsys):
    t0 = time.perf_counter()
    a, b = (3, 6, 5), (5, 0, 5)
    assert norm(a) == norm(b) == 300
    assert not same_orbit(a, b)
    group = generate_group()
    checked = 0
    for n in range(1, 101):  # norms 4n <= 400
        for v in enumerate_solutions(n):
            sig = frozenset([abs(2 * v[0] - v[2]), abs(2 * v[1] - v[2])])
            for m in group:
                w = mat_vec(m, v)
                assert abs(w[2]) == abs(v[2])
                assert frozenset([abs(2 * w[0] - w[2]), abs(2 * w[1] - w[2])]) == sig
                checked += 1
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 8, elapsed,
        f"(3,6,5) vs (5,0,5) separated; |delta| preserved in {checked} image checks",
    )


def test_criterion_09_reduction_vs_bounded_brute_force(capsys):
    t0 = time.perf_counter()
    rng = random.Random(20)
    ts10 = unimodular_entries(10)
    small_ts = [tuple(int(x) for x in row) for row in unimodular_entries(3)]

    def reduced_images(f):
        imgs = transform_forms(f.a, f.b, f.c, ts10)
        fa, fb, fc = imgs[:, 0], imgs[:, 1], imgs[:, 2]
        mask = (fa > 0) & (-fa < fb) & (fb <= fa) & (fa <= fc)
        return {tuple(int(x) for x in row) for row in imgs[mask]}

    checked = 0
    while checked < 1000:
        a = rng.randint(1, 6)
        b = rng.randint(-a + 1, a)
        c = rng.randint(a, 10)
        r0 = EvenBinaryForm(a, b, c)
        assert r0.is_reduced()
        p, q, r, s = small_ts[rng.randrange(len(small_ts))]
        f = transform(r0, ((p, q), (r, s)))
        if max(abs(f.a), abs(f.b), abs(f.c)) > 50:
            continue
        reduced, witness = reduce(f)
        assert transform(f, witness).triple() == reduced.triple()
        assert reduced.discriminant == f.discriminant
        assert equivalent(f, r0)
        brute = reduced_images(f)
        assert reduced.triple() in brute
        assert r0.triple() in brute
        # every reduced form the brute force finds collapses to one canonical
        assert {canonical(EvenBinaryForm(*g)).triple() for g in brute} == {
            canonical(f).triple()
        }
        checked += 1

    # Buell exceptions: (a, a, c) ~ (a, -a, c) and (a, b, a) ~ (a, -b, a)
    assert equivalent(EvenBinaryForm(2, 2, 3), EvenBinaryForm(2, -2, 3))
    assert equivalent(EvenBinaryForm(5, 3, 5), EvenBinaryForm(5, -3, 5))
    assert not equivalent(EvenBinaryForm(2, 1, 3), EvenBinaryForm(2, -1, 3))
    # negative control at discriminant 40: two genuinely distinct classes
    g1, g2 = EvenBinaryForm(1, 0, 10), EvenBinaryForm(2, 0, 5)
    assert not equivalent(g1, g2)
    assert g2.triple() not in reduced_images(g1)
    assert g1.triple() not in reduced_images(g2)
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 9, elapsed,
        "1000 random forms agree with bounded brute force; Buell pairs handled",
        budget=60.0,
    )


def test_criterion_10_prime_witness_infinitude(capsys):
    t0 = time.perf_counter()
    witnesses = prime_witnesses(1237)  # up to the 100th prime p = 1 (mod 4)
    assert len(witnesses) == 100
    primes = [p for p, _ in witnesses]
    assert primes[0] == 5 and witnesses[0][1] == (1, 2, 0)
    assert primes == sorted(primes) and len(set(primes)) == 100
    for p, v in witnesses:
        assert is_prime(p) and p % 4 == 1
        assert v[2] == 0
        assert norm(v) == 4 * p
        assert is_primitive(v)
        assert math.gcd(v[0], v[1]) == 1
        assert is_representable(p)
    elapsed = time.perf_counter() - t0
    _pass(
        capsys, 10, elapsed,
        f"100 primes = 1 mod 4 up to {primes[-1]}, all with primitive (lam, mu, 0) witnesses",
    )
