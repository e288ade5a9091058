"""Classification of polarizations of one degree and model obstruction checks.

For a representable degree L^2 = 4n the solution vectors fall into orbits
under the 16 isometries; each orbit determines (up to equivalence) the
transcendental lattice, an even positive definite binary form (a, b, c) of
discriminant d = 4 a c - b^2, and an index I = div(v), the content of G v,
taken from the orbit's point by `kernels.orbit_classes` (its scalar
reference is `index_from` in `tests/oracles.py`).  Nikulin's index formula
for an orthogonal complement gives d I^2 = 160 n, so a complement basis
that spans a proper sublattice, or any other fault in d, breaks it; every
orbit row is checked, and a break is raised loudly rather than reported.

Obstruction bookkeeping: a divisor class D with D^2 = 2k and D primitive in
the polarized sublattice forces an index equation

    target = n * alpha^2 * d * m        (alpha, m >= 1 integers)

with target in {10, 40, 90} for the base-point-free, hyperelliptic and
quadric-generation obstructions respectively.  Since n d = 10 t^2 with
t = 4n / I, the equation is solvable exactly when t = 1, t | 2 or t | 3.
The class layer (`class_table`, and `classify` through it) uses that
closed form for every class at once; its reference, `div_feasible` in
`tests/oracles.py`, decides the equation by search.  `status_columns`
combines the three checks of every class at once, routing the handful of
degrees settled by previously known models (quartic, triple-quadric, and
the diag(4, 4) degree-40 case) and doubled polarizations L = 2M through
explicit exclusion branches; `scan` and `model_verdict` read its
`feasible` column, and a report its rows' statuses as strings (reference:
`class_statuses` and `table_statuses` in `tests/oracles.py`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product

import numpy as np

from .kernels import (
    MAX_N,
    MAX_RANGE_N,
    EnumerationAnomaly,
    ReductionAnomaly,
    _first_bad,
    _one_key,
    _starts,
    orbit_classes,
    orbit_reps,
)
from .representability import is_representable
from .twosquares import degree_reps


class IndexAnomaly(ValueError):
    """An orbit of degree 4n and discriminant d breaks d I^2 = 160 n; carries (n, d)."""

    def __init__(self, n: int, d: int, message: str):
        self.n, self.d = n, d
        super().__init__(message)


def quadric_count(n: int) -> int:
    """Quadrics through the degree-4n model: 2 n^2 - 3 n + 1."""
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    return 2 * n * n - 3 * n + 1


def ambient_dim(n: int) -> int:
    """Projective dimension of the model's ambient space, 2n + 1."""
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    return 2 * n + 1


@dataclass(frozen=True, eq=False)
class ClassTable:
    """The classification table: one row per degree 4n and transcendental class.

    Each field is a column, an int64 or a bool array.  Rows are ordered by
    n, then by the class's reduced form (a, b, c); (lam, mu, delta) is the
    smallest canonical member of the class's orbits and index the sublattice
    index.  div1, div2 and eq90 say whether the obstruction equation with
    target 10, 40 or 90 is solvable (see the module docstring), odd whether
    some orbit of the class has odd divisibility.
    """

    n: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    d: np.ndarray
    lam: np.ndarray
    mu: np.ndarray
    delta: np.ndarray
    index: np.ndarray
    div1: np.ndarray
    div2: np.ndarray
    eq90: np.ndarray
    odd: np.ndarray

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, rows: slice) -> ClassTable:
        """The table of the given rows; a slice gives views of the columns."""
        return ClassTable(*(getattr(self, field.name)[rows] for field in fields(self)))

    def forms(self) -> list[tuple[int, int, int]]:
        """The reduced form (a, b, c) of every row."""
        return list(zip(self.a.tolist(), self.b.tolist(), self.c.tolist()))


@dataclass(frozen=True, eq=False)
class PolarizationReport:
    """The classification of one degree 4n, as rows of arrays.

    orbits has one row per isometry orbit, ordered by canonical member: the
    int64 rows (lam, mu, delta, size, r, a, b, c, d, index) of
    kernels.orbit_classes.  classes is the degree's rows of the class table
    and statuses their (base-point, hyperelliptic, quadrics) statuses (see
    status_columns).
    """

    n: int
    l_squared: int
    representable: bool
    orbits: np.ndarray
    classes: ClassTable
    statuses: list[tuple[str, str, str]]
    quadric_count: int
    ambient_dim: int


def _orbit_rows(lo: int, hi: int, reps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(ns, rows): the orbit_classes rows of degrees lo..hi from all their
    orbit representatives (see orbit_reps), ordered by degree ns, then by
    canonical member; EnumerationAnomaly unless exactly the representable
    degrees have orbits, each found once."""
    x, y, z = reps[:, 0], reps[:, 1], reps[:, 2]
    norms = x * x + y * y + 10 * z * z
    # by degree, then by canonical member ((-y - z) / 2, (-x - z) / 2, -z)
    key = _one_key(norms, -y - z, -x - z, -z)
    order = np.argsort(key)
    # the key is one-to-one on points, so a row that starts no run repeats the orbit before it
    again = np.ones(len(key), dtype=bool)
    again[_starts(key[order])] = False
    del key  # not kept through orbit_classes, where the range path's memory peaks
    # a norm off 4 lo..4 hi, or not divisible by 4, fails orbit_classes' norm check
    ns = np.clip(norms[order] // 4, lo, hi)
    rows = orbit_classes(ns, reps[order])
    i = _first_bad(again)
    if i is not None:
        raise EnumerationAnomaly(int(ns[i]), f"{tuple(reps[order[i]].tolist())} is found twice")
    counts = np.diff(np.searchsorted(ns, np.arange(lo, hi + 2)))
    representable = is_representable(np.arange(lo, hi + 1))
    bad = np.flatnonzero((counts > 0) != representable)
    if bad.size:
        i = int(bad[0])
        raise EnumerationAnomaly(
            lo + i, f"{counts[i]} orbits found, but the closed form says representable={representable[i]}"
        )
    return ns, rows


def _classes(ns: np.ndarray, rows: np.ndarray) -> ClassTable:
    """Group orbit rows (ordered as _orbit_rows orders them) by (n, a, b, -I).

    Every orbit row is checked first: for a, c, d > 0 and b^2 <= ac, then
    for d = 4ac - b^2 (ReductionAnomaly), then for d I^2 = 160 n
    (IndexAnomaly), I being the point's, so that a wrong complement shows;
    the closed-form obstruction checks rest on it.  Those checks make
    c = (160 n / I^2 + b^2) / 4a, which falls as I rises, so grouping by
    (n, a, b, -I) gives the classes (n, a, b, c) in the same order with a
    key of fewer bits (see kernels.MAX_N).  A class's first orbit is its
    smallest row, the smallest canonical member, whatever order the sort
    leaves its ties in.
    """
    a, b, c, d, index = rows[:, 5:].T
    i = _first_bad((a <= 0) | (c <= 0) | (d <= 0) | (b * b > a * c))
    if i is not None:
        raise ReductionAnomaly(
            f"reduction anomaly: reduced form {(int(a[i]), int(b[i]), int(c[i]))} of discriminant"
            f" {int(d[i])} at n = {int(ns[i])} breaks a, c, d > 0 and b^2 <= ac"
        )
    i = _first_bad(d != 4 * a * c - b * b)
    if i is not None:
        raise ReductionAnomaly(
            f"reduction anomaly: discriminant {int(d[i])} at n = {int(ns[i])} breaks d = 4ac - b^2"
            f" for the reduced form {(int(a[i]), int(b[i]), int(c[i]))}"
        )
    # the complement of a degree-4n vector v has discriminant d with d I^2 = 160 n, I = div(v),
    # and so n d = 10 t^2 with t = 4n / I (I^2 | 160 n forces I | 4n)
    i = _first_bad(d * index * index != 160 * ns)
    if i is not None:
        bad_n, bad_d = int(ns[i]), int(d[i])
        message = f"index anomaly: I = {int(index[i])} breaks d I^2 = 160 n at n = {bad_n}, d = {bad_d}"
        raise IndexAnomaly(bad_n, bad_d, message)

    # sort the key alone: a sorted copy of all ten columns would set the range path's peak memory
    key = _one_key(ns, a, b, -index)
    order = np.argsort(key)
    starts = _starts(key[order])
    odd = np.logical_or.reduceat(rows[order, 4] & 1 == 1, starts)
    head = np.minimum.reduceat(order, starts)
    n, (lam, mu, delta, _, _, a, b, c, d, index) = ns[head], rows[head].T
    t = 4 * n // index
    # the obstruction equations in closed form (oracles.div_feasible is their reference):
    # n alpha^2 d m = 10 (t alpha)^2 m is 10, 40 or 90 for some alpha, m >= 1
    # exactly when t = 1, t | 2 or t | 3
    return ClassTable(
        n=n, a=a, b=b, c=c, d=d, lam=lam, mu=mu, delta=delta, index=index,
        div1=t == 1, div2=2 % t == 0, eq90=3 % t == 0, odd=odd
    )


def class_table(max_n: int) -> ClassTable:
    """The classification table of n = 1..max_n, from the one pass of
    orbit_reps(max_n) over every orbit of norm up to 4 max_n.

    Row for row it is the one classify_range's reports give: the classes of
    each report in order, each with its smallest orbit, index and
    feasibility; no per-orbit object is built.  max_n is at most
    MAX_RANGE_N (kernels), whose orbit rows fit in memory.
    """
    if not 1 <= max_n <= MAX_RANGE_N:
        raise ValueError(f"scan limit must be in 1..{MAX_RANGE_N}")
    return _classes(*_orbit_rows(1, max_n, orbit_reps(max_n)))


def _reports(lo: int, hi: int, reps: np.ndarray) -> list[PolarizationReport]:
    """The reports of degrees lo..hi from all their orbit representatives (see orbit_reps).

    Each report holds its degree's slices of one orbit array and of the
    class table; no per-orbit or per-class object is built.
    """
    ns, orbits = _orbit_rows(lo, hi, reps)
    table = _classes(ns, orbits)
    statuses = _statuses(table)
    degrees = np.arange(lo, hi + 2)
    cuts = np.searchsorted(ns, degrees).tolist()
    class_cuts = np.searchsorted(table.n, degrees).tolist()
    return [
        PolarizationReport(
            n=n,
            l_squared=4 * n,
            representable=cuts[i] < cuts[i + 1],
            orbits=orbits[cuts[i] : cuts[i + 1]],
            classes=table[class_cuts[i] : class_cuts[i + 1]],
            statuses=statuses[class_cuts[i] : class_cuts[i + 1]],
            quadric_count=quadric_count(n),
            ambient_dim=ambient_dim(n),
        )
        for i, n in enumerate(range(lo, hi + 1))
    ]


def classify(n: int) -> PolarizationReport:
    """Full classification of degree-4n polarization vectors.

    Orbits are listed by lexicographically smallest member; each row carries
    the reduced transcendental form of the orthogonal complement (an orbit
    invariant) and the sublattice index.  All arithmetic is exact.
    The representatives come from degree_reps, which factors each
    4n - 10 z^2 instead of walking the norm as the range path does.
    A non-representable degree has no orbits and is not enumerated.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"degree parameter n must be in 1..{MAX_N}")
    reps = degree_reps(n) if is_representable(n) else np.zeros((0, 3), dtype=np.int64)
    return _reports(n, n, reps)[0]


# degrees whose projective models were settled before this classification;
# keyed by (n, discriminant of the transcendental class)
PRIOR_MODELS: dict[tuple[int, int], str] = {
    (1, 40): "quartic surface model",
    (2, 20): "intersection of three quadrics",
    (10, 4): "diag(4, 4) transcendental lattice case",
}

# degrees of doubled polarizations L = 2M (n = 4m with m representable);
# their hyperelliptic check reduces to the degree-m model
DOUBLED_DEGREES = frozenset({4, 8, 20, 40})

INFEASIBLE = "infeasible"
FEASIBLE = "FEASIBLE"
KNOWN_MODEL = "known model"
DOUBLED = "doubled polarization"
# every (base-point, hyperelliptic, quadrics) status triple, at its code in _statuses
_STATUS_TRIPLES = (
    *product((INFEASIBLE, FEASIBLE), (INFEASIBLE, FEASIBLE, DOUBLED), (INFEASIBLE, FEASIBLE)),
    *product((KNOWN_MODEL,), (KNOWN_MODEL,), (INFEASIBLE, FEASIBLE)),
)


@dataclass(frozen=True)
class ModelVerdict:
    n: int
    consistent: bool
    label: str


def status_columns(table: ClassTable) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(prior, doubled, feasible): bool columns over the rows of a class table.

    prior marks a class of a prior model, doubled a class of a doubled degree
    whose orbits all have even divisibility; a class is feasible when its
    quadric equation is solvable or, outside the prior models, its base-point
    one or, outside the doubled classes too, its hyperelliptic one.  (The
    genus-2 pencil branch needs L^2 = 10, impossible for L^2 = 4n.)
    """
    prior, doubled = np.zeros((2, len(table)), dtype=bool)
    for n, d in PRIOR_MODELS:
        prior |= (table.n == n) & (table.d == d)
    # == per degree, not np.isin, whose first call alone raised the benchmark's peak RSS by 0.4 MB
    for n in DOUBLED_DEGREES:
        doubled |= table.n == n
    doubled &= ~table.odd
    feasible = table.eq90 | ~prior & (table.div1 | ~doubled & table.div2)
    return prior, doubled, feasible


def _statuses(table: ClassTable) -> list[tuple[str, str, str]]:
    """The (base-point, hyperelliptic, quadrics) statuses of every row of a class table."""
    prior, doubled, _ = status_columns(table)
    # the index into _STATUS_TRIPLES: 6 base + 2 hyper + quadrics, each check 1 when feasible and hyper 2
    # for a doubled class; a class of a prior model takes 12 + quadrics
    code = 2 * np.where(prior, 6, 3 * table.div1 + np.where(doubled, 2, table.div2)) + table.eq90
    return [_STATUS_TRIPLES[c] for c in code.tolist()]


def model_verdict(report: PolarizationReport) -> ModelVerdict:
    """Combine the obstruction checks of a degree's classes into its verdict.

    A feasible obstruction would contradict the classification and is
    surfaced as a loud FEASIBLE discrepancy, never silently dropped.
    """
    if not report.representable:
        raise ValueError("no model verdict for a non-representable degree")
    consistent = not status_columns(report.classes)[2].any()
    label = "embedding; quadrics only" if consistent else "DISCREPANCY: obstruction feasible"
    return ModelVerdict(n=report.n, consistent=consistent, label=label)


def classify_range(max_n: int) -> list[PolarizationReport]:
    """Reports for n = 1..max_n, ascending, equal to [classify(n) for n in 1..max_n].

    One pass of orbit_reps(max_n), max_n <= MAX_RANGE_N, finds the
    representatives of every degree at once; orbit_classes computes their
    invariants in blocks of kernels._ROWS rows, and they are bucketed by
    n = norm / 4.
    """
    if not 1 <= max_n <= MAX_RANGE_N:
        raise ValueError(f"scan limit must be in 1..{MAX_RANGE_N}")
    return _reports(1, max_n, orbit_reps(max_n))
