"""Classification of polarizations of one degree and model obstruction checks.

For a representable degree L^2 = 4n the solution vectors fall into orbits
under the 16 isometries; each orbit determines (up to equivalence) the
transcendental lattice, an even positive definite binary form (a, b, c) of
discriminant d = 4 a c - b^2 with 160 n = d * I^2 for an integer sublattice
index I.  A non-square 160 n / d can only come from a computation bug, so it
is raised loudly rather than reported.

Obstruction bookkeeping: a divisor class D with D^2 = 2k and D primitive in
the polarized sublattice forces an index equation

    target = n * alpha^2 * d * m        (alpha, m >= 1 integers)

with target in {10, 40, 90} for the base-point-free, hyperelliptic and
quadric-generation obstructions respectively.  `div_feasible` decides that
equation; `model_verdict` combines the three checks per transcendental
class, routing the handful of degrees settled by previously known models
(quartic, triple-quadric, and the diag(4, 4) degree-40 case) and doubled
polarizations L = 2M through explicit exclusion branches instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, isqrt

import numpy as np

from .binary_forms import ReducedForm
from .kernels import MAX_N, EnumerationAnomaly, orbit_classes, orbit_reps
from .lattice import Vec
from .representability import is_representable


class IndexAnomaly(ValueError):
    """160 n / d failed to be a perfect square; carries (n, d)."""

    def __init__(self, n: int, d: int, message: str | None = None):
        self.n = n
        self.d = d
        super().__init__(message or f"index anomaly: 160*{n}/{d} is not a perfect square")


@dataclass(frozen=True)
class OrbitClass:
    """One isometry orbit of solution vectors and its derived invariants."""

    canonical: Vec
    orbit_size: int
    divisibility: int
    primitive_root: Vec
    tx: ReducedForm
    discriminant: int
    index: int


@dataclass(frozen=True)
class ClassFeasibility:
    """Raw Diophantine solvability of the obstruction equations for one class."""

    tx: ReducedForm
    discriminant: int
    div1_solvable: bool
    div2_solvable: bool
    quadrics_eq_solvable: bool


@dataclass(frozen=True)
class PolarizationReport:
    n: int
    l_squared: int
    representable: bool
    orbits: tuple[OrbitClass, ...]
    tx_classes: tuple[ReducedForm, ...]
    quadric_count: int
    ambient_dim: int
    feasibility: tuple[ClassFeasibility, ...]


def quadric_count(n: int) -> int:
    """Quadrics through the degree-4n model: 2 n^2 - 3 n + 1."""
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    return 2 * n * n - 3 * n + 1


def quadric_count_parts(n: int) -> tuple[int, int]:
    """(quadrics in the ambient P^(2n+1), sections of the doubled class).

    Their difference is quadric_count: C(2n+3, 2) - (2 + 8n).
    """
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    return comb(2 * n + 3, 2), 8 * n + 2


def ambient_dim(n: int) -> int:
    """Projective dimension of the model's ambient space, 2n + 1."""
    if n < 1:
        raise ValueError("degree parameter n must be positive")
    return 2 * n + 1


def index_from(n: int, d: int) -> int:
    """Sublattice index I with d * I^2 = 160 n; anomaly unless square.

    The complement of a degree-4n vector has index I in the full orthogonal
    sublattice of the vector, and n d = 10 t^2 for the same reason; both
    must be exact squares, or IndexAnomaly is raised.  (A square 160 n / d
    implies a square n d / 10, not conversely, so the second is checked
    first: then each check can fire alone.)
    """
    if n < 1 or d < 1:
        raise ValueError("need positive n and d")
    if (n * d) % 10 or isqrt(n * d // 10) ** 2 * 10 != n * d:
        raise IndexAnomaly(n, d, f"n*d = {n * d} is not 10 times a square")
    num = 160 * n
    if num % d:
        raise IndexAnomaly(n, d)
    i = isqrt(num // d)
    if i * i * d != num:
        raise IndexAnomaly(n, d)
    return i


def div_feasible(target: int, n: int, d: int) -> bool:
    """Is target = n * alpha^2 * d * m solvable with integers alpha, m >= 1?"""
    if target < 1 or n < 1 or d < 1:
        raise ValueError("need positive arguments")
    base = n * d
    alpha = 1
    while base * alpha * alpha <= target:
        if target % (base * alpha * alpha) == 0:
            return True
        alpha += 1
    return False


def scale_embedding(v: Vec, r: int) -> Vec:
    """The degree-(r^2 n) vector r*v obtained by scaling a degree-n one."""
    if r < 1:
        raise ValueError("scale factor must be positive")
    return (r * v[0], r * v[1], r * v[2])


def _reports(lo: int, hi: int, reps: np.ndarray) -> list[PolarizationReport]:
    """The reports of degrees lo..hi from all their orbit representatives (see orbit_reps)."""
    x, y, z = reps[:, 0], reps[:, 1], reps[:, 2]
    norms = x * x + y * y + 10 * z * z
    # by degree, then by canonical member ((-y - z) / 2, (-x - z) / 2, -z)
    order = np.lexsort((-z, -x - z, -y - z, norms))
    # a norm off 4 lo..4 hi, or not divisible by 4, fails orbit_classes' norm check
    ns = np.clip(norms[order] // 4, lo, hi)
    rows = orbit_classes(ns, reps[order])
    cuts = np.searchsorted(ns, np.arange(lo, hi + 2)).tolist()
    forms: dict[tuple[int, int, int], ReducedForm] = {}
    return [_report(n, rows[cuts[i] : cuts[i + 1]], forms) for i, n in enumerate(range(lo, hi + 1))]


def _report(n: int, rows: list[list[int]], forms: dict) -> PolarizationReport:
    """The report of degree 4n from its orbit_classes rows, ordered by canonical member.

    forms holds one ReducedForm per triple, shared by every orbit carrying it;
    the index is computed once per discriminant.
    """
    representable = is_representable(n)
    if representable != bool(rows):
        raise EnumerationAnomaly(
            n, f"{len(rows)} orbits found, but the closed form says representable={representable}"
        )
    orbits = []
    classes: dict[tuple[int, int, int], ReducedForm] = {}
    indices: dict[int, int] = {}
    for lam, mu, delta, r, a, b, c, d, size in rows:
        tx = forms.get((a, b, c))
        if tx is None:
            tx = forms[a, b, c] = ReducedForm(a, b, c)
        classes[a, b, c] = tx
        index = indices.get(d)
        if index is None:
            index = indices[d] = index_from(n, d)
        orbits.append(
            OrbitClass(
                canonical=(lam, mu, delta),
                orbit_size=size,
                divisibility=r,
                primitive_root=(lam // r, mu // r, delta // r),
                tx=tx,
                discriminant=d,
                index=index,
            )
        )
    tx_classes = tuple(classes[t] for t in sorted(classes))
    feasibility = tuple(_feasibility(n, f) for f in tx_classes)
    return PolarizationReport(
        n=n,
        l_squared=4 * n,
        representable=representable,
        orbits=tuple(orbits),
        tx_classes=tx_classes,
        quadric_count=quadric_count(n),
        ambient_dim=ambient_dim(n),
        feasibility=feasibility,
    )


def _feasibility(n: int, f: ReducedForm) -> ClassFeasibility:
    d = f.discriminant
    return ClassFeasibility(
        tx=f,
        discriminant=d,
        div1_solvable=div_feasible(10, n, d),
        div2_solvable=div_feasible(40, n, d),
        quadrics_eq_solvable=div_feasible(90, n, d),
    )


def classify(n: int) -> PolarizationReport:
    """Full classification of degree-4n polarization vectors.

    Orbits are listed by lexicographically smallest member; each carries the
    reduced transcendental form of the orthogonal complement (an orbit
    invariant) and the sublattice index.  All arithmetic is exact.
    A non-representable degree has no orbits and is not enumerated.
    """
    if not 1 <= n <= MAX_N:
        raise ValueError(f"degree parameter n must be in 1..{MAX_N}")
    reps = orbit_reps(n, n) if is_representable(n) else np.zeros((0, 3), dtype=np.int64)
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


@dataclass(frozen=True)
class ClassVerdict:
    tx: ReducedForm
    discriminant: int
    base_point_status: str
    hyperelliptic_status: str
    quadrics_status: str
    # the genus-2 pencil branch needs L^2 = 10, impossible for L^2 = 4n
    genus2_branch_excluded: bool

    @property
    def consistent(self) -> bool:
        return FEASIBLE not in (
            self.base_point_status,
            self.hyperelliptic_status,
            self.quadrics_status,
        )


@dataclass(frozen=True)
class ModelVerdict:
    n: int
    classes: tuple[ClassVerdict, ...]
    consistent: bool
    label: str


def model_verdict(report: PolarizationReport) -> ModelVerdict:
    """Combine the obstruction checks into a per-class verdict.

    A feasible obstruction would contradict the classification and is
    surfaced as a loud FEASIBLE discrepancy, never silently dropped.
    """
    if not report.representable:
        raise ValueError("no model verdict for a non-representable degree")
    n = report.n
    # a class is doubled when every one of its orbits has even divisibility
    odd_classes = {o.tx for o in report.orbits if o.divisibility % 2}
    classes: list[ClassVerdict] = []
    for feas in report.feasibility:
        d = feas.discriminant
        prior = PRIOR_MODELS.get((n, d))
        doubled = n in DOUBLED_DEGREES and feas.tx not in odd_classes
        if prior:
            bp = KNOWN_MODEL
        elif feas.div1_solvable:
            bp = FEASIBLE
        else:
            bp = INFEASIBLE
        if prior:
            hyp = KNOWN_MODEL
        elif doubled:
            hyp = DOUBLED
        elif feas.div2_solvable:
            hyp = FEASIBLE
        else:
            hyp = INFEASIBLE
        quad = FEASIBLE if feas.quadrics_eq_solvable else INFEASIBLE
        classes.append(
            ClassVerdict(
                tx=feas.tx,
                discriminant=d,
                base_point_status=bp,
                hyperelliptic_status=hyp,
                quadrics_status=quad,
                genus2_branch_excluded=4 * n != 10,
            )
        )
    consistent = all(c.consistent for c in classes)
    label = "embedding; quadrics only" if consistent else "DISCREPANCY: obstruction feasible"
    return ModelVerdict(n=n, classes=tuple(classes), consistent=consistent, label=label)


def classify_range(max_n: int) -> list[PolarizationReport]:
    """Reports for n = 1..max_n, ascending, equal to [classify(n) for n in 1..max_n].

    One sweep of orbit_reps(1, max_n) finds the representatives of every
    degree at once; orbit_classes computes their invariants in one batch,
    and they are bucketed by n = norm / 4.
    """
    if not 1 <= max_n <= MAX_N:
        raise ValueError(f"scan limit must be in 1..{MAX_N}")
    return _reports(1, max_n, orbit_reps(1, max_n))
