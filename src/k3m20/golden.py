"""The published classification table, kept verbatim, with documented errata.

Each row stores the values exactly as printed (quadric count q, reduced
form (a, b, c), embedding vectors, sublattice index).  Four rows of the
published table are internally inconsistent: a printed value contradicts
the table's own defining identities (q = 2n^2 - 3n + 1, d * I^2 = 160 n,
or the row's own displayed Gram matrix).  Those rows carry the arithmetic
correction in the *_expected fields together with a note; checks compare
the pipeline against the corrected value and report the published one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Vec, domain_point, norm
from .polarizations import classify


@dataclass(frozen=True)
class GoldenRow:
    n: int
    l_squared: int
    q: int
    form: tuple[int, int, int]
    embeddings: tuple[Vec, ...]
    index: int
    q_expected: int | None = None
    form_expected: tuple[int, int, int] | None = None
    index_expected: int | None = None
    note: str = ""

    @property
    def want_q(self) -> int:
        return self.q if self.q_expected is None else self.q_expected

    @property
    def want_form(self) -> tuple[int, int, int]:
        return self.form if self.form_expected is None else self.form_expected

    @property
    def want_index(self) -> int:
        return self.index if self.index_expected is None else self.index_expected


GOLDEN_ROWS: tuple[GoldenRow, ...] = (
    GoldenRow(
        n=1, l_squared=4, q=1, form=(1, 0, 10), embeddings=((1, 0, 0),), index=2,
        q_expected=0,
        note="printed q=1; the count 2n^2-3n+1 is 0 at n=1 (the degree-4 model lies on no quadric)",
    ),
    GoldenRow(n=2, l_squared=8, q=3, form=(2, 2, 3), embeddings=((1, 1, 0),), index=4),
    GoldenRow(n=3, l_squared=12, q=10, form=(2, 0, 15), embeddings=((0, 0, 1),), index=2),
    GoldenRow(n=4, l_squared=16, q=21, form=(1, 0, 10), embeddings=((2, 0, 0),), index=4),
    GoldenRow(
        n=5, l_squared=20, q=36, form=(5, 0, 10),
        embeddings=((1, 2, 0), (0, 1, -1)), index=2,
    ),
    GoldenRow(
        n=7, l_squared=28, q=80, form=(2, 0, 35), embeddings=((1, 1, -1),), index=4,
        q_expected=78, index_expected=2,
        note="printed q=80 and I=4; 2n^2-3n+1 = 78 and 160n/d = 1120/280 = 4 = 2^2",
    ),
    GoldenRow(n=8, l_squared=32, q=105, form=(2, 2, 3), embeddings=((2, 2, 0),), index=8),
    GoldenRow(n=9, l_squared=36, q=136, form=(1, 0, 10), embeddings=((3, 0, 0),), index=6),
    GoldenRow(n=9, l_squared=36, q=136, form=(9, 6, 11), embeddings=((3, 0, 1),), index=2),
    GoldenRow(n=10, l_squared=40, q=171, form=(1, 0, 1), embeddings=((1, 1, 2),), index=20),
    GoldenRow(n=10, l_squared=40, q=171, form=(5, 0, 5), embeddings=((1, 3, 0),), index=4),
    GoldenRow(
        n=15, l_squared=60, q=406, form=(2, 0, 3), embeddings=((2, 2, -1),), index=5,
        index_expected=10,
        note="printed I=5; 160n/d = 2400/24 = 100 = 10^2",
    ),
    GoldenRow(
        n=15, l_squared=60, q=406, form=(5, 0, 25), embeddings=((1, 0, -2),), index=1,
        form_expected=(5, 0, 30), index_expected=2,
        note=(
            "printed (a,b,c)=(5,0,25) and I=1 contradict the row's own Gram matrix "
            "[[20,0],[0,120]], which gives (5,0,30), d=600, 160n/d = 4 = 2^2"
        ),
    ),
    GoldenRow(n=18, l_squared=72, q=595, form=(2, 2, 3), embeddings=((3, 3, 0),), index=12),
    GoldenRow(n=18, l_squared=72, q=595, form=(2, 2, 23), embeddings=((3, 3, 2),), index=4),
    GoldenRow(n=30, l_squared=120, q=1711, form=(5, 5, 5), embeddings=((3, 1, -2),), index=8),
    GoldenRow(
        n=45, l_squared=180, q=3916, form=(5, 0, 10),
        embeddings=((0, 3, -3), (3, 6, 0)), index=6,
    ),
    GoldenRow(
        n=45, l_squared=180, q=3916, form=(5, 0, 90),
        embeddings=((4, 6, 1), (3, 4, 4)), index=2,
    ),
    GoldenRow(n=90, l_squared=360, q=15931, form=(5, 0, 5), embeddings=((3, 9, 0),), index=12),
    GoldenRow(n=90, l_squared=360, q=15931, form=(1, 0, 1), embeddings=((3, 3, 6),), index=60),
    GoldenRow(n=90, l_squared=360, q=15931, form=(5, 0, 45), embeddings=((3, 7, -2),), index=4),
    GoldenRow(n=90, l_squared=360, q=15931, form=(2, 2, 5), embeddings=((3, 3, -4),), index=20),
)

# the one degree the table lists as having no embedding at all
NON_REPRESENTABLE_GOLDEN: tuple[int, ...] = (6,)


@dataclass(frozen=True)
class GoldenDiff:
    n: int
    form: tuple[int, int, int]
    field: str
    expected: object
    got: object

    def __str__(self) -> str:
        return f"n={self.n} form={self.form}: {self.field}: expected {self.expected}, got {self.got}"


@dataclass(frozen=True)
class GoldenCheckResult:
    ok: bool
    lines: tuple[str, ...]
    diffs: tuple[GoldenDiff, ...]


def golden_check(rows: tuple[GoldenRow, ...] = GOLDEN_ROWS) -> GoldenCheckResult:
    """Recompute every golden row and diff the pipeline against it.

    Checks per row: the representability, quadric count and L^2 of its
    degree, the presence of the reduced form among the degree's classes and
    that class's sublattice index, read off the class table, and that each
    printed embedding vector has the right norm and that the orbit of its
    domain point carries that class.  Per degree, the computed set of
    classes must match the golden set exactly (no extras, no omissions).
    """
    diffs: list[GoldenDiff] = []
    lines: list[str] = []
    degrees = sorted({*NON_REPRESENTABLE_GOLDEN, *(row.n for row in rows)})
    reports = {n: classify(n) for n in degrees}

    for n in NON_REPRESENTABLE_GOLDEN:
        if reports[n].representable:
            diffs.append(GoldenDiff(n, (0, 0, 0), "representable", False, True))
            lines.append(f"n={n}: FAIL (expected no embedding)")
        else:
            lines.append(f"n={n}: ok (no embedding, as published)")

    published: dict[int, set[tuple[int, int, int]]] = {}
    for row in rows:
        n, rep, form = row.n, reports[row.n], row.want_form
        published.setdefault(n, set()).add(form)
        index_of = dict(zip(rep.classes.forms(), rep.classes.index.tolist()))
        form_of = {domain_point(o[:3]): tuple(o[5:8]) for o in rep.orbits.tolist()}
        checks = [
            ("representable", True, rep.representable),
            ("q", row.want_q, rep.quadric_count),
            ("l_squared", row.l_squared, rep.l_squared),
        ]
        row_diffs = [GoldenDiff(n, row.form, *check) for check in checks if check[1] != check[2]]
        index = index_of.get(form)
        if index is None:
            row_diffs.append(GoldenDiff(n, row.form, "tx", form, sorted(index_of)))
        elif index != row.want_index:
            row_diffs.append(GoldenDiff(n, row.form, "index", row.want_index, [index]))
        for v in row.embeddings:
            got = form_of.get(domain_point(v))
            if norm(v) != 4 * n:
                row_diffs.append(GoldenDiff(n, row.form, "embedding-norm", 4 * n, norm(v)))
            elif got is None:
                row_diffs.append(GoldenDiff(n, row.form, "embedding-orbit", v, None))
            elif got != form:
                row_diffs.append(GoldenDiff(n, row.form, "embedding-class", form, got))
        status = "ok" if not row_diffs else "FAIL"
        note = f"  [{row.note}]" if row.note else ""
        lines.append(f"n={n} form={row.form}: {status} (q={row.want_q}, I={row.want_index}){note}")
        diffs.extend(row_diffs)

    # per-degree completeness: published classes = computed classes
    for n, forms in sorted(published.items()):
        computed = set(reports[n].classes.forms())
        if computed != forms:
            diffs.append(GoldenDiff(n, (0, 0, 0), "class-set", sorted(forms), sorted(computed)))
            lines.append(f"n={n}: FAIL (class sets differ)")

    return GoldenCheckResult(ok=not diffs, lines=tuple(lines), diffs=tuple(diffs))
