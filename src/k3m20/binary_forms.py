"""Even positive definite binary quadratic forms and Gauss reduction.

A transcendental lattice computed here is an even positive definite rank-2
lattice; its Gram matrix [[4a, 2b], [2b, 4c]] is encoded as the integer
triple (a, b, c) with discriminant d = 4ac - b^2 > 0.  The triple transforms
under SL2(Z) exactly like the classical form a*x^2 + b*x*y + c*y^2, so
equivalence classes are computed by Gauss reduction.

A reduced form satisfies -a < b <= a <= c.  Reduction is unique up to the
two exceptional families (a, b, a) ~ (a, -b, a) and (a, a, c) ~ (a, -a, c);
`canonical` collapses those by normalising b >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Gram2, check_gram2

Mat2 = tuple[tuple[int, int], tuple[int, int]]

IDENTITY2: Mat2 = ((1, 0), (0, 1))


class ReductionAnomaly(ValueError):
    """Gauss reduction's witness does not carry the form to its reduced form,
    or a reduced form breaks an inequality every reduced form satisfies."""


@dataclass(frozen=True)
class EvenBinaryForm:
    """Triple (a, b, c) for the even Gram matrix [[4a, 2b], [2b, 4c]]."""

    a: int
    b: int
    c: int

    def __post_init__(self) -> None:
        if self.a <= 0 or self.c <= 0 or self.discriminant <= 0:
            raise ValueError("form must be positive definite")

    @property
    def discriminant(self) -> int:
        return 4 * self.a * self.c - self.b * self.b

    @property
    def gram(self) -> Gram2:
        return ((4 * self.a, 2 * self.b), (2 * self.b, 4 * self.c))

    def triple(self) -> tuple[int, int, int]:
        return (self.a, self.b, self.c)

    def is_reduced(self) -> bool:
        return -self.a < self.b <= self.a <= self.c


@dataclass(frozen=True)
class ReducedForm(EvenBinaryForm):
    """An EvenBinaryForm satisfying -a < b <= a <= c."""

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.is_reduced():
            raise ValueError("form is not reduced")
        # b^2 <= ac, that is 3ac <= d, for any reduced positive form
        if self.b * self.b > self.a * self.c:
            raise ReductionAnomaly(f"reduction anomaly: reduced form {self.triple()} breaks b^2 <= ac")


def from_gram(gram: Gram2) -> EvenBinaryForm:
    """Read (a, b, c) off an even positive definite 2x2 Gram matrix."""
    check_gram2(gram)
    return EvenBinaryForm(gram[0][0] // 4, gram[0][1] // 2, gram[1][1] // 4)


def _mat2_mul(m: Mat2, n: Mat2) -> Mat2:
    return (
        (m[0][0] * n[0][0] + m[0][1] * n[1][0], m[0][0] * n[0][1] + m[0][1] * n[1][1]),
        (m[1][0] * n[0][0] + m[1][1] * n[1][0], m[1][0] * n[0][1] + m[1][1] * n[1][1]),
    )


def transform(form: EvenBinaryForm, t: Mat2) -> EvenBinaryForm:
    """The form of the basis change by t in SL2(Z): x -> p x' + q y', y -> r x' + s y'."""
    (p, q), (r, s) = t
    if p * s - q * r != 1:
        raise ValueError("transform must have determinant 1")
    a, b, c = form.a, form.b, form.c
    return EvenBinaryForm(
        a * p * p + b * p * r + c * r * r,
        2 * a * p * q + b * (p * s + q * r) + 2 * c * r * s,
        a * q * q + b * q * s + c * s * s,
    )


def reduce(form: EvenBinaryForm) -> tuple[ReducedForm, Mat2]:
    """Gauss-reduce, returning (reduced, t) with t^T Gram(form) t = Gram(reduced).

    Normalisation shifts b into (-a, a] by b -> b + 2ka; when a > c the swap
    (a, b, c) -> (c, -b, a) applies.  Each swap strictly drops a, so the loop
    terminates.
    """
    a, b, c = form.a, form.b, form.c
    t: Mat2 = IDENTITY2
    while True:
        if not -a < b <= a:
            k = (a - b) // (2 * a)
            b, c = b + 2 * k * a, a * k * k + b * k + c
            t = _mat2_mul(t, ((1, k), (0, 1)))
        if a > c:
            a, b, c = c, -b, a
            t = _mat2_mul(t, ((0, -1), (1, 0)))
        elif -a < b <= a:
            break
    reduced = ReducedForm(a, b, c)
    if transform(form, t).triple() != reduced.triple():
        raise ReductionAnomaly(
            f"reduction anomaly: witness {t} does not carry {form.triple()} to {reduced.triple()}"
        )
    return reduced, t


def canonical(form: EvenBinaryForm) -> ReducedForm:
    """Class label: the reduced form with b >= 0 in the exceptional cases."""
    r, _ = reduce(form)
    if r.b < 0 and (r.b == -r.a or r.a == r.c):
        return ReducedForm(r.a, -r.b, r.c)
    return r


def equivalent(f1: EvenBinaryForm, f2: EvenBinaryForm) -> bool:
    """SL2(Z)-equivalence of forms."""
    return canonical(f1).triple() == canonical(f2).triple()
