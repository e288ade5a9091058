"""Even positive definite binary quadratic forms.

A transcendental lattice computed here is an even positive definite rank-2
lattice; its Gram matrix [[4a, 2b], [2b, 4c]] is encoded as the integer
triple (a, b, c) with discriminant d = 4ac - b^2 > 0.  The triple transforms
under SL2(Z) exactly like the classical form a*x^2 + b*x*y + c*y^2, so
equivalence classes are computed by Gauss reduction (`kernels._reduce`,
on whole arrays; its one-form reference is in `tests/oracles.py`).

A reduced form satisfies -a < b <= a <= c.  Reduction is unique up to the
two exceptional families (a, b, a) ~ (a, -b, a) and (a, a, c) ~ (a, -a, c);
the canonical reduced form collapses those by normalising b >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import Gram2


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
