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


class ReductionAnomaly(ValueError):
    """Gauss reduction's witness does not carry the form to its reduced form,
    or a reduced form breaks an inequality every reduced form satisfies."""
