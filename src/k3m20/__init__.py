"""Exact classification of M20-invariant polarizations of K3 surfaces.

The invariant sublattice of the Neron-Severi group under a symplectic
action of the Mathieu group M20 is a fixed rank-3 positive definite
lattice.  This package decides which polarization degrees L^2 = 4n embed
into it, classifies the solution vectors up to the lattice's 16
isometries, computes the resulting transcendental lattices as reduced
binary quadratic forms and checks the projective-model obstructions.
All lattice arithmetic is exact; the orbit representatives of a range
are walked over a fundamental domain of the isometries in one pass, those
of one degree found by sums of two squares, and their invariants computed
in numpy blocks of int64, exact for every degree the library accepts (see
`kernels.MAX_N`); `class_table` groups them into the classification
table, one row per degree and transcendental class, for ranges up to
`kernels.MAX_RANGE_N`, whose orbit rows fit in memory.  A
report of one degree carries its orbits as one array, a row per orbit,
and its classes as that degree's rows of the class table.
"""

__version__ = "0.1.0"

from .lattice import GRAM, inner, norm
from .polarizations import (
    ClassTable,
    EnumerationAnomaly,
    IndexAnomaly,
    PolarizationReport,
    class_table,
    classify,
    classify_range,
    model_verdict,
    quadric_count,
)
from .representability import is_representable

__all__ = [
    "ClassTable",
    "EnumerationAnomaly",
    "GRAM",
    "IndexAnomaly",
    "PolarizationReport",
    "class_table",
    "classify",
    "classify_range",
    "inner",
    "is_representable",
    "model_verdict",
    "norm",
    "quadric_count",
    "__version__",
]
