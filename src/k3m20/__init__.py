"""Exact classification of M20-invariant polarizations of K3 surfaces.

The invariant sublattice of the Neron-Severi group under a symplectic
action of the Mathieu group M20 is a fixed rank-3 positive definite
lattice.  This package decides which polarization degrees L^2 = 4n embed
into it, classifies the solution vectors up to the lattice's 16
isometries, computes the resulting transcendental lattices as reduced
binary quadratic forms and checks the projective-model obstructions.
All lattice arithmetic is exact; the orbit representatives are walked
over a fundamental domain of the isometries, and their invariants
computed, in numpy blocks of int64 or, where int64 could overflow, of
python ints (see `kernels`); `class_table` groups them into the
classification table, one row per degree and transcendental class.
"""

__version__ = "0.1.0"

from .binary_forms import EvenBinaryForm, ReducedForm, canonical, equivalent, from_gram, reduce
from .isometries import canonical_rep, parity_lift, same_orbit
from .lattice import GRAM, divisibility, inner, is_primitive, norm, orthogonal_complement
from .polarizations import (
    ClassTable,
    EnumerationAnomaly,
    IndexAnomaly,
    OrbitClass,
    PolarizationReport,
    class_table,
    classify,
    classify_range,
    div_feasible,
    index_from,
    model_verdict,
    quadric_count,
    scale_embedding,
)
from .representability import infinitude_scan, is_representable, two_squares

__all__ = [
    "ClassTable",
    "EnumerationAnomaly",
    "EvenBinaryForm",
    "GRAM",
    "IndexAnomaly",
    "OrbitClass",
    "PolarizationReport",
    "ReducedForm",
    "canonical",
    "canonical_rep",
    "class_table",
    "classify",
    "classify_range",
    "div_feasible",
    "divisibility",
    "equivalent",
    "from_gram",
    "index_from",
    "infinitude_scan",
    "inner",
    "is_primitive",
    "is_representable",
    "model_verdict",
    "norm",
    "orthogonal_complement",
    "parity_lift",
    "quadric_count",
    "reduce",
    "same_orbit",
    "scale_embedding",
    "two_squares",
    "__version__",
]
