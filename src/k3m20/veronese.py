"""Dimension counts for Veronese re-embeddings of the projective models.

Everything here is exact binomial arithmetic: the degree-d Veronese map
sends P^n into P^(C(n+d, d) - 1), and quadrics on the image correspond to
quartics (d = 2) on the source, so dimension counts reduce to counting
monomials.
"""

from __future__ import annotations

from math import comb

from .polarizations import ambient_dim, quadric_count


class DimensionAnomaly(ValueError):
    """A dimension chase missed the closed form it must reach."""


def veronese_target_dim(n: int, d: int) -> int:
    """Dimension of the target of the degree-d Veronese map on P^n."""
    if n < 1 or d < 1:
        raise ValueError("need positive dimension and degree")
    return comb(n + d, d) - 1


def quadrics_on_veronese2(n: int) -> int:
    """Quadrics containing the image of the degree-2 Veronese of P^n.

    Quadrics on P^(C(n+2, 2) - 1) minus the quartics on P^n they restrict to:
    C(C(n+2, 2) + 1, 2) - C(n + 4, 4).
    """
    if n < 1:
        raise ValueError("need positive dimension")
    big = comb(n + 2, 2)
    return comb(big + 1, 2) - comb(n + 4, 4)


def doubled_model_dims(n: int) -> tuple[int, int, int, int]:
    """Chase a degree-4n model through its doubled class 2L.

    Returns (model ambient dim, degree-2 Veronese ambient dim, quadrics
    through the model, ambient dim of the doubled model after cutting those
    quadrics), i.e. (2n+1, 2n^2+5n+2, quadric_count(n), 8n+1).
    """
    q = quadric_count(n)
    if q < 1:
        raise ValueError("no quadrics to cut at this degree")
    before = ambient_dim(n)
    veronese = veronese_target_dim(before, 2)
    after = veronese - q
    if after != 8 * n + 1:
        raise DimensionAnomaly(
            f"dimension anomaly: the doubled model of n = {n} is in P^{after}, not P^{8 * n + 1}"
        )
    return before, veronese, q, after


def scaled_quartic_dims(r: int) -> tuple[int, int, int]:
    """Dimension chase for the quartic model scaled by r (degree 4 r^2).

    Returns (degree-r Veronese ambient dim of P^3, quartics through a quartic
    surface in that embedding, resulting ambient dim): (C(r+3, 3) - 1,
    C(r-1, 3), 2 r^2 + 1).
    """
    if r < 3:
        raise ValueError("scale factor must be at least 3")
    veronese = veronese_target_dim(3, r)
    cut = comb(r - 1, 3)
    after = veronese - cut
    if after - 1 != 2 * r * r:
        raise DimensionAnomaly(
            f"dimension anomaly: the quartic model scaled by {r} is in P^{after}, not P^{2 * r * r + 1}"
        )
    return veronese, cut, after
