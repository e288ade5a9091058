"""The numpy array layer: the orbit walk and the per-orbit invariants.

`orbit_reps` walks one vector per isometry orbit of every norm up to
4 max_n in one pass (the range path; one degree is enumerated by
`twosquares.degree_reps`);
`orbit_classes` turns rows of those representatives into the per-orbit
rows `classify` reports (canonical member, orbit size, divisibility,
reduced transcendental form, discriminant, index), running every check of the
one-orbit reference on whole arrays and raising its named error, so that
the checks survive `python -O`.  The walk takes max_n up to MAX_RANGE_N;
orbit_classes is exact in int64 for every degree parameter up to MAX_N
(the bound is derived next to it).  The exact pure-python references
they are tested against are in `tests/oracles.py`.
"""

from __future__ import annotations

from math import isqrt, prod

import numpy as np

from .lattice import GRAM, ComplementAnomaly

# The largest degree parameter n the library accepts: every value formed for n <= MAX_N is
# exact in int64, below 2**63 (about 9.2e18).  A domain point (x, y, z) of degree n has
# x^2 + y^2 + 10 z^2 = 4n and 0 <= x <= y, so x <= sqrt(2n), y <= 2 sqrt(n), z <= sqrt(0.4 n),
# y + z <= sqrt(4.4 n) and x + z <= sqrt(2.4 n) (Cauchy-Schwarz).  One bound per value:
# - degree_reps' norms: 4n <= 2**62; orbit_reps' are at most 4 MAX_RANGE_N.
# - twosquares._powmod's moduli (it is exact below 2**40): the root primes, below sqrt(4n) < 2**17,
#   and the split primes, below 2n as the odd part of an even m <= 4n.  A call squares whole when
#   every modulus is below 2**31 (always for the root primes, and when n < 2**30), else in two limbs.
# - In orbit_classes, with g = gcd(2x, 2y) even and 2 <= g <= 2y but at x = y = 0 (g = 0, where
#   the basis is (0, 1, 0), (-1, 0, 0)), and the index I = gcd(g, w3) even:
#   - w3 = x + y - 10 z: 4 sqrt(3n); p3 = w3 / I: 2 sqrt(3n); Euclid's values: 8 sqrt(n);
#   - Euclid's cofactors s, t: 2y / g <= y; u1 = (2x, -2y, 0) / g: y; rep: sqrt(1.1 n);
#   - u2 = (p3 s, p3 t, -g / I): 4 sqrt(3) n; the shift's numerator 2 u2[1] + u1[1], its k and
#     k u1 = u2' - u2: 16 n;
#   - the shifted u2' = u2 + k u1, entry by entry: 4.2 sqrt(n) at the first (|w3| / I + x / g, as
#     (-2y, -2x, w3) . u2' = 0), y / g at u1's largest entry u1[1] = -2y / g, g / I <= y at the third;
#   - an entry of u^T G: 16 max|u|; a term of u^T G w: 16 max|u| max|w| < 300 n;
#   - g11 = 16 (x^2 + y^2) / g^2: 16 n; g12: sqrt(g11 g22) <= 28 n; g22 = X^2 + Y^2 + 10 Z^2 in
#     the norm's split form: 49 n, as |X| <= |x - 10 z| + x <= max(2x, 10 z), |Y| <= y + 1,
#     |Z| <= y and X^2 + 11 y^2 <= 44 n;
#   - a form entry in the Gauss reduction of (g11 / 4, g12 / 2, g22 / 4), d = 160 n / I^2 <= 40 n:
#     14 n, as a only falls and a shift leaves |b| <= a and c = (d + b^2) / 4a <= 11 n;
#   - a witness entry: 17 n, as each column (x, y) takes the start form's value f <= 14 n, and
#     4 c0 f >= d x^2, 4 a0 f >= d y^2 (d >= 3); any other value is a sum or difference of two;
#   - a term a x^2, |b x y| or c y^2 of the witness check: 28 n, twice a reduced form's value
#     a0 <= 4 n or c0 <= 12.25 n, or 4 sqrt(a0 c0) in the middle entry.
# - Every multi-column sort is an argsort of one _one_key, of numpy's default kind, whose radices
#   multiply to below 2**63 (bits = log2 of that product).  The other sorts take one column:
#   twosquares._block_reps' argsort of f_row, whose ties are one row's factors, multiplied in any
#   order, and the np.unique calls of orbit_classes, _block_reps and cli._cmd_scan.  The default
#   kind is not stable, so each key is unique, or its ties are equal rows, or the order of its
#   ties is not used (_classes takes each class's smallest row index).  A checked reduced form has
#   -a < b <= a <= sqrt(d / 3), c <= (d + 1) / 4 and d = 160 n / I^2 with 3 <= d <= 40 n, so
#   I <= sqrt(160 n / 3).  At n = MAX_N (one degree, the norm's radix 1) and
#   N = MAX_RANGE_N = 2*10**4 (degrees 1..N):
#   - orbit_classes' pairs (x, y), taken after its norm check: 33 bits; range 16;
#   - polarizations._orbit_rows (norm, -y - z, -x - z, -z): 48 bits; range 39;
#   - polarizations._classes (n, a, b, -I): 54 bits; range 44;
#   - cli._cmd_scan (a, b, c), range only: 37 bits;
#   - twosquares._hits (i, p), i < _BLOCK = 2**12, p <= sqrt(4n): 29 bits;
#   - twosquares._block_reps (row, x, y), x <= sqrt(2n), y <= sqrt(4n): 45 bits.
MAX_N = 2 * 10**9
# the largest max_n orbit_reps walks, and so the largest range class_table and classify_range
# accept: a range keeps about 0.17 N^1.5 orbit rows in memory (478,346 at N = 2*10**4)
MAX_RANGE_N = 2 * 10**4
# rows per block in orbit_classes; bounds its working memory
_ROWS = 2**11


class EnumerationAnomaly(ValueError):
    """The orbit representatives of degree 4n broke an invariant; carries n."""

    def __init__(self, n: int, message: str):
        self.n = n
        super().__init__(f"enumeration anomaly at n = {n}: {message}")


class ReductionAnomaly(ValueError):
    """Gauss reduction's witness does not carry the form to its reduced form,
    or a reduced form breaks an inequality every reduced form satisfies."""


class SortKeyAnomaly(ValueError):
    """The radices of a sort key's columns multiply to 2**63 or more, past int64."""


def _one_key(*columns: np.ndarray) -> np.ndarray:
    """One int64 key per row of the given int64 columns, most significant first.

    The key is a mixed-radix number: each column's digit is its value less
    the column's minimum, and its radix is max - min + 1 (taken in python
    ints).  So an argsort of the key is a lexicographic sort by the columns,
    and equal keys are equal rows: _starts of the sorted key finds each run's
    first row (only a stable argsort keeps equal rows in input order).
    SortKeyAnomaly is raised unless the radices multiply to below 2**63 (see
    MAX_N for each key's budget), so no digit or key wraps.
    """
    if not len(columns[0]):
        return np.zeros(0, dtype=np.int64)
    digits = np.stack(columns)
    low, high = digits.min(axis=1), digits.max(axis=1)
    spans = [top - bottom + 1 for bottom, top in zip(low.tolist(), high.tolist())]
    total = prod(spans)
    if total >= 2**63:
        raise SortKeyAnomaly(f"sort key anomaly: columns of spans {spans} need {total} keys, past int64")
    digits -= low[:, None]
    return np.ravel_multi_index(digits, spans)


def _starts(key: np.ndarray) -> np.ndarray:
    """The index of the first entry of each run of equal entries of a sorted key (none if it is empty)."""
    return np.flatnonzero(np.concatenate([[len(key) > 0], key[1:] != key[:-1]]))


def _ragged(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c of counts, concatenated (int64)."""
    return np.arange(counts.sum(), dtype=np.int64) - np.repeat(np.cumsum(counts) - counts, counts)


def _isqrt_np(m: np.ndarray) -> np.ndarray:
    """floor(sqrt(m)) for int64 0 <= m <= 2**62 (the float estimate is off by at most 1)."""
    s = np.sqrt(m.astype(np.float64)).astype(np.int64)
    s -= (s * s > m).astype(np.int64)
    s += ((s + 1) * (s + 1) <= m).astype(np.int64)
    return s


def orbit_reps(max_n: int) -> np.ndarray:
    """One vector per isometry orbit of the nonzero vectors of norm at most 4 max_n.

    Rows are (x, y, z) = (2 lam - delta, 2 mu - delta, delta), in which the
    norm is x^2 + y^2 + 10 z^2 and the 16 isometries are the signed
    permutations of (x, y) times the sign of z.  So every orbit has exactly
    one point with 0 <= x <= y, z >= 0 and x = y = z (mod 2), and those
    points are the rows, as an (k, 3) int64 array ordered by z, x, y.

    The walk runs over the (z, x) pairs with 10 z^2 + 2 x^2 <= 4 max_n in one
    pass, at most 7,097 at max_n = MAX_RANGE_N, and each pair contributes the
    y of its parity in [x, sqrt(4 max_n - 10 z^2 - x^2)].
    """
    if not 1 <= max_n <= MAX_RANGE_N:
        raise ValueError(f"need 1 <= max_n <= {MAX_RANGE_N}")
    top = 4 * max_n
    zs = np.arange(isqrt(top // 10) + 1, dtype=np.int64)
    x_counts = (_isqrt_np((top - 10 * zs * zs) // 2) - (zs & 1)) // 2 + 1
    z = np.repeat(zs, x_counts)
    x = (z & 1) + 2 * _ragged(x_counts)
    y_hi = _isqrt_np(top - 10 * z * z - x * x)
    y_hi -= (y_hi - z) & 1
    count = (y_hi - x) // 2 + 1  # at least 1, as 2 x^2 <= 4 max_n - 10 z^2
    x, z = np.repeat(x, count), np.repeat(z, count)
    # the first row is the origin (z = x = y = 0), the one point of norm 0
    return np.stack([x, x + 2 * _ragged(count), z], axis=1)[1:]


def orbit_classes(ns: np.ndarray, reps: np.ndarray) -> np.ndarray:
    """The report rows of the orbits with domain points reps, of degrees ns.

    reps is a (k, 3) int64 array of split-coordinate points (x, y, z) as
    returned by orbit_reps, ns the (k,) degrees they must have
    (x^2 + y^2 + 10 z^2 = 4 n).  Row i of the (k, 10) result, a report's
    orbit row, is [lam, mu, delta, size, r, a, b, c, d, index] for orbit i:
    its canonical member v, the orbit size, v's divisibility, the canonical
    reduced form of v's orthogonal complement, its discriminant d and the
    index I = div(v), the content of G v; d I^2 = 160 n (Nikulin's index
    formula) ties the two, and `polarizations._classes` checks it.

    The domain and norm checks run on all rows, and then the extended gcd,
    which depends on (x, y) alone, once per distinct pair; the rest runs in
    blocks of `_ROWS` rows, so that its intermediates do not grow with k.
    Every degree must be in 1..MAX_N, where every value formed, O(n), is exact in int64.
    """
    if len(ns) and not 1 <= ns.min() <= ns.max() <= MAX_N:
        raise ValueError(f"need 1 <= n <= {MAX_N}")
    x, y, z = reps[:, 0], reps[:, 1], reps[:, 2]
    i = _first_bad((x < 0) | (x > y) | (z < 0) | (((x - z) | (y - z)) & 1 != 0))
    if i is not None:
        raise EnumerationAnomaly(int(ns[i]), f"{tuple(reps[i].tolist())} is outside the fundamental domain")
    i = _first_bad(x * x + y * y + 10 * z * z != 4 * ns)
    if i is not None:
        raise EnumerationAnomaly(int(ns[i]), f"{tuple(reps[i].tolist())} does not have norm {4 * int(ns[i])}")

    # one row per distinct (x, y), whose key the norm check keeps within 33 bits (see MAX_N)
    pairs, pair = np.unique(_one_key(x, y), return_inverse=True)
    at = np.empty(len(pairs), dtype=np.int64)
    at[pair] = np.arange(len(pair))
    euclid = _xgcd(-2 * y[at], -2 * x[at])
    rows = np.empty((len(ns), 10), dtype=np.int64)
    for i in range(0, len(ns), _ROWS):
        block = pair[i : i + _ROWS]
        rows[i : i + _ROWS] = _classes_block(reps[i : i + _ROWS], [e[block] for e in euclid])
    return rows


def _first_bad(bad: np.ndarray) -> int | None:
    return int(np.argmax(bad)) if bad.any() else None


def _classes_block(pts: np.ndarray, euclid) -> np.ndarray:
    """orbit_classes for one block of checked points, on int64 columns (or python-int object
    arrays); euclid is _xgcd(-2y, -2x) of the block's rows."""
    x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]

    # the canonical member, the lift of (-y, -x, -z) (see oracles.canonical_member)
    rep = ((-y - z) // 2, (-x - z) // 2, -z)
    r = np.gcd(np.gcd(rep[0], rep[1]), rep[2])
    # the complement is the kernel of w -> <rep, w>, the row G rep = (-2y, -2x, w3)
    # over its content div(rep) = gcd(g, w3), g = gcd(2x, 2y); Euclid on (-2y, -2x)
    # runs the quotients it would on that primitive row, so its cofactors s, t serve
    w3 = x + y - 10 * z
    g, s, t = euclid
    index = np.gcd(g, w3)
    flat = g == 0  # x = y = 0: u1 = (0, 1, 0), and s = 1, t = 0 and p3 = -1 make u2 = (-1, 0, 0)
    g1 = np.maximum(g, 1)
    p3 = w3 // index
    u1 = (2 * x // g1, np.where(flat, 1, -2 * y // g1), 0 * g)
    u2 = (p3 * s, p3 * t, -g // index)
    # shift u2 by the multiple of u1 that brings its entry at u1's largest, u1[1] (x <= y),
    # nearest to 0: then every entry of u2 is O(sqrt(n)), and every Gram entry O(n) (see MAX_N)
    k = -((2 * u2[1] + u1[1]) // (2 * u1[1]))
    u2 = tuple(e + k * f for e, f in zip(u2, u1))
    ug1, ug2 = _times_gram(u1), _times_gram(u2)
    i = _first_bad((_dot(ug1, rep) != 0) | (_dot(ug2, rep) != 0))
    if i is not None:
        u1, u2, rep = (tuple(int(e[i]) for e in v) for v in (u1, u2, rep))
        raise ComplementAnomaly(f"complement anomaly: {u1}, {u2} are not both orthogonal to {rep}")
    g11, g12, g21, g22 = _dot(ug1, u1), _dot(ug1, u2), _dot(ug2, u1), _dot(ug2, u2)
    _check_gram(g11, g12, g21, g22)
    form = (g11 // 4, g12 // 2, g22 // 4)
    (a, b, c), witness = _reduce(*form)
    _check_witness(form, (a, b, c), witness)
    d = 4 * a * c - b * b

    # 16 over the stabiliser (see oracles.orbit_size)
    stabiliser = np.where(z == 0, 2, 1) * np.where(
        (x == 0) & (y == 0), 8, np.where((x == 0) | (x == y), 2, 1)
    )
    return np.column_stack([*rep, 16 // stabiliser, r, a, b, c, d, index])


def _dot(u: tuple, v: tuple) -> np.ndarray:
    """The row-wise dot product of two triples of columns (or python scalars)."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _times_gram(u: tuple) -> tuple:
    """u^T G as three columns, G = lattice.GRAM's entries as python scalars."""
    return tuple(_dot(u, column) for column in zip(*GRAM))


def _check_gram(g11: np.ndarray, g12: np.ndarray, g21: np.ndarray, g22: np.ndarray) -> None:
    """oracles.check_gram2 on the columns of Gram matrices [[g11, g12], [g21, g22]],
    raising ComplementAnomaly, but for the determinant: past g11 > 0, positive
    definiteness is left to _reduce, which certifies it without forming it."""
    for bad, what in (
        (g12 != g21, "is not symmetric"),
        ((g11 | g22) & 3 != 0, "has a diagonal entry not divisible by 4"),
        (g12 & 1 != 0, "has an odd off-diagonal entry"),
        (g11 <= 0, "is not positive definite"),
    ):
        i = _first_bad(bad)
        if i is not None:
            gram = [[int(g11[i]), int(g12[i])], [int(g21[i]), int(g22[i])]]
            raise ComplementAnomaly(f"complement anomaly: Gram matrix {gram} {what}")


def _xgcd(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """oracles._xgcd row by row: (g, s, t) with g = gcd(a, b) >= 0 and s a + t b = g."""
    old_r, r = a.copy(), b.copy()
    old_s, s = np.ones_like(a), np.zeros_like(a)
    old_t, t = np.zeros_like(a), np.ones_like(a)
    live = np.flatnonzero(r != 0)
    while live.size:
        o_r, n_r, o_s, n_s, o_t, n_t = (v[live] for v in (old_r, r, old_s, s, old_t, t))
        q = o_r // n_r
        rest = o_r - q * n_r
        old_r[live], r[live] = n_r, rest
        old_s[live], s[live] = n_s, o_s - q * n_s
        old_t[live], t[live] = n_t, o_t - q * n_t
        live = live[rest != 0]
    sign = np.where(old_r < 0, -1, 1)
    return sign * old_r, sign * old_s, sign * old_t


def _reduce(a: np.ndarray, b: np.ndarray, c: np.ndarray):
    """Gauss reduction of the forms (a, b, c) with a > 0 to their canonical reduced forms.

    A transcendental lattice is an even positive definite rank-2 lattice;
    its Gram matrix [[4a, 2b], [2b, 4c]] is encoded as the integer triple
    (a, b, c) with discriminant d = 4ac - b^2 > 0.  The triple transforms
    under SL2(Z) exactly like the classical form a x^2 + b x y + c y^2, so
    classes are found by Gauss reduction.  A reduced form satisfies
    -a < b <= a <= c, and is unique up to the two exceptional families
    (a, b, a) ~ (a, -b, a) and (a, a, c) ~ (a, -a, c); the canonical
    reduced form collapses those by normalising b >= 0.

    Returns ((a, b, c), (p, q, r, s)) with t = [[p, q], [r, s]] in SL2(Z)
    carrying each form to its reduced one, as oracles.reduce does row
    by row: b is shifted into (-a, a], and (a, b, c) -> (c, -b, a) while
    a > c.  One more swap when a = c and b < 0 makes b >= 0 in that case,
    which is oracles.canonical.  A reduced row shifts by 0 and does not
    swap, so the loop runs until no row swaps.

    A positive definite form takes only positive values, so a value c <= 0
    raises ComplementAnomaly.  Each swap but the last lowers the positive
    integer a, so the loop ends on any input, and then
    d = 4ac - b^2 >= 3 a^2 > 0: a form that reduces is positive definite.
    """
    one, zero = np.ones_like(a), np.zeros_like(a)
    p, q, r, s = one, zero, zero, one
    while True:
        k = (a - b) // (2 * a)
        c = c + (a * k + b) * k
        b = b + 2 * k * a
        q, s = q + p * k, s + r * k
        i = _first_bad(c <= 0)
        if i is not None:
            form = (int(a[i]), int(b[i]), int(c[i]))
            raise ComplementAnomaly(f"complement anomaly: the form {form} is not positive definite")
        swap = (a > c) | ((a == c) & (b < 0))
        if not swap.any():
            return (a, b, c), (p, q, r, s)
        a, b, c = np.where(swap, c, a), np.where(swap, -b, b), np.where(swap, a, c)
        p, q, r, s = np.where(swap, q, p), np.where(swap, -p, q), np.where(swap, s, r), np.where(swap, -r, s)


def _check_witness(form, reduced, witness) -> None:
    """Raise ReductionAnomaly unless each witness t has det 1, carries form to
    reduced, and reduced is canonical: -a < b <= a <= c, b >= 0 when a = c.

    t carries form to reduced exactly when its inverse [[s, -q], [-r, p]]
    carries reduced back to form, and that direction keeps every term
    within a few times the form's own entries (see MAX_N).
    """
    a, b, c = reduced
    p, q, r, s = witness
    back = (
        a * s * s - b * s * r + c * r * r,
        b * (s * p + q * r) - 2 * a * s * q - 2 * c * r * p,
        a * q * q - b * q * p + c * p * p,
    )
    bad = p * s - q * r != 1
    for have, want in zip(back, form):
        bad |= have != want
    bad |= ~((-a < b) & (b <= a) & (a <= c) & ((a < c) | (b >= 0)))
    i = _first_bad(bad)
    if i is not None:
        t = ((int(p[i]), int(q[i])), (int(r[i]), int(s[i])))
        have = tuple(int(f[i]) for f in form)
        want = (int(a[i]), int(b[i]), int(c[i]))
        raise ReductionAnomaly(
            f"reduction anomaly: {want} is not the canonical reduced form of {have} by witness {t}"
        )
