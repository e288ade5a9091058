"""Output checks for the pipeline benchmark.

Every check here recomputes what it needs from the lattice's definition and
does not import the library, so a bug in the library cannot hide itself.
Each check returns None when the output is right, else a one-line reason.
"""

from __future__ import annotations

import hashlib
import json

GRAM = ((4, 0, -2), (0, 4, -2), (-2, -2, 12))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def representable(n: int) -> bool:
    """4n is a norm of the lattice iff n is not of the form 4^i (16j + 6)."""
    while n % 4 == 0:
        n //= 4
    return n % 16 != 6


def lattice_norm(v) -> int:
    return sum(v[i] * GRAM[i][j] * v[j] for i in range(3) for j in range(3))


def count_orbits(max_n: int) -> int:
    """Orbits of nonzero vectors with norm 4n, summed over n = 1..max_n.

    In split coordinates x = 2 lam - delta, y = 2 mu - delta, z = delta the
    norm is x^2 + y^2 + 10 z^2 and the 16 isometries are the signed
    permutations of (x, y) times the sign of z, so every orbit has exactly
    one point with 0 <= x <= y, z >= 0 and x = y = z (mod 2).
    """
    top = 4 * max_n
    count = 0
    z = 0
    while 10 * z * z <= top:
        x = z % 2
        while 10 * z * z + 2 * x * x <= top:
            y = x
            while 10 * z * z + x * x + y * y <= top:
                count += 1
                y += 2
            x += 2
        z += 1
    return count - 1  # the zero vector


def check_exact(expected_digest: str, rc: int, out: str) -> str | None:
    """A seed-independent call: exit 0 and stdout byte-identical to the reference."""
    if rc != 0:
        return f"exit code {rc}, expected 0"
    if digest(out) != expected_digest:
        return "stdout digest differs from the reference"
    return None


def check_classify(n: int, rc: int, out: str) -> str | None:
    """Invariants of one `classify --n n --format json` report."""
    try:
        rep = json.loads(out)
    except ValueError:
        return "stdout is not JSON"
    rep_ok = representable(n)
    if rep.get("n") != n or rep.get("representable") is not rep_ok:
        return f"representable should be {rep_ok} for n={n}"
    if rc != (0 if rep_ok else 2):
        return f"exit code {rc} for representable={rep_ok}"
    orbits = rep.get("orbits")
    if not isinstance(orbits, list) or bool(orbits) != rep_ok:
        return "orbit list does not match representability"
    for o in orbits:
        v = o["canonical"]
        if lattice_norm(v) != 4 * n:
            return f"canonical {v} does not have norm {4 * n}"
        a, b, c = o["tx"]["a"], o["tx"]["b"], o["tx"]["c"]
        if not -a < b <= a <= c:
            return f"form {(a, b, c)} is not reduced"
        d = o["discriminant"]
        if d != 4 * a * c - b * b:
            return f"discriminant {d} is not 4ac - b^2 for {(a, b, c)}"
        if d * o["index"] ** 2 != 160 * n:
            return f"d * I^2 = {d} * {o['index']}^2 is not 160 n"
    return None
