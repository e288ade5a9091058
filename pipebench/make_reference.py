"""Record the reference stdout digests that `run.py` checks outputs against.

Run from the root of a checkout of the commit whose outputs are the
reference:

    python3 pipebench/make_reference.py

It writes `pipebench/reference.json`: the sha256 of stdout for the `sweep`
and `scan-par` calls, and per degree for the `deep` calls, which also fixes
the `deep` degrees.  Every output must pass the benchmark's own checks
before it is recorded, and the orbit count the benchmark derives
independently must agree with the library's.
"""

from __future__ import annotations

import json
import math
import random
import sys

import checks
import run

DEEP_RANGE = (10**5, 4 * 10**6)
DEEP_DEGREES = 128
DEEP_DRAW_SEED = 0


def deep_degrees() -> list[int]:
    """One degree, log-uniform, from each 1/DEEP_DEGREES of the log of DEEP_RANGE."""
    rng = random.Random(DEEP_DRAW_SEED)
    lo, hi = map(math.log, DEEP_RANGE)
    return [int(math.exp(lo + (hi - lo) * (k + rng.random()) / DEEP_DEGREES)) for k in range(DEEP_DEGREES)]


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from k3m20 import cli
    from k3m20.polarizations import classify_range

    runner = run.Runner(cli)
    ref: dict = {}
    for name, argv in (
        ("sweep", ["table", "--max-n", str(run.MAX_N), "--format", "csv"]),
        ("scan-par", ["scan", "--max-n", str(run.MAX_N), "--parallel", "2", "--format", "json"]),
    ):
        rc, out, _ = runner.call(argv)
        if rc != 0:
            raise SystemExit(f"{name}: exit code {rc}")
        ref[name] = checks.digest(out)

    orbits = sum(len(r.orbits) for r in classify_range(run.MAX_N))
    if orbits != checks.count_orbits(run.MAX_N):
        raise SystemExit(f"orbit count {orbits} != {checks.count_orbits(run.MAX_N)}")

    ref["deep"] = {}
    for n in deep_degrees():
        rc, out, _ = runner.call(["classify", "--n", str(n), "--format", "json"])
        reason = checks.check_classify(n, rc, out)
        if reason:
            raise SystemExit(f"deep n={n}: {reason}")
        ref["deep"][str(n)] = checks.digest(out)

    (run.HERE / "reference.json").write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")
    print(f"reference: {len(ref['deep'])} deep degrees, {orbits} orbits up to {run.MAX_N}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
