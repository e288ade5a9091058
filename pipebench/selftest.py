"""Show that the benchmark's output checks reject wrong outputs.

Run from the root of a checkout:

    python3 pipebench/selftest.py

Each case feeds a deliberately corrupted CLI output to the check that
guards it and requires a failure; the unmodified output must pass.
"""

from __future__ import annotations

import json
import sys

import checks
import run


def corruptions(rep: dict):
    """(description, report) pairs for a representable report, each breaking one invariant."""

    def copy() -> tuple[dict, dict]:
        bad = json.loads(json.dumps(rep))
        return bad, bad["orbits"][0]

    bad, o = copy()
    o["canonical"][0] += 1
    yield "canonical off the norm", bad
    bad, o = copy()
    o["tx"]["b"] = -o["tx"]["a"]
    yield "form not reduced", bad
    bad, o = copy()
    o["discriminant"] += 4
    yield "discriminant not 4ac - b^2", bad
    bad, o = copy()
    o["index"] += 1
    yield "index off d I^2 = 160 n", bad
    bad, _ = copy()
    bad["representable"] = False
    yield "representable flipped", bad
    bad, _ = copy()
    bad["orbits"] = []
    yield "orbits dropped", bad


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    from k3m20 import cli

    ref = json.loads((run.HERE / "reference.json").read_text())
    runner = run.Runner(cli)
    failures = []

    def expect(desc: str, reason: str | None, should_fail: bool) -> None:
        ok = (reason is not None) == should_fail
        print(f"{'ok  ' if ok else 'FAIL'} {desc}: {reason or 'passes'}")
        if not ok:
            failures.append(desc)

    rc, out, _ = runner.call(["table", "--max-n", str(run.MAX_N), "--format", "csv"])
    expect("sweep output", checks.check_exact(ref["sweep"], rc, out), False)
    expect("sweep with one byte changed", checks.check_exact(ref["sweep"], rc, out.replace("\n1,", "\n1 ,", 1)), True)
    expect("sweep with exit code 1", checks.check_exact(ref["sweep"], 1, out), True)

    deep = run.Deep(0, ref["deep"])
    n = min(map(int, ref["deep"]))
    argv = ["classify", "--n", str(n), "--format", "json"]
    rc, out, _ = runner.call(argv)
    rep = json.loads(out)
    expect(f"deep n={n}", deep.check(argv, rc, out), False)
    expect(f"deep n={n} re-indented", deep.check(argv, rc, json.dumps(rep, indent=1) + "\n"), True)
    expect(f"deep n={n} with exit code 2", deep.check(argv, 2, out), True)
    for desc, bad in corruptions(rep):
        expect(f"invariants, {desc}", checks.check_classify(n, rc, json.dumps(bad)), True)

    bad_n = next(int(k) for k in ref["deep"] if not checks.representable(int(k)))
    rc, out, _ = runner.call(["classify", "--n", str(bad_n), "--format", "json"])
    expect(f"non-representable n={bad_n}, exit {rc}", checks.check_classify(bad_n, rc, out), False)
    expect(f"non-representable n={bad_n} with exit code 0", checks.check_classify(bad_n, 0, out), True)

    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
