"""Pipeline benchmark for k3m20: the CLI runs users make, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 pipebench/run.py --workload sweep --seed 0 --seconds 30 --trace 0

The benchmark imports the library from `src/` of the checkout and drives the
real command line in-process through `k3m20.cli.main(argv)`, with stdout
captured and checked.  It is one client in a closed loop: each CLI call
starts when the previous one has returned.  A pass is the workload's list of
calls; passes run back to back for about `--seconds` (a pass is not
started if more than half of it would fall after that).

Workloads and why each was chosen:

- `sweep`: `table --max-n 2000 --format csv`, serial.  The main user run:
  every degree up to 2000 is enumerated and classified.  Per-degree
  enumeration is O(n), so the sweep is O(N^2), and most of its degrees lie
  below the point (about 10^4) where the numpy kernel starts to beat pure
  python.  A one-pass sweep over orbit representatives or a batched
  per-orbit layer shows here first.
- `scan-par`: `scan --max-n 2000 --parallel 2 --format json`.  The same
  classify layers through a process pool, with the reports pickled back,
  plus `model_verdict` and the prime witnesses.  A change that speeds up
  `sweep` but costs the pooled path shows here, and it tells whether
  `--parallel` still pays.
- `deep`: 128 calls `classify --n n --format json` on a log-uniform draw
  of degrees from [10^5, 4 10^6], non-representable degrees included.
  Dominated by enumeration, all of it above the kernel switch, so it sits
  on the other side of that switch from `sweep`; per-call latency is
  meaningful here.

`sweep` and `scan-par` do not depend on `--seed`.  For `deep` the seed sets
the order of the calls; the degrees themselves are one draw, made by
`make_reference.py` (one degree from each 1/128 of the log range) and
stored with their reference digests.  A call costs from 1 ms (a
non-representable degree) to about 760 ms (n near 3.2 10^6 with 1782
orbits) on a 2-CPU Xeon VM.  Resampling 1024 such measured calls, a fresh
draw of 128 degrees per seed spread the pass time by about 7%, the median
call by about 10% and the tail by about 16% (interquartile range over ten
seeds, as a share of the median), too much to leave room for machine noise
under any bound.

Every output is checked: exit codes, byte digests of stdout against
`reference.json` (recorded when the benchmark was added; per degree for `deep`),
the invariants of every `deep` report, and one `golden-check` per run.
A call that fails a check counts in `failed`.

With `--trace 0` the run reports the end-to-end metrics of BENCHMARK.json.
`wall_s` is the mean pass time; latencies are per call, a call repeated
over passes counting once at its median.  All of these are calibrated by a
machine-speed probe run between calls (see `calibrate.py`); the raw pass
times are printed too.  `setup_s` is raw: the median of several fresh
processes each importing `k3m20.cli` and answering a first call.  With
`--trace 1` it alternates untraced and traced passes and reports the
per-layer metrics, measured by `tracer.py` around calls into each module,
and the tracing overhead; the spans are written to `.bench_out/`.

Before the result (the last line of stdout) the run prints the environment,
a warning when the enumeration backend differs from `baseline.json`'s, the
pass details and `failed_frac`, the share of attempted calls that failed.
"""

from __future__ import annotations

import argparse
import gc
import gzip
import importlib.util
import io
import json
import math
import os
import platform
import random
import resource
import subprocess
import sys
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from statistics import fmean, median
from time import perf_counter

import numpy

import calibrate
import checks
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MAX_N = 2000
SETUP_RUNS = 11
PROBE_EVERY_S = 1.0  # one calibration probe per second of calls
# a fresh process imports the CLI and answers one small call, so lazy
# initialisation (the group closure, a JIT compile) counts as set-up
SETUP_CHILD = (
    "import sys, io, contextlib\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import k3m20.cli\n"
    "with contextlib.redirect_stdout(io.StringIO()):\n"
    "    k3m20.cli.main(['classify', '--n', '1000', '--format', 'json'])\n"
    "print('ready', flush=True)\n"
)


class Exact:
    """One seed-independent call per pass; stdout must match the reference digest."""

    def __init__(self, argv: list[str], warmup: list[str], digest: str):
        self.calls = [argv]
        self.warmup = [warmup]
        self.digest = digest
        self.orbits_per_pass = checks.count_orbits(MAX_N)

    def check(self, argv: list[str], rc: int, out: str) -> str | None:
        return checks.check_exact(self.digest, rc, out)


class Deep:
    """A pass of classify calls on the reference degrees, in the seed's order."""

    def __init__(self, seed: int, reference: dict[str, str]):
        degrees = sorted(map(int, reference))
        random.Random(seed).shuffle(degrees)
        self.calls = [["classify", "--n", str(n), "--format", "json"] for n in degrees]
        self.warmup = [["classify", "--n", "100001"], ["classify", "--n", "3999999"]]
        self.reference = reference
        self.orbits: dict[int, int] = {}

    @property
    def orbits_per_pass(self) -> int:
        return sum(self.orbits.values())

    def check(self, argv: list[str], rc: int, out: str) -> str | None:
        n = int(argv[2])
        reason = checks.check_classify(n, rc, out)
        if reason:
            return reason
        if checks.digest(out) != self.reference[str(n)]:
            return "stdout digest differs from the reference"
        self.orbits.setdefault(n, len(json.loads(out)["orbits"]))
        return None


def make_workload(name: str, seed: int, ref: dict):
    if name == "sweep":
        return Exact(
            ["table", "--max-n", str(MAX_N), "--format", "csv"],
            ["table", "--max-n", "600", "--format", "csv"],
            ref["sweep"],
        )
    if name == "scan-par":
        return Exact(
            ["scan", "--max-n", str(MAX_N), "--parallel", "2", "--format", "json"],
            ["scan", "--max-n", "600", "--parallel", "2", "--format", "json"],
            ref["scan-par"],
        )
    return Deep(seed, ref["deep"])


class Runner:
    """Makes CLI calls in-process and keeps the tally of attempted and failed ones."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failures: list[str] = []
        self.probes: list[float] = []
        self._since_probe = PROBE_EVERY_S

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason:
            self.failures.append(f"{what}: {reason}")

    def call(self, argv: list[str], tracer: Tracer | None = None) -> tuple[int, str, float]:
        out = io.StringIO()
        crash = None
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            t0 = perf_counter()
            with tracer.span("cli") if tracer else nullcontext():
                try:
                    rc = self.cli.main(argv)
                except SystemExit as exc:  # argparse usage errors
                    rc = exc.code if isinstance(exc.code, int) else 1
                except Exception as exc:  # a crash is a failed call, not the end of the run
                    rc, crash = -1, exc
            dt = perf_counter() - t0
        if crash:
            print(f"{' '.join(argv)} raised {type(crash).__name__}: {crash}", file=sys.stderr)
        return rc, out.getvalue(), dt

    def golden(self) -> None:
        rc, out, _ = self.call(["golden-check"])
        ok = rc == 0 and out.rstrip().rsplit("\n", 1)[-1].startswith("golden check: OK")
        self.record("golden-check", None if ok else f"exit code {rc}, not OK")

    def warm(self, wl) -> None:
        for argv in wl.warmup:
            rc, _, _ = self.call(argv)
            self.record(" ".join(argv), None if rc == 0 else f"warm-up exit code {rc}")

    def run_pass(self, wl, tracer: Tracer | None = None) -> tuple[list[float], int]:
        times, nbytes = [], 0
        for argv in wl.calls:
            while tracer is None and self._since_probe >= PROBE_EVERY_S:
                self.probes.append(calibrate.probe())
                self._since_probe -= PROBE_EVERY_S
            rc, out, dt = self.call(argv, tracer)
            self._since_probe += dt
            times.append(dt)
            nbytes += len(out.encode())
            self.record(" ".join(argv), wl.check(argv, rc, out))
        return times, nbytes

    def measure(self, wl, seconds: float, tracer: Tracer | None):
        """Passes back to back, each traced one after an untraced one.

        A pass is not started if more than half of it would fall after the deadline.
        """
        deadline = perf_counter() + seconds
        plain: list[list[float]] = []
        traced: list[float] = []
        layers: list[dict] = []
        while True:
            gc.collect()
            plain.append(self.run_pass(wl)[0])
            if tracer:
                gc.collect()
                since = tracer.snapshot()
                tracer.enabled = True
                times, nbytes = self.run_pass(wl, tracer)
                tracer.enabled = False
                traced.append(sum(times))
                layers.append(tracer.summary(since) | {"cli.output_bytes": nbytes})
            cost = median(map(sum, plain)) + (median(traced) if tracer else 0.0)
            if perf_counter() + cost / 2 > deadline:
                return plain, traced, layers


def measure_setup(runner: Runner) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CHILD, str(SRC)], stdout=subprocess.PIPE, text=True
        ) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - t0)
            rc = proc.wait()
        runner.record("setup", None if rc == 0 and line == "ready\n" else f"exit code {rc}")
    return median(times)


def tail(samples: list[float]) -> tuple[float, str]:
    """Highest whole percentile with at least ten samples beyond it (nearest rank).

    Below 100 samples that percentile would be under p90, so the slowest
    sample is reported instead.
    """
    xs = sorted(samples)
    n = len(xs)
    for p in range(99, 89, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return xs[rank - 1], f"p{p} of {n}"
    return xs[-1], f"max of {n}"


def end_to_end(wl, plain: list[list[float]], probes: list[float], setup_s: float) -> tuple[dict, str]:
    """Times of calls, calibrated to the reference machine speed (see calibrate.py).

    The probes run evenly through the run, so the pass time and the probe time
    are both means over the same stretch of time, and a change of machine
    speed part-way through a run cancels in their ratio.
    """
    scale = calibrate.PROBE_REF_S / fmean(probes)
    wall = fmean(map(sum, plain)) * scale
    if len(wl.calls) > 1:  # a call repeated over passes counts once, at its median
        samples = [median(ts) * scale for ts in zip(*plain)]
    else:
        samples = [p[0] * scale for p in plain]
    tail_s, tail_desc = tail(samples)
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "orbits_per_s": wl.orbits_per_pass / wall,
        "call_p50_ms": median(samples) * 1e3,
        "call_tail_ms": tail_s * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    passes = ", ".join(f"{sum(p):.3f}" for p in plain)
    note = (
        f"{wl.orbits_per_pass} orbits per pass; call latency tail = {tail_desc};"
        f" speed scale {scale:.4f} from {len(probes)} probes; raw pass times [s] {passes}"
    )
    return metrics, note


def per_layer(
    wl, plain: list[list[float]], traced: list[float], layers: list[dict], names: list[str]
) -> tuple[dict, str]:
    keys = set().union(*layers)
    m = {k: median(layer.get(k, 0) for layer in layers) for k in keys}
    enum_calls = m.get("representability.enumerate_solutions.calls", 0)
    m["kernels.kernel_path_frac"] = m.get("kernels.solutions_array.calls", 0) / enum_calls if enum_calls else 0.0
    m["representability.vectors_per_orbit"] = m.get("representability.vectors", 0) / wl.orbits_per_pass
    m["trace.wall_s"] = median(traced)
    m["trace.overhead_s"] = median(traced) - median(map(sum, plain))
    note = f"{len(layers)} traced and {len(plain)} untraced passes; pool workers are not traced"
    # a layer this workload, or this version of the library, never calls reads 0
    return {name: m.get(name, 0) for name in names}, note


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def environment() -> dict:
    from k3m20 import kernels

    backend = getattr(kernels, "active_backend", None)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "backend": backend() if backend else "none",
        "K3M20_BACKEND": os.environ.get("K3M20_BACKEND"),
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
    }


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "k3m20" / "cli.py").is_file():
        print(f"error: no k3m20 sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from k3m20 import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: k3m20 imported from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env))
    baseline = json.loads((HERE / "baseline.json").read_text()) if (HERE / "baseline.json").is_file() else None
    if baseline and baseline["env"]["backend"] != env["backend"]:
        print(
            f"WARNING: backend {env['backend']} differs from the baseline's"
            f" {baseline['env']['backend']}; comparing them crosses enumeration paths"
        )

    ref = json.loads((HERE / "reference.json").read_text())
    wl = make_workload(args.workload, args.seed, ref)
    runner = Runner(cli)
    runner.golden()
    setup_s = 0.0 if args.trace else measure_setup(runner)
    runner.warm(wl)

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    try:
        plain, traced, layers = runner.measure(wl, args.seconds, tracer)
    finally:
        if tracer:
            tracer.uninstall()

    if tracer:
        wanted = spec["per_layer"]
        values, note = per_layer(wl, plain, traced, layers, [m["name"] for m in wanted])
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json.gz"
        with gzip.open(trace_file, "wt") as f:
            json.dump({"env": env, "workload": args.workload, "seed": args.seed, "passes": layers} | tracer.dump(), f)
        note += f"; spans in {trace_file.relative_to(ROOT)}"
    else:
        values, note = end_to_end(wl, plain, runner.probes, setup_s)
        wanted = spec["end_to_end"]
    print(f"{args.workload} seed {args.seed}: {note}")

    failed = len(runner.failures)
    for reason in runner.failures[:10]:
        print("FAILED " + reason)
    print(f"failed_frac {failed}/{runner.attempted} = {failed / runner.attempted:.4f}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": runner.attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
