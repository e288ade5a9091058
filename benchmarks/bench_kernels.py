"""Benchmark the numba kernels against the pure-numpy fallback.

Runs every public kernel under both backends (when numba is importable)
and prints best-of-N wall times with the speedup ratio.  Usage:

    python3 benchmarks/bench_kernels.py [--scan-n 2000000] [--bound 8] [--repeat 5]
"""

from __future__ import annotations

import argparse
import time

from k3m20 import kernels


def best_of(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def build_cases(args) -> list[tuple[str, object]]:
    ts = kernels.unimodular_entries(args.bound)
    return [
        (
            f"two_square_tables({4 * args.scan_n})",
            lambda: kernels.two_square_tables(4 * args.scan_n),
        ),
        (
            f"representable_range({args.scan_n})",
            lambda: kernels.representable_range(args.scan_n),
        ),
        (
            f"unimodular_entries({args.bound})",
            lambda: kernels.unimodular_entries(args.bound),
        ),
        (
            f"transform_forms(2, -1, 3, {len(ts)} matrices)",
            lambda: kernels.transform_forms(2, -1, 3, ts),
        ),
    ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scan-n", type=int, default=2_000_000, dest="scan_n")
    parser.add_argument("--bound", type=int, default=8)
    parser.add_argument("--repeat", type=int, default=5)
    args = parser.parse_args()
    if args.scan_n > kernels.MAX_SCAN_N or not 1 <= args.bound <= 12:
        parser.error("argument out of kernel range")

    backends = ["numpy"]
    if kernels.HAVE_NUMBA:
        backends.insert(0, "numba")
    else:
        print("numba is not importable; timing the numpy fallback only")

    results: dict[str, dict[str, float]] = {}
    for backend in backends:
        kernels.set_backend(backend)
        kernels.warmup()  # jit-compile outside the timed region
        for name, fn in build_cases(args):
            results.setdefault(name, {})[backend] = best_of(fn, args.repeat)

    width = max(len(name) for name in results)
    header = f"{'kernel':<{width}}  " + "  ".join(f"{b:>10}" for b in backends)
    if len(backends) == 2:
        header += f"  {'speedup':>8}"
    print(header)
    print("-" * len(header))
    for name, timings in results.items():
        row = f"{name:<{width}}  " + "  ".join(f"{timings[b] * 1e3:>8.2f}ms" for b in backends)
        if len(backends) == 2:
            row += f"  {timings['numpy'] / timings['numba']:>7.1f}x"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
