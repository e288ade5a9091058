"""Command line interface.

Subcommands: classify (one degree), table (classification table up to a
bound), golden-check (recompute the published table and diff), scan
(range summary), veronese (dimension chases).  Formats: text (with a
version banner), json, csv.  Identical invocations print byte-identical
output; nothing here is randomized or timestamped.

Exit codes: 0 success (classify: representable), 2 classify found no
embedding, 1 anomaly or mismatch, 64 usage error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Sequence

import numpy as np

from . import __version__
from .golden import golden_check
from .polarizations import (
    FEASIBLE,
    ClassTable,
    ModelVerdict,
    PolarizationReport,
    class_table,
    classify,
    model_verdict,
    quadric_count,
    table_statuses,
)
from .representability import prime_witnesses
from .veronese import doubled_model_dims, quadrics_on_veronese2, scaled_quartic_dims

CSV_HEADER = "n,l2,q,a,b,c,lambda,mu,delta,index"
_KEYS = CSV_HEADER.split(",")
# one table row in each format; the json one is a row object as json.dumps(rows, indent=2) prints it
_CSV_ROW = ",".join(["%d"] * len(_KEYS))
_TEXT_ROW = "\t".join(["%d"] * len(_KEYS))
_JSON_ROW = "  {\n" + ",\n".join(f'    "{key}": %d' for key in _KEYS) + "\n  }"
# a classify report and one of its orbit rows, as json.dumps(report_to_dict(n), indent=2)
# prints them (report_to_dict, in tests/oracles.py, is their reference)
_JSON_ORBIT = """\
    {
      "canonical": [
        %d,
        %d,
        %d
      ],
      "orbit_size": %d,
      "divisibility": %d,
      "tx": {
        "a": %d,
        "b": %d,
        "c": %d
      },
      "discriminant": %d,
      "index": %d
    }"""
_JSON_REPORT = """\
{
  "n": %d,
  "l_squared": %d,
  "representable": %s,
  "orbits": %s,
  "quadric_count": %d,
  "ambient_dim": %d,
  "feasibility": {
    "div1": %s,
    "div2": %s,
    "eq90": %s
  }
}"""
# the scan summary as json.dumps(..., indent=2) prints it
_JSON_SCAN = """\
{
  "max_n": %d,
  "representable_count": %d,
  "non_representable": %s,
  "tx_class_count": %d,
  "tx_classes": %s,
  "anomalies": %d,
  "prime_witnesses": %s
}"""
_JSON_TRIPLE = "    [\n      %d,\n      %d,\n      %d\n    ]"
_JSON_WITNESS = "    [\n      %d,\n      [\n        %d,\n        %d,\n        %d\n      ]\n    ]"
_PARALLEL_HELP = "accepted for compatibility; a range is swept once, in one process"
# cost caps, far below the exact int64 bound kernels.MAX_N; the times in the
# messages were measured on a 2-CPU Xeon VM
MAX_CLASSIFY_N = 10**9
MAX_RANGE_N = 2 * 10**4
_TOO_COSTLY_N = (
    "--n must be at most 10**9: classify trial-divides about 0.63 sqrt(n) values"
    " 4n - 10 z^2 by the primes up to 2 sqrt(n) (about 1 s at n = 10**9),"
    " growing about as n / log n"
)
_TOO_COSTLY_MAX_N = (
    "--max-n must be at most 2*10**4: a range keeps about 0.17 N^1.5 orbits in memory"
    " (about 3 s and 0.2 to 0.3 GB at N = 2*10**4), growing as N^1.5"
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


def _banner() -> str:
    return f"k3m20 {__version__}"


# ---------------------------------------------------------------------------
# renderers


def _json_bool(flag: bool) -> str:
    return "true" if flag else "false"


def _json_array(item: str, rows: list[Sequence[int]]) -> str:
    """A json array one level below the top, as json.dumps(..., indent=2)
    prints it, with one row per element rendered by the template item.

    One % fills the item template repeated, so that few objects are built:
    a string per element fragmented the heap enough to raise a scan's peak
    RSS by 3 MB under the benchmark's probes.
    """
    if not rows:
        return "[]"
    return ("[\n" + ",\n".join([item] * len(rows)) + "\n  ]") % tuple(v for row in rows for v in row)


def report_json(report: PolarizationReport) -> str:
    """The json of one classify report, without the final newline."""
    classes = report.classes
    return _JSON_REPORT % (
        report.n,
        report.l_squared,
        _json_bool(report.representable),
        _json_array(_JSON_ORBIT, report.orbits.tolist()),
        report.quadric_count,
        report.ambient_dim,
        _json_bool(classes.div1.any()),
        _json_bool(classes.div2.any()),
        _json_bool(classes.eq90.any()),
    )


def _table_rows(table: ClassTable) -> list[tuple[int, ...]]:
    """One csv row per class-table row: the class data plus its smallest member."""
    n = table.n
    columns = (n, 4 * n, quadric_count(n), table.a, table.b, table.c, table.lam, table.mu, table.delta)
    return list(zip(*(col.tolist() for col in columns + (table.index,))))


def emit_table_csv(rows: list[tuple[int, ...]]) -> str:
    return "\n".join([CSV_HEADER, *(_CSV_ROW % row for row in rows)]) + "\n"


def report_text(report: PolarizationReport, verdict: ModelVerdict | None) -> str:
    lines = [_banner()]
    lines.append(f"n = {report.n}  (L^2 = {report.l_squared})")
    if not report.representable:
        lines.append("no embedding (n = 4^i (16j + 6) family)")
        return "\n".join(lines) + "\n"
    lines.append(f"orbits: {len(report.orbits)}")
    for lam, mu, delta, size, r, a, b, c, d, index in report.orbits.tolist():
        lines.append(
            f"  canonical {(lam, mu, delta)}  size {size}  div {r}"
            f"  tx (a,b,c) = {(a, b, c)}  d = {d}  I = {index}"
        )
    triples = report.classes.forms()
    lines.append(f"transcendental classes: {', '.join(map(str, triples))}")
    lines.append(f"quadrics: {report.quadric_count}" + ("  (degree-4 model: none)" if report.n == 1 else ""))
    lines.append(f"ambient: P^{report.ambient_dim}")
    if verdict is not None:
        for triple, (base_point, hyperelliptic, quadrics) in zip(triples, report.statuses):
            lines.append(
                f"  class {triple}: base-point {base_point};"
                f" hyperelliptic {hyperelliptic}; quadrics {quadrics}"
            )
        lines.append(f"verdict: {verdict.label}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    report = classify(args.n)
    verdict = model_verdict(report) if report.representable else None
    if args.format == "json":
        print(report_json(report))
    elif args.format == "csv":
        print(emit_table_csv(_table_rows(report.classes)), end="")
    else:
        print(report_text(report, verdict), end="")
    if not report.representable:
        return 2
    if verdict is not None and not verdict.consistent:
        return 1
    return 0


def _cmd_table(args) -> int:
    rows = _table_rows(class_table(args.max_n))
    if args.format == "json":
        print("[\n" + ",\n".join(_JSON_ROW % row for row in rows) + "\n]")
    elif args.format == "csv":
        print(emit_table_csv(rows), end="")
    else:
        print(_banner())
        print("\n".join([CSV_HEADER.replace(",", "\t"), *(_TEXT_ROW % row for row in rows)]))
    return 0


def _cmd_golden_check(args) -> int:
    result = golden_check()
    for line in result.lines:
        print(line)
    if result.ok:
        print(f"golden check: OK ({len(result.lines)} rows)")
        return 0
    for diff in result.diffs:
        print(f"MISMATCH {diff}", file=sys.stderr)
    print(f"golden check: {len(result.diffs)} mismatch(es)")
    return 1


def _cmd_scan(args) -> int:
    table = class_table(args.max_n)
    # the degrees without a class, which class_table has checked are the non-representable ones
    non_rep = np.setdiff1d(np.arange(1, args.max_n + 1), table.n).tolist()
    classes = sorted(set(table.forms()))
    witnesses = prime_witnesses(args.max_n)
    # the degrees with a class that some obstruction check finds FEASIBLE
    inconsistent = {n for n, s in zip(table.n.tolist(), table_statuses(table)) if FEASIBLE in s}
    if args.format == "json":
        print(
            _JSON_SCAN
            % (
                args.max_n,
                args.max_n - len(non_rep),
                _json_array("    %d", [(n,) for n in non_rep]),
                len(classes),
                _json_array(_JSON_TRIPLE, classes),
                len(inconsistent),
                _json_array(_JSON_WITNESS, [(p, *v) for p, v in witnesses]),
            )
        )
    else:
        print(_banner())
        print(f"scan 1..{args.max_n}")
        print(f"representable: {args.max_n - len(non_rep)}/{args.max_n}")
        print(f"no embedding: {', '.join(str(n) for n in non_rep) or '-'}")
        print(f"distinct transcendental classes: {len(classes)}")
        print(f"anomalies: {len(inconsistent)}")
        first = f" (first: {witnesses[0][0]} -> {witnesses[0][1]})" if witnesses else ""
        print(f"prime witnesses (p = 1 mod 4): {len(witnesses)}{first}")
    return 1 if inconsistent else 0


def _cmd_veronese(args) -> int:
    if (args.n is None) == (args.r is None):
        print("error: need exactly one of --n / --r", file=sys.stderr)
        return 64
    if args.n is not None:
        before, target, cut, after = doubled_model_dims(args.n)
        payload = {
            "n": args.n,
            "ambient_dim": before,
            "veronese_dim": target,
            "quadrics_cut": cut,
            "doubled_ambient_dim": after,
            "quadrics_on_veronese2": quadrics_on_veronese2(before),
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(_banner())
            print(
                f"P^{before} -(v2)-> P^{target}, cut {cut} quadrics"
                f" -> doubled model in P^{after}"
            )
            print(f"quadrics through v2(P^{before}): {payload['quadrics_on_veronese2']}")
    else:
        target, cut, after = scaled_quartic_dims(args.r)
        payload = {
            "r": args.r,
            "veronese_dim": target,
            "quartics_cut": cut,
            "scaled_ambient_dim": after,
        }
        if args.format == "json":
            print(json.dumps(payload, indent=2))
        else:
            print(_banner())
            print(
                f"P^3 -(v{args.r})-> P^{target}, cut {cut} quartics"
                f" -> scaled model in P^{after}"
            )
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command line parser; built once per process, since it keeps no state between calls."""
    parser = _Parser(prog="k3m20", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=_banner())
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser("classify", help="classify one degree L^2 = 4n")
    p_classify.add_argument("--n", type=int, required=True)
    p_classify.add_argument("--format", choices=("text", "json", "csv"), default="text")

    p_table = sub.add_parser("table", help="classification table for n = 1..max-n")
    p_table.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_table.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p_table.add_argument("--parallel", type=int, default=1, metavar="K", help=_PARALLEL_HELP)

    sub.add_parser("golden-check", help="recompute the published table and diff")

    p_scan = sub.add_parser("scan", help="summary statistics for n = 1..max-n")
    p_scan.add_argument("--max-n", type=int, required=True, dest="max_n")
    p_scan.add_argument("--format", choices=("text", "json"), default="text")
    p_scan.add_argument("--parallel", type=int, default=1, metavar="K", help=_PARALLEL_HELP)

    p_ver = sub.add_parser("veronese", help="dimension chases for re-embeddings")
    p_ver.add_argument("--n", type=int)
    p_ver.add_argument("--r", type=int)
    p_ver.add_argument("--format", choices=("text", "json"), default="text")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "classify":
            if args.n < 1:
                parser.error("--n must be a positive integer")
            if args.n > MAX_CLASSIFY_N:
                parser.error(_TOO_COSTLY_N)
            return _cmd_classify(args)
        if args.command in ("table", "scan"):
            if args.max_n < 1:
                parser.error("--max-n must be a positive integer")
            if args.max_n > MAX_RANGE_N:
                parser.error(_TOO_COSTLY_MAX_N)
            if args.parallel < 1:
                parser.error("--parallel must be a positive integer")
            return _cmd_table(args) if args.command == "table" else _cmd_scan(args)
        if args.command == "golden-check":
            return _cmd_golden_check(args)
        if args.command == "veronese":
            if args.n is not None and args.n < 1:
                parser.error("--n must be a positive integer")
            if args.r is not None and args.r < 3:
                parser.error("--r must be at least 3")
            return _cmd_veronese(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


def entry() -> None:  # console script
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
