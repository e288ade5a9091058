"""Command line interface.

Subcommands: classify (one degree), table (classification table up to a
bound), golden-check (recompute the published table and diff), scan
(range summary), veronese (dimension chases).  Formats: text (with a
version banner), json, csv.  Identical invocations print byte-identical
output; nothing here is randomized or timestamped.

Exit codes: 0 success (classify: representable), 2 classify found no
embedding, 1 anomaly or mismatch, 64 usage error.  Run from a console
(`entry`, `python -m k3m20.cli`), a command whose stdout is closed early,
as by `| head`, ends by SIGPIPE without a traceback, as other POSIX tools do.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import signal
import sys
from collections.abc import Iterator, Sequence

import numpy as np

from . import __version__
from .kernels import _one_key, _starts
from .polarizations import (
    MAX_RANGE_N,
    ClassTable,
    PolarizationReport,
    class_table,
    classify,
    model_verdict,
    quadric_count,
    status_columns,
)
from .representability import prime_witnesses
from .veronese import doubled_model_dims, quadrics_on_veronese2, scaled_quartic_dims

_BANNER = f"k3m20 {__version__}"
CSV_HEADER = "n,l2,q,a,b,c,lambda,mu,delta,index"
_KEYS = CSV_HEADER.split(",")


def _json_template(shape: object, depth: int) -> bytes:
    """The % template, as ASCII bytes, of a json value as json.dumps(..., indent=2)
    prints it depth levels down: shape is the value with "%d"/"%s" at its leaves,
    which the template keeps unquoted."""
    text = json.dumps(shape, indent=2).replace('"%d"', "%d").replace('"%s"', "%s")
    pad = "  " * depth
    return (pad + text.replace("\n", "\n" + pad)).encode()


# every % template is ASCII bytes, which % fills faster than str, decoded once per chunk or report
# one table row as csv, with its newline, and as a row object of the json array
_CSV_ROW = b",".join([b"%d"] * len(_KEYS)) + b"\n"
_JSON_ROW = _json_template(dict.fromkeys(_KEYS, "%d"), 1)
# the head (str), row template, row separator and tail (str) of the table in each format
_TABLE_FORMATS = {
    "csv": (CSV_HEADER + "\n", _CSV_ROW, b"", ""),
    "json": ("[\n", _JSON_ROW, b",\n", "\n]\n"),
    "text": (f"{_BANNER}\n{CSV_HEADER}\n".replace(",", "\t"), _CSV_ROW.replace(b",", b"\t"), b"", ""),
}
# rows per % in _render_rows, and the most per % in _write_table, which takes whole degrees
# (or one degree of more rows); 2**12 raised the benchmark's peak RSS 0.4 MB by heap layout
_CHUNK = 2**14
# one orbit row of classify's text report
_TEXT_ORBIT = b"  canonical (%d, %d, %d)  size %d  div %d  tx (a,b,c) = (%d, %d, %d)  d = %d  I = %d"
# a classify report and one of its orbit rows (report_to_dict, in tests/oracles.py,
# is their reference), the scan summary (scan_to_dict) and its array elements
_JSON_ORBIT = _json_template({
    "canonical": ["%d"] * 3, "orbit_size": "%d", "divisibility": "%d",
    "tx": dict.fromkeys("abc", "%d"), "discriminant": "%d", "index": "%d",
}, 2)
_JSON_REPORT = _json_template({
    "n": "%d", "l_squared": "%d", "representable": "%s", "orbits": "%s", "quadric_count": "%d",
    "ambient_dim": "%d", "feasibility": dict.fromkeys(("div1", "div2", "eq90"), "%s"),
}, 0)
_JSON_SCAN = _json_template({
    "max_n": "%d", "representable_count": "%d", "non_representable": "%s", "tx_class_count": "%d",
    "tx_classes": "%s", "anomalies": "%d", "prime_witnesses": "%s",
}, 0)
_JSON_INT = _json_template("%d", 2)
_JSON_TRIPLE = _json_template(["%d"] * 3, 2)
_JSON_WITNESS = _json_template(["%d", ["%d"] * 3], 2)
_PARALLEL_HELP = "accepted for compatibility; a range is swept once, in one process"
# cost caps, checked here to exit 64: classify's, below kernels.MAX_N = 2*10**9, and
# kernels.MAX_RANGE_N, the largest walk; the times in the messages were measured on a 2-CPU Xeon VM
MAX_CLASSIFY_N = 10**9
_TOO_COSTLY_N = (
    "--n must be at most 10**9: classify factors about 0.63 sqrt(n) values"
    " 4n - 10 z^2 by a root sieve over the primes up to 2 sqrt(n)"
    " (about 0.5 s at n = 10**9), growing about as n / log n"
)
_TOO_COSTLY_MAX_N = (
    "--max-n must be at most 2*10**4: a range keeps about 0.17 N^1.5 orbits in memory"
    " (about 1.0 s and 0.12 GB at N = 2*10**4), growing as N^1.5"
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 64."""

    def error(self, message: str):  # noqa: D102
        self.print_usage(sys.stderr)
        self.exit(64, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# renderers


def _json_bool(flag: bool) -> bytes:
    return b"true" if flag else b"false"


def _render_rows(row: bytes, sep: bytes, values: np.ndarray) -> Iterator[bytes]:
    """The rows of a 2-d integer array, each through the template row and
    joined by sep, as byte chunks of _CHUNK rows: one % fills a chunk's
    repeated template from its values as one flat list, so that no string or
    tuple is built per row and no template or text of the whole array exists.
    """
    for start in range(0, len(values), _CHUNK):
        chunk = values[start : start + _CHUNK]
        if start:
            yield sep
        yield sep.join([row] * len(chunk)) % tuple(chunk.ravel().tolist())


def _json_array(item: bytes, values: np.ndarray) -> bytes:
    """A json array one level below the top, as json.dumps(..., indent=2)
    prints it, with one row of values per element rendered by the template item."""
    if not len(values):
        return b"[]"
    return b"[\n" + b"".join(_render_rows(item, b",\n", values)) + b"\n  ]"


def report_json(report: PolarizationReport) -> str:
    """The json of one classify report, without the final newline."""
    flags = (report.classes.div1.any(), report.classes.div2.any(), report.classes.eq90.any())
    return (_JSON_REPORT % (
        report.n,
        report.l_squared,
        _json_bool(report.representable),
        _json_array(_JSON_ORBIT, report.orbits),
        report.quadric_count,
        report.ambient_dim,
        *map(_json_bool, flags),
    )).decode()


def _write_table(fmt: str, table: ClassTable) -> None:
    """A class table in the format fmt, one row per class (its data plus its
    smallest member, the columns of CSV_HEADER), written degree by degree:
    each degree's row template is filled once with its n, 4n and q, and one %
    fills the seven class fields of a chunk of whole degrees from the columns,
    as many degrees as _CHUNK rows of the largest degree allow, or one."""
    head, row, sep, tail = _TABLE_FORMATS[fmt]
    # every row template starts with the fields n, l2 and q; each row follows a separator
    prefix = sep + row.replace(b"%d", b"%%d").replace(b"%%d", b"%d", 3)
    classes = np.column_stack((table.a, table.b, table.c, table.lam, table.mu, table.delta, table.index))
    starts = _starts(table.n)
    cuts = np.append(starts, len(table)).tolist()
    templates = [prefix % (n, 4 * n, quadric_count(n)) for n in table.n[starts].tolist()]
    counts = np.diff(cuts).tolist()
    step = max(1, _CHUNK // max(counts, default=1))
    out = sys.stdout
    out.write(head)
    for d in range(0, len(templates), step):
        blocks = list(map(operator.mul, templates[d : d + step], counts[d : d + step]))
        if not d:  # the table's first row has no separator before it
            blocks[0] = blocks[0][len(sep) :]
        rows = classes[cuts[d] : cuts[min(d + step, len(templates))]]
        out.write((b"".join(blocks) % tuple(rows.ravel().tolist())).decode())
    out.write(tail)


def report_text(report: PolarizationReport) -> str:
    lines = [_BANNER, f"n = {report.n}  (L^2 = {report.l_squared})"]
    if not report.representable:
        lines.append("no embedding (n = 4^i (16j + 6) family)")
        return "\n".join(lines) + "\n"
    orbits = b"".join(_render_rows(_TEXT_ORBIT, b"\n", report.orbits)).decode()
    lines += [f"orbits: {len(report.orbits)}", orbits]
    triples = report.classes.forms()
    lines.append(f"transcendental classes: {', '.join(map(str, triples))}")
    lines.append(f"quadrics: {report.quadric_count}" + ("  (degree-4 model: none)" if report.n == 1 else ""))
    lines.append(f"ambient: P^{report.ambient_dim}")
    for triple, (base_point, hyperelliptic, quadrics) in zip(triples, report.statuses):
        lines.append(
            f"  class {triple}: base-point {base_point};"
            f" hyperelliptic {hyperelliptic}; quadrics {quadrics}"
        )
    lines.append(f"verdict: {model_verdict(report).label}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _cmd_classify(args) -> int:
    report = classify(args.n)
    if args.format == "json":
        print(report_json(report))
    elif args.format == "csv":
        _write_table("csv", report.classes)
    else:
        print(report_text(report), end="")
    if not report.representable:
        return 2
    return 0 if model_verdict(report).consistent else 1


def _cmd_table(args) -> int:
    _write_table(args.format, class_table(args.max_n))
    return 0


def _cmd_golden_check(args) -> int:
    from .golden import golden_check  # imported here: no other subcommand builds its rows

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
    non_rep = np.flatnonzero(np.bincount(table.n, minlength=args.max_n + 1)[1:] == 0) + 1
    # the distinct forms (a, b, c), sorted, as the first row of each run of equal ones
    key = _one_key(table.a, table.b, table.c)
    order = np.argsort(key)
    classes = np.column_stack((table.a, table.b, table.c))[order[_starts(key[order])]]
    witnesses = prime_witnesses(args.max_n)
    # the degrees with a class that some obstruction check finds FEASIBLE
    anomalies = len(np.unique(table.n[status_columns(table)[2]]))
    if args.format == "json":
        print((_JSON_SCAN % (
            args.max_n,
            args.max_n - len(non_rep),
            _json_array(_JSON_INT, non_rep[:, None]),
            len(classes),
            _json_array(_JSON_TRIPLE, classes),
            anomalies,
            _json_array(_JSON_WITNESS, np.array([(p, *v) for p, v in witnesses]).reshape(-1, 4)),
        )).decode())
    else:
        print(_BANNER)
        print(f"scan 1..{args.max_n}")
        print(f"representable: {args.max_n - len(non_rep)}/{args.max_n}")
        print(f"no embedding: {', '.join(map(str, non_rep.tolist())) or '-'}")
        print(f"distinct transcendental classes: {len(classes)}")
        print(f"anomalies: {anomalies}")
        first = f" (first: {witnesses[0][0]} -> {witnesses[0][1]})" if witnesses else ""
        print(f"prime witnesses (p = 1 mod 4): {len(witnesses)}{first}")
    return 1 if anomalies else 0


def _cmd_veronese(args) -> int:
    if args.n is not None:
        before, target, cut, after = doubled_model_dims(args.n)
        on_veronese = quadrics_on_veronese2(before)
        payload = {
            "n": args.n, "ambient_dim": before, "veronese_dim": target, "quadrics_cut": cut,
            "doubled_ambient_dim": after, "quadrics_on_veronese2": on_veronese,
        }
        lines = [
            f"P^{before} -(v2)-> P^{target}, cut {cut} quadrics -> doubled model in P^{after}",
            f"quadrics through v2(P^{before}): {on_veronese}",
        ]
    else:
        target, cut, after = scaled_quartic_dims(args.r)
        payload = {"r": args.r, "veronese_dim": target, "quartics_cut": cut, "scaled_ambient_dim": after}
        lines = [f"P^3 -(v{args.r})-> P^{target}, cut {cut} quartics -> scaled model in P^{after}"]
    print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join([_BANNER, *lines]))
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command line parser; built once per process, since it keeps no state between calls."""
    parser = _Parser(prog="k3m20", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=_BANNER)
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
            if (args.n is None) == (args.r is None):
                parser.error("need exactly one of --n / --r")
            return _cmd_veronese(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    raise AssertionError("unreachable")  # pragma: no cover


def entry() -> None:  # console script
    # main() is also called in-process, so only here may a closed pipe end the process
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
