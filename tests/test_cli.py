import json
import signal
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from k3m20 import __version__, cli, polarizations
from k3m20.cli import CSV_HEADER, main
from k3m20.polarizations import ClassTable, quadric_count
from oracles import parse_table_csv, scan_to_dict, table_output

TESTS = Path(__file__).parent


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# classify


def test_classify_text_worked_degree(capsys):
    code, out, err = run(capsys, "classify", "--n", "3")
    assert code == 0
    assert out.startswith(f"k3m20 {__version__}\n")
    assert "n = 3  (L^2 = 12)" in out
    assert "orbits: 1" in out
    assert "tx (a,b,c) = (2, 0, 15)" in out
    assert "I = 2" in out
    assert "quadrics: 10" in out
    assert "ambient: P^7" in out
    assert "verdict: embedding; quadrics only" in out
    assert err == ""


def test_classify_non_representable_exit_code(capsys):
    code, out, _ = run(capsys, "classify", "--n", "6")
    assert code == 2
    assert "no embedding" in out


def test_classify_json_schema(capsys):
    code, out, _ = run(capsys, "classify", "--n", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "n",
        "l_squared",
        "representable",
        "orbits",
        "quadric_count",
        "ambient_dim",
        "feasibility",
    }
    assert payload["n"] == 3 and payload["l_squared"] == 12 and payload["representable"]
    (o,) = payload["orbits"]
    assert set(o) == {"canonical", "orbit_size", "divisibility", "tx", "discriminant", "index"}
    assert o["canonical"] == [-1, -1, -1]
    assert o["tx"] == {"a": 2, "b": 0, "c": 15}
    assert o["orbit_size"] == 8 and o["index"] == 2 and o["discriminant"] == 120
    assert payload["feasibility"] == {"div1": False, "div2": False, "eq90": False}


def test_classify_json_non_representable(capsys):
    code, out, _ = run(capsys, "classify", "--n", "6", "--format", "json")
    assert code == 2
    payload = json.loads(out)
    assert payload["representable"] is False
    assert payload["orbits"] == []


def test_classify_csv_row(capsys):
    code, out, _ = run(capsys, "classify", "--n", "1", "--format", "csv")
    assert code == 0
    assert out == "n,l2,q,a,b,c,lambda,mu,delta,index\n1,4,0,1,0,10,-1,0,0,2\n"


def test_classify_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "classify", "--n", "45", "--format", "json")
    _, second, _ = run(capsys, "classify", "--n", "45", "--format", "json")
    assert first == second


# ---------------------------------------------------------------------------
# table


def test_table_csv_roundtrip(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "10", "--format", "csv")
    assert code == 0
    assert "\r" not in out
    assert out.endswith("\n") and not out.endswith("\n\n")
    rows = parse_table_csv(out)
    assert all(isinstance(x, int) for row in rows for x in row)
    assert CSV_HEADER + "\n" + "".join(",".join(map(str, row)) + "\n" for row in rows) == out
    # one row per transcendental class; n = 6 is absent
    assert {row[0] for row in rows} == {1, 2, 3, 4, 5, 7, 8, 9, 10}
    n9 = [row for row in rows if row[0] == 9]
    assert len(n9) == 2


@pytest.mark.parametrize(
    "chunk", [cli._CHUNK, 1000, 32, 31, 1], ids=["chunk", "chunk-1000", "chunk-32", "chunk-31", "chunk-1"]
)
@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
@pytest.mark.parametrize("max_n", [1, 2, 13, 2000])
def test_table_matches_row_by_row_render(capsys, monkeypatch, max_n, fmt, chunk):
    # a chunk takes as many whole degrees as chunk rows of the largest degree allow, or one;
    # the largest degree of 2000 has 31 classes, so chunks of 1000 rows take 32 degrees, chunks
    # of 32 and 31 rows one degree, and chunks of 1 row one degree of up to 31 rows
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    code, out, _ = run(capsys, "table", "--max-n", str(max_n), "--format", fmt)
    assert code == 0
    assert out == table_output(max_n, fmt)


@pytest.mark.parametrize("chunk", [1, 7], ids=["chunk-1", "chunk-7"])
def test_rows_across_render_chunks(capsys, monkeypatch, chunk):
    # scan's json arrays and classify's orbit rows meet a chunk boundary of _render_rows only
    # past _CHUNK rows, so a chunk of 1 or 7 rows puts one between (nearly) every two rows
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    code, out, _ = run(capsys, "scan", "--max-n", "2000", "--format", "json")
    assert (code, out) == (0, json.dumps(scan_to_dict(2000), indent=2) + "\n")
    for fmt, suffix in (("json", "json"), ("text", "txt")):
        code, out, _ = run(capsys, "classify", "--n", "90", "--format", fmt)
        assert (code, out) == (0, (TESTS / "data" / f"classify_90.{suffix}").read_text())


# the byte templates of the renderers against str %, one row at a time, on the int64 extremes
_INT64 = st.one_of(st.sampled_from([0, -1, -(2**63), 2**63 - 1]), st.integers(-(2**63), 2**63 - 1))
# up to 30 rows of 10 values, the widest template's fields, of which a template takes the first ones
_INT64_ROWS = st.lists(st.lists(_INT64, min_size=10, max_size=10), max_size=30)
_ROW_TEMPLATES = [
    (cli._CSV_ROW, b""), (cli._TABLE_FORMATS["text"][1], b""), (cli._JSON_ROW, b",\n"),
    (cli._TEXT_ORBIT, b"\n"), (cli._JSON_ORBIT, b",\n"), (cli._JSON_INT, b",\n"),
    (cli._JSON_TRIPLE, b",\n"), (cli._JSON_WITNESS, b",\n"),
]


@pytest.mark.parametrize("chunk", [1, 7], ids=["chunk-1", "chunk-7"])
@given(template=st.sampled_from(_ROW_TEMPLATES), values=_INT64_ROWS)
def test_render_rows_match_str_percent(chunk, template, values):
    row, sep = template
    rows = np.array(values, dtype=np.int64).reshape(-1, 10)[:, : row.count(b"%d")]
    want = sep.decode().join(row.decode() % tuple(r) for r in rows.tolist())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "_CHUNK", chunk)
        assert b"".join(cli._render_rows(row, sep, rows)).decode() == want


@pytest.mark.parametrize("chunk", [cli._CHUNK, 7, 1], ids=["chunk", "chunk-7", "chunk-1"])
@pytest.mark.parametrize("fmt", ["csv", "json", "text"])
def test_write_table_of_int64_extremes(capsys, monkeypatch, fmt, chunk):
    # one class per degree; 4n and q = 2 n^2 - 3 n + 1 pass int64 at the largest n
    ns = [1, 2**63 - 1, 2, 2**62, 3, 2**31, 4, 5, 6]
    extremes = [0, -1, 1, -(2**63), 2**63 - 1, -(2**62), 2**62 + 1]
    classes = np.array([np.roll(extremes, k) for k in range(len(ns))])
    a, b, c, lam, mu, delta, index = classes.T
    flags = np.zeros(len(ns), dtype=bool)
    table = ClassTable(np.array(ns), a, b, c, np.ones_like(a), lam, mu, delta, index, flags, flags, flags, flags)
    head, row, sep, tail = cli._TABLE_FORMATS[fmt]
    lines = (row.decode() % (n, 4 * n, quadric_count(n), *r) for n, r in zip(ns, classes.tolist()))
    want = head + sep.decode().join(lines) + tail
    monkeypatch.setattr(cli, "_CHUNK", chunk)
    cli._write_table(fmt, table)
    assert capsys.readouterr().out == want


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
@pytest.mark.parametrize(
    "launcher",
    [["-m", "k3m20.cli"], ["-c", "from k3m20.cli import entry; entry()"]],
    ids=["module", "entry"],
)
def test_table_into_closed_pipe_ends_without_traceback(launcher):
    # the text of table 2000 is about 300 kB, far more than a pipe buffers,
    # so the writer is still writing when the reader closes its end
    argv = [sys.executable, *launcher, "table", "--max-n", "2000"]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline() == f"k3m20 {__version__}\n".encode()
        proc.stdout.close()
        err = proc.stderr.read().decode()
        code = proc.wait()
    assert err == ""
    assert code == -signal.SIGPIPE


def test_table_text_format(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "3", "--format", "text")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == f"k3m20 {__version__}"
    assert lines[1] == "n\tl2\tq\ta\tb\tc\tlambda\tmu\tdelta\tindex"
    assert lines[2].split("\t")[0] == "1"


def test_table_parallel_matches_serial(capsys):
    _, serial, _ = run(capsys, "table", "--max-n", "20", "--format", "csv")
    _, parallel, _ = run(capsys, "table", "--max-n", "20", "--format", "csv", "--parallel", "2")
    assert parallel == serial


def test_table_json_row_objects(capsys):
    code, out, _ = run(capsys, "table", "--max-n", "2", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0] == {
        "n": 1, "l2": 4, "q": 0, "a": 1, "b": 0, "c": 10,
        "lambda": -1, "mu": 0, "delta": 0, "index": 2,
    }


def test_parse_table_csv_rejects_bad_header():
    with pytest.raises(ValueError):
        parse_table_csv("nope,header\n1,2\n")


# ---------------------------------------------------------------------------
# golden-check


def test_golden_check_ok(capsys):
    code, out, err = run(capsys, "golden-check")
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "golden check: OK (23 rows)"
    assert len(lines) == 24
    assert err == ""


# ---------------------------------------------------------------------------
# scan


def test_scan_text(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "30")
    assert code == 0
    assert "scan 1..30" in out
    assert "representable: 27/30" in out
    assert "no embedding: 6, 22, 24" in out
    assert "anomalies: 0" in out
    assert "prime witnesses (p = 1 mod 4):" in out


def test_scan_json(capsys):
    code, out, _ = run(capsys, "scan", "--max-n", "30", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["max_n"] == 30
    assert payload["non_representable"] == [6, 22, 24]
    assert payload["representable_count"] == 27
    assert payload["anomalies"] == 0
    assert payload["prime_witnesses"][0] == [5, [1, 2, 0]]
    assert payload["tx_class_count"] == len(payload["tx_classes"])


@pytest.mark.parametrize("prior_models", [polarizations.PRIOR_MODELS, {}], ids=["prior", "no-prior"])
def test_scan_forms_and_anomalies_match_scan_to_dict(capsys, monkeypatch, prior_models):
    monkeypatch.setattr(polarizations, "PRIOR_MODELS", prior_models)
    want = scan_to_dict(2000)
    assert want["anomalies"] == (0 if prior_models else 3)
    code, out, _ = run(capsys, "scan", "--max-n", "2000", "--format", "json")
    got = json.loads(out)
    assert (got["tx_classes"], got["anomalies"]) == (want["tx_classes"], want["anomalies"])
    assert code == (1 if want["anomalies"] else 0)
    code, out, _ = run(capsys, "scan", "--max-n", "2000")
    assert f"distinct transcendental classes: {want['tx_class_count']}\n" in out
    assert f"anomalies: {want['anomalies']}\n" in out


def test_scan_counts_degrees_not_classes(capsys, monkeypatch):
    # every class of 1..10 made feasible: 11 classes over 9 degrees (two each at n = 9 and 10)
    table = polarizations.class_table(10)
    assert len(table) == 11
    monkeypatch.setattr(cli, "class_table", lambda max_n: replace(table, eq90=np.ones(11, dtype=bool)))
    code, out, _ = run(capsys, "scan", "--max-n", "10")
    assert code == 1
    assert "anomalies: 9\n" in out


# ---------------------------------------------------------------------------
# the discrepancy path: without the prior models, their hyperelliptic
# equations (t = 4n / I = 2 at n = 1, 2 and 10) are feasible


@pytest.mark.parametrize("n", [1, 2, 10])
def test_classify_reports_a_feasible_obstruction(capsys, monkeypatch, n):
    monkeypatch.setattr(polarizations, "PRIOR_MODELS", {})
    code, out, _ = run(capsys, "classify", "--n", str(n))
    assert code == 1
    assert "hyperelliptic FEASIBLE" in out
    assert out.endswith("verdict: DISCREPANCY: obstruction feasible\n")


def test_scan_counts_feasible_obstructions(capsys, monkeypatch):
    monkeypatch.setattr(polarizations, "PRIOR_MODELS", {})
    code, out, _ = run(capsys, "scan", "--max-n", "10")
    assert code == 1
    assert "anomalies: 3\n" in out
    code, out, _ = run(capsys, "scan", "--max-n", "10", "--format", "json")
    assert code == 1
    assert json.loads(out)["anomalies"] == 3


# ---------------------------------------------------------------------------
# veronese


def test_veronese_doubled_chase(capsys):
    code, out, _ = run(capsys, "veronese", "--n", "2")
    assert code == 0
    assert "P^5 -(v2)-> P^20, cut 3 quadrics -> doubled model in P^17" in out
    assert "quadrics through v2(P^5): 105" in out


def test_veronese_scaled_chase_json(capsys):
    code, out, _ = run(capsys, "veronese", "--r", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"r": 5, "veronese_dim": 55, "quartics_cut": 4, "scaled_ambient_dim": 51}


def test_veronese_degree_without_quadrics_fails_cleanly(capsys):
    code, _, err = run(capsys, "veronese", "--n", "1")
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [["classify", "--n", "5"], ["table", "--max-n", "5"], ["scan", "--max-n", "5"], ["golden-check"]],
)
def test_enumeration_anomaly_exits_1(capsys, monkeypatch, argv):
    # a representative off the fundamental domain must stop the run, not print a table;
    # classify (and golden-check through it) factors one degree, table and scan walk a range
    bad = np.array([[3, 1, 1]], dtype=np.int64)
    if argv[0] in ("classify", "golden-check"):
        monkeypatch.setattr(polarizations, "degree_reps", lambda n: bad)
    else:
        monkeypatch.setattr(polarizations, "orbit_reps", lambda max_n: bad)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert "enumeration anomaly" in err


# each fault breaks one step of classify's batched per-orbit layer
_IDENTITY_WITNESS = (
    "reduce = kernels._reduce\n"
    "kernels._reduce = lambda a, b, c: (reduce(a, b, c)[0], (a * 0 + 1, a * 0, a * 0, a * 0 + 1))\n"
)
_WRONG_COFACTORS = "kernels._xgcd = lambda a, b: (a * 0 + 1, a * 0, a * 0)\n"


def _corrupt_rows(edit):
    """A fault that applies edit to the rows orbit_classes returns."""
    return (
        "classes = polarizations.orbit_classes\n"
        "def corrupt(ns, reps):\n"
        "    rows = classes(ns, reps)\n"
        f"    {edit}\n"
        "    return rows\n"
        "polarizations.orbit_classes = corrupt\n"
    )


# b^2 > ac in every form orbit_classes returns; the class layer's form check
# (polarizations._classes) raises it for classify, table and scan alike
_UNREDUCED_FORM = _corrupt_rows("rows[:, 6] = 3 * rows[:, 5]")
# the class layer's discriminant check: d = 9 * 40 at n = 1 without its form (1, 0, 10)
_WRONG_DISCRIMINANT = _corrupt_rows("rows[:, 8] *= 9")
# its index check, with forms that keep d = 4ac - b^2, against the point's index
# I = 2 at n = 1: d = 9 * 40, form (3, 0, 30), keeps n d = 10 t^2; d = 44, form
# (1, 0, 11), breaks it too
_WRONG_INDEX = _corrupt_rows("rows[:, 5:9] *= (3, 3, 3, 9)")
_NOT_TEN_SQUARES = _corrupt_rows("rows[:, 7] += 1; rows[:, 8] += 4 * rows[:, 5]")
# a walk whose points lie far past their degrees: the orbit sort's columns would
# need about 2**105 keys, which kernels._one_key refuses before any int64 wraps
_FAR_POINTS = (
    "import numpy as np\n"
    "polarizations.orbit_reps = lambda max_n: np.array([[0, 0, 0], [0, 2**20, 2**20]])\n"
)
# a walk that finds the orbit (0, 12, 0) of n = 36 twice, which the orbit sort's key shows
_REPEATED_ORBIT = (
    "import numpy as np\n"
    "reps = polarizations.orbit_reps\n"
    "polarizations.orbit_reps = lambda max_n: np.concatenate([reps(max_n), [[0, 12, 0]]])\n"
)
# a walk with a point past its range, (0, 6, 0) of degree 9, which _orbit_rows clips to
# degree 8 and orbit_classes' norm check refuses, so that no degree 9 reaches the table
_PAST_THE_RANGE = (
    "import numpy as np\n"
    "reps = polarizations.orbit_reps\n"
    "polarizations.orbit_reps = lambda max_n: np.concatenate([reps(max_n), [[0, 6, 0]]])\n"
)


def _scaled_complement(k):
    """A fault that scales the complement's second basis vector u2 by k, so that
    the basis spans an index-k sublattice of v^perp: orthogonal, with an even
    Gram matrix, but d is k^2 times too large."""
    return (
        "import inspect\n"
        "source = inspect.getsource(kernels._classes_block)\n"
        "line = next((l for l in source.splitlines(True) if l.startswith('    u2 = (')), None)\n"
        "if line is None:\n"
        "    raise SystemExit('no line to patch in kernels._classes_block')\n"
        f"exec(source.replace(line, line + '    u2 = tuple({k} * e for e in u2)\\n'), kernels.__dict__)\n"
    )


_CLASSIFY_90 = ("classify(90)", ["classify", "--n", "90"])
_TABLE_200 = ("polarizations.class_table(200)", ["table", "--max-n", "200"])
_CLASSIFY = ("classify(3)", ["classify", "--n", "3"])
# the first degree with an orbit whose starting form, from the shifted complement
# basis, still swaps in Gauss reduction, so that a wrong witness shows
_CLASSIFY_SWAP = ("classify(5)", ["classify", "--n", "5"])
_TABLE = ("polarizations.class_table(5)", ["table", "--max-n", "5"])
_RANGE_TABLE = ("polarizations.classify_range(50)", ["table", "--max-n", "50"])
_RANGE_SCAN = ("polarizations.classify_range(50)", ["scan", "--max-n", "50"])


@pytest.mark.parametrize(
    "fault, call, error, message",
    [
        # the one-orbit references oracles.reduce and oracles.orthogonal_complement
        (
            "oracles._mat2_mul = lambda m, t: m\n",  # the witness stays the identity
            ("oracles.reduce(oracles.EvenBinaryForm(2, -8, 23))", None),
            "ReductionAnomaly",
            "does not carry",
        ),
        (
            "oracles._xgcd = lambda a, b: (1, 0, 0)\n",  # wrong cofactors
            ("oracles.orthogonal_complement((1, 1, 1))", None),
            "ComplementAnomaly",
            "not both orthogonal",
        ),
        (_IDENTITY_WITNESS, _CLASSIFY_SWAP, "ReductionAnomaly", "not the canonical reduced form"),
        (_WRONG_COFACTORS, _CLASSIFY, "ComplementAnomaly", "not both orthogonal"),
        (_UNREDUCED_FORM, _CLASSIFY, "ReductionAnomaly", "b^2 <= ac"),
        (_UNREDUCED_FORM, _TABLE, "ReductionAnomaly", "b^2 <= ac"),
        (_WRONG_DISCRIMINANT, _TABLE, "ReductionAnomaly", "breaks d = 4ac - b^2"),
        (_WRONG_INDEX, _TABLE, "IndexAnomaly", "breaks d I^2 = 160 n"),
        (_NOT_TEN_SQUARES, _TABLE, "IndexAnomaly", "breaks d I^2 = 160 n"),
        (_FAR_POINTS, _TABLE, "SortKeyAnomaly", "past int64"),
        (_REPEATED_ORBIT, _RANGE_TABLE, "EnumerationAnomaly", "at n = 36: (0, 12, 0) is found twice"),
        (_REPEATED_ORBIT, _RANGE_SCAN, "EnumerationAnomaly", "at n = 36: (0, 12, 0) is found twice"),
        (
            _PAST_THE_RANGE,
            ("polarizations.class_table(8)", ["table", "--max-n", "8"]),
            "EnumerationAnomaly",
            "at n = 8: (0, 6, 0) does not have norm 32",
        ),
        # the first orbit of n = 90 has d = 900 and I = 4, that of n = 1 d = 40 and I = 2
        (_scaled_complement(2), _CLASSIFY_90, "IndexAnomaly", "I = 4 breaks d I^2 = 160 n at n = 90, d = 3600"),
        (_scaled_complement(2), _TABLE_200, "IndexAnomaly", "I = 2 breaks d I^2 = 160 n at n = 1, d = 160"),
        (_scaled_complement(3), _CLASSIFY_90, "IndexAnomaly", "I = 4 breaks d I^2 = 160 n at n = 90, d = 8100"),
        (_scaled_complement(3), _TABLE_200, "IndexAnomaly", "I = 2 breaks d I^2 = 160 n at n = 1, d = 360"),
        # the split form of the norm, against a Gram matrix with the wrong last entry
        (
            "lattice.GRAM = ((4, 0, -2), (0, 4, -2), (-2, -2, 10))\n",
            ("lattice.norm((0, 0, 1))", None),
            "NormAnomaly",
            "by the split form",
        ),
        (
            # the split of 5 becomes (1, 1), a witness of norm 8
            "representability._gaussian_primes = lambda p: (p // p, p // p)\n",
            ("representability.prime_witnesses(5)", ["scan", "--max-n", "5"]),
            "NormAnomaly",
            "does not have norm 20",
        ),
        (
            # the root sieve loses the prime 13, so the cofactor 13 * 306953 of an m is taken
            # for a prime and does not split
            "from k3m20 import twosquares\n"
            "roots = twosquares._roots\n"
            "twosquares._roots = lambda n, primes: roots(n, primes[primes != 13])\n",
            ("classify(3999999)", ["classify", "--n", "3999999"]),
            "EnumerationAnomaly",
            "does not split the prime 3990389",
        ),
        (
            "veronese.quadric_count = lambda n: 2 * n * n - 3 * n + 2\n",  # one quadric too many
            ("veronese.doubled_model_dims(3)", ["veronese", "--n", "3"]),
            "DimensionAnomaly",
            "not P^25",
        ),
        (
            "dim = veronese.veronese_target_dim\n"
            "veronese.veronese_target_dim = lambda n, d: dim(n, d) + 1\n",
            ("veronese.scaled_quartic_dims(5)", ["veronese", "--r", "5"]),
            "DimensionAnomaly",
            "not P^51",
        ),
    ],
    ids=[
        "reduction",
        "complement",
        "batched-reduction",
        "batched-complement",
        "reduced-form",
        "table-reduced-form",
        "table-discriminant",
        "table-index",
        "table-index-ten-squares",
        "table-sort-key",
        "table-repeated-orbit",
        "scan-repeated-orbit",
        "table-past-the-range",
        "complement-doubled",
        "table-complement-doubled",
        "complement-tripled",
        "table-complement-tripled",
        "norm",
        "witness-norm",
        "degree-reps-root",
        "doubled-dims",
        "scaled-dims",
    ],
)
def test_result_guards_fire_under_python_optimize(fault, call, error, message):
    # the guards are explicit checks, not asserts, so -O keeps them; each is a
    # ValueError, so main reports one that its command meets and exits 1
    expression, argv = call
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(TESTS)!r})\n"  # for the oracles
        "import oracles\n"
        "from k3m20 import cli, classify, kernels, lattice, polarizations\n"
        "from k3m20 import representability, veronese\n"
        + fault
        + "try:\n"
        f"    {expression}\n"
        "except ValueError as exc:\n"
        "    print(type(exc).__name__)\n"
        "    print(exc)\n"
        + (f"sys.exit(cli.main({argv!r}))\n" if argv else "")
    )
    out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    name, text = out.stdout.splitlines()
    assert name == error
    assert "anomaly" in text and message in text
    if argv:
        assert out.returncode == 1
        assert out.stderr.startswith("error: ") and message in out.stderr


# ---------------------------------------------------------------------------
# usage errors and version


@pytest.mark.parametrize(
    "argv",
    [
        ["classify"],  # missing --n
        ["classify", "--n", "0"],
        ["table", "--max-n", "0"],
        ["table", "--max-n", "5", "--parallel", "0"],
        ["scan", "--max-n", "5", "--parallel", "0"],
        ["classify", "--n", str(2**60 + 1)],  # past kernels.MAX_N too
        ["table", "--max-n", str(2**60 + 1)],
        ["scan", "--max-n", str(2**60 + 1)],
        ["scan", "--max-n", "5", "--format", "csv"],  # csv not offered here
        ["veronese", "--r", "2"],
        ["frobnicate"],
        [],
        ["classify", "--n", str(10**9 + 1)],  # over the cost caps
        ["table", "--max-n", str(2 * 10**4 + 1)],
        ["scan", "--max-n", str(2 * 10**4 + 1)],
        ["veronese"],  # exactly one of --n / --r
        ["veronese", "--n", "2", "--r", "3"],
    ],
)
def test_usage_errors_exit_64(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 64
    assert capsys.readouterr().err.startswith("usage: k3m20")


def test_calls_in_one_process_match_fresh_processes(capsys):
    # the parser is built once per process, so no call may leave state behind for the next
    assert cli.build_parser() is cli.build_parser()
    calls = [
        (["classify", "--n", "0"], None),
        (["classify", "--n", "8"], "classify_8.txt"),
        (["table", "--max-n", "5", "--format", "json"], None),
        (["scan", "--max-n", "30"], None),
        (["classify", "--n", "6"], "classify_6.txt"),
    ]
    codes = []
    for argv, snapshot in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = subprocess.run([sys.executable, "-m", "k3m20.cli", *argv], capture_output=True, text=True)
        assert (code, captured.out, captured.err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
        if snapshot is not None:
            assert captured.out == (TESTS / "data" / snapshot).read_text()
        codes.append(code)
    assert codes == [64, 0, 0, 0, 2]


def test_version_banner(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == f"k3m20 {__version__}\n"
