"""Byte-exact CLI output and exit codes; any change to them is a change of results.

The csv table and the scan were recorded before the orbit walk replaced
per-degree enumeration, the json and text tables before the class layer
replaced per-report table rows, the classify and golden-check outputs
before the one-orbit references moved out of the package, and the csv of
classify --n 3999999 (the largest degree of the reference draw) before
classify enumerated one degree by sums of two squares, and its json and
text before the reports became array rows; the text scan before its
anomaly count came from the status columns.  Degree 2^24 + 1, the first
whose invariants were computed on python-int arrays before the complement
basis was size-reduced, is pinned by the sha256 of its output, recorded
before the reports became array rows."""

import hashlib
from pathlib import Path

import pytest

from k3m20.cli import main

DATA = Path(__file__).parent / "data"

CASES = [
    (["table", "--max-n", "1000", "--format", "csv"], "table_1000.csv", 0),
    (["scan", "--max-n", "1000", "--format", "json"], "scan_1000.json", 0),
    (["scan", "--max-n", "1000", "--parallel", "2", "--format", "json"], "scan_1000.json", 0),
    (["table", "--max-n", "1000", "--format", "json"], "table_1000.json", 0),
    (["table", "--max-n", "1000"], "table_1000.txt", 0),
    *(
        (["classify", "--n", str(n), "--format", fmt], f"classify_{n}.{ext}", 2 if n == 6 else 0)
        for n in (6, 8, 10, 90)
        for fmt, ext in (("text", "txt"), ("json", "json"), ("csv", "csv"))
    ),
    (["golden-check"], "golden_check.txt", 0),
    (["classify", "--n", "3999999", "--format", "csv"], "classify_3999999.csv", 0),
    (["classify", "--n", "3999999", "--format", "json"], "classify_3999999.json", 0),
    (["classify", "--n", "3999999", "--format", "text"], "classify_3999999.txt", 0),
    (["scan", "--max-n", "1000", "--format", "text"], "scan_1000.txt", 0),
]


@pytest.mark.parametrize(
    "argv, snapshot, code",
    CASES,
    ids=[f"argv{i}-{snapshot}" for i, (_, snapshot, _) in enumerate(CASES)],
)
def test_output_matches_snapshot(capsys, argv, snapshot, code):
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / snapshot).read_text()


# classify --n 2^24 + 1: 398 KB of json and 245 KB of text
BIG_N_SHA256 = {
    "json": "8fae48fe67a1daf95667f413571f78cc09816f02cc66481517239b430515b7e8",
    "text": "ceb129f96a057443da326a3b229bec67c91c306773554aff686260387d5db40d",
}


@pytest.mark.parametrize("fmt", sorted(BIG_N_SHA256))
def test_python_int_degree_matches_digest(capsys, fmt):
    assert main(["classify", "--n", str(2**24 + 1), "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == BIG_N_SHA256[fmt]
