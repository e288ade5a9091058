"""Byte-exact CLI output and exit codes; any change to them is a change of results.

The csv table and the scan were recorded before the orbit walk replaced
per-degree enumeration, the json and text tables before the class layer
replaced per-report table rows, the classify and golden-check outputs
before the one-orbit references moved out of the package, and the csv of
classify --n 3999999 (the largest degree of the reference draw) before
classify enumerated one degree by sums of two squares."""

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
]


@pytest.mark.parametrize(
    "argv, snapshot, code",
    CASES,
    ids=[f"argv{i}-{snapshot}" for i, (_, snapshot, _) in enumerate(CASES)],
)
def test_output_matches_snapshot(capsys, argv, snapshot, code):
    assert main(argv) == code
    assert capsys.readouterr().out == (DATA / snapshot).read_text()
