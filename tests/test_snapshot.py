"""Byte-exact CLI output for range runs; any change to them is a change of results.

The csv table and the scan were recorded before the orbit walk replaced
per-degree enumeration, the json and text tables before the class layer
replaced per-report table rows."""

from pathlib import Path

import pytest

from k3m20.cli import main

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize(
    "argv, snapshot",
    [
        (["table", "--max-n", "1000", "--format", "csv"], "table_1000.csv"),
        (["scan", "--max-n", "1000", "--format", "json"], "scan_1000.json"),
        (["scan", "--max-n", "1000", "--parallel", "2", "--format", "json"], "scan_1000.json"),
        (["table", "--max-n", "1000", "--format", "json"], "table_1000.json"),
        (["table", "--max-n", "1000"], "table_1000.txt"),
    ],
)
def test_output_matches_snapshot(capsys, argv, snapshot):
    assert main(argv) == 0
    assert capsys.readouterr().out == (DATA / snapshot).read_text()
