"""The json of classify and scan, rendered from templates, against json.dumps.

`cli` prints both from `%` templates; `json.dumps(..., indent=2)` of the
payloads in `tests/oracles.py` (`report_to_dict`, `scan_to_dict`) is the
reference, byte for byte.  `report_to_dict` is built from the one-orbit
oracle over the walk's points, not from the package's report.
"""

import json
from pathlib import Path

import pytest

from k3m20.cli import main, report_json
from k3m20.polarizations import classify
from oracles import report_to_dict, scan_to_dict

# the degrees of the benchmark's deep workload, a log-uniform draw in [1e5, 4e6]
REFERENCE = Path(__file__).parents[1] / "pipebench" / "reference.json"
DEEP = sorted(int(n) for n in json.loads(REFERENCE.read_text())["deep"])


def _stdout(capsys, *argv):
    main(list(argv))
    return capsys.readouterr().out


def test_classify_json_matches_json_dumps(capsys):
    for n in range(1, 401):
        want = json.dumps(report_to_dict(n), indent=2) + "\n"
        assert _stdout(capsys, "classify", "--n", str(n), "--format", "json") == want, n


def test_classify_json_matches_json_dumps_deep_degrees():
    assert len(DEEP) == 128
    # the oracle computes one orbit at a time; the degrees below 10^6 keep this test to seconds
    small = [n for n in DEEP if n < 10**6]
    assert len(small) == 80
    for n in small:
        assert report_json(classify(n)) == json.dumps(report_to_dict(n), indent=2), n


@pytest.mark.parametrize("max_n", [*range(1, 61), 2000])
def test_scan_json_matches_json_dumps(capsys, max_n):
    want = json.dumps(scan_to_dict(max_n), indent=2) + "\n"
    assert _stdout(capsys, "scan", "--max-n", str(max_n), "--format", "json") == want
