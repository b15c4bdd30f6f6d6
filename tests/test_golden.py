"""Golden certificates: the README-style `verify`/`classify` CLI outputs, the
classifications of the criterion-10 replay (plus q=2 n=9 k=4), the curve
engine's certificates and reports, and the trinomial criterion's
certificates, without `elapsed_ms`, compared byte for byte with the files in
tests/data/.

The CLI and classification files were recorded before the orbit-reduced scan
replaced the raw projective sweep, the curve file before the per-line kernels
replaced the sweep over all pairs (x, y), the trinomial file before the t(Z)
histogram was built by additions from a low block of combinations; any
change to an engine must leave them unchanged.  To record them again (only
when a certificate is meant to change):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from mrdcodes import cli, curves, verify
from mrdcodes.fields import make_tower
from test_curves import CURVE_TOWERS

DATA = Path(__file__).resolve().parent / "data"
CLI_FILE = DATA / "golden_cli.jsonl"
CLASSIFY_FILE = DATA / "golden_classify.jsonl"
CURVE_FILE = DATA / "golden_curve.jsonl"
TRINOMIAL_FILE = DATA / "golden_trinomial.jsonl"

CLI_CASES = [
    ["verify", "--q", "3", "--n", "7", "--T", "0,1,3"],
    ["verify", "--q", "2", "--n", "7", "--T", "0,1,3"],
    ["verify", "--q", "2", "--n", "9", "--family", "Ds", "--s", "4"],
    ["verify", "--q", "2", "--n", "7", "--family", "C7"],
    ["verify", "--q", "3", "--n", "7", "--family", "C7"],
    ["verify", "--q", "2", "--n", "7", "--T", "0,1,2"],
    ["verify", "--q", "4", "--n", "7", "--T", "0,1,3"],
    ["verify", "--q", "2", "--n", "8", "--T", "0,1,2,4"],
    ["verify", "--q", "2", "--n", "7", "--T", "0,1,2", "--budget", "5"],
    ["verify", "--q", "3", "--n", "5", "--T", "0,1,2", "--s", "2"],
    ["verify", "--q", "2", "--n", "9", "--T", "0,1,3,6"],
    ["verify", "--q", "4", "--n", "5", "--T", "0,1", "--s", "2"],
    ["verify", "--q", "3", "--n", "6", "--T", "0,2,4"],
    ["verify", "--q", "2", "--n", "7", "--T", "0,1,2,4", "--s", "3"],
    ["classify", "--q", "2", "--n", "8", "--k", "4"],
    ["classify", "--q", "3", "--n", "7", "--k", "3"],
]

# the criterion-10 replay (q=2 n<=8, q=3 n<=7, k<=n/2) and q=2 n=9 k=4
CLASSIFY_CASES = [(q, n, k) for q in (2, 3) for n in range(2, {2: 8, 3: 7}[q] + 1)
                  for k in range(1, n // 2 + 1)] + [(2, 9, 4)]

# `mrd_via_curve` on every tower of the oracle test, then `curve_report`
CURVE_REPORT_TOWERS = [(2, 1, 7), (3, 1, 7), (2, 1, 8)]

# `trinomial_criterion` on the eight towers of the benchmark's support013
# workload, then q=4 n=9, q=8 n=5, q=8 n=6 and q=9 n=5 (e = 2 and e = 3)
TRINOMIAL_TOWERS = [(2, 2, 8), (7, 1, 7), (5, 1, 7), (2, 2, 7), (3, 1, 9),
                    (5, 1, 8), (3, 1, 8), (2, 1, 8), (2, 2, 9), (2, 3, 5),
                    (2, 3, 6), (3, 2, 5)]


def _untimed(obj):
    if isinstance(obj, dict):
        return {key: _untimed(v) for key, v in obj.items() if key != "elapsed_ms"}
    if isinstance(obj, list):
        return [_untimed(v) for v in obj]
    return obj


def _line(obj) -> str:
    return json.dumps(_untimed(obj), sort_keys=True)


def cli_line(argv, workers: int) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv + ["--workers", str(workers), "--catalog", os.devnull])
    return _line({"argv": argv, "exit": rc, "out": json.loads(buf.getvalue())})


def classify_line(q, n, k, workers: int) -> str:
    cl = verify.classify(make_tower(q, 1, n), k, workers=workers)
    return _line({"q": q, "n": n, "k": k, "classification": cl.to_json()})


def curve_lines() -> list[str]:
    return [_line({"tower": list(pen), "certificate":
                   curves.mrd_via_curve(make_tower(*pen)).to_json()})
            for pen in CURVE_TOWERS] + \
        [_line({"tower": list(pen), "report":
                curves.curve_report(make_tower(*pen)).to_json()})
         for pen in CURVE_REPORT_TOWERS]


def trinomial_line(pen) -> str:
    return _line({"tower": list(pen),
                  "certificate": verify.trinomial_criterion(make_tower(*pen)).to_json()})


def _golden(path):
    return path.read_text().splitlines()


@pytest.mark.parametrize("i", range(len(CLI_CASES)))
def test_cli_golden(i):
    workers = 1 + i % 2   # both the in-process and the pool path
    assert cli_line(CLI_CASES[i], workers) == _golden(CLI_FILE)[i]


def test_classify_golden():
    golden = _golden(CLASSIFY_FILE)
    assert len(golden) == len(CLASSIFY_CASES)
    for (q, n, k), want in zip(CLASSIFY_CASES, golden):
        assert classify_line(q, n, k, workers=1) == want, (q, n, k)


def test_curve_golden():
    assert curve_lines() == _golden(CURVE_FILE)


@pytest.mark.parametrize("i", range(len(TRINOMIAL_TOWERS)))
def test_trinomial_golden(i):
    golden = _golden(TRINOMIAL_FILE)
    assert len(golden) == len(TRINOMIAL_TOWERS)
    assert trinomial_line(TRINOMIAL_TOWERS[i]) == golden[i]


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    CLI_FILE.write_text("".join(cli_line(a, 1) + "\n" for a in CLI_CASES))
    CLASSIFY_FILE.write_text("".join(classify_line(*c, workers=1) + "\n"
                                     for c in CLASSIFY_CASES))
    CURVE_FILE.write_text("".join(line + "\n" for line in curve_lines()))
    TRINOMIAL_FILE.write_text("".join(trinomial_line(pen) + "\n"
                                      for pen in TRINOMIAL_TOWERS))
    sys.exit(0)
