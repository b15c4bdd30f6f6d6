"""Golden certificates: the README-style `verify`/`classify` CLI outputs and
the classifications of the criterion-10 replay (plus q=2 n=9 k=4), without
`elapsed_ms`, compared byte for byte with the files in tests/data/.

The files were recorded before the orbit-reduced scan replaced the raw
projective sweep; any change to an engine must leave them unchanged.  To
record them again (only when a certificate is meant to change):

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from mrdcodes import cli, verify
from mrdcodes.fields import make_tower

DATA = Path(__file__).resolve().parent / "data"
CLI_FILE = DATA / "golden_cli.jsonl"
CLASSIFY_FILE = DATA / "golden_classify.jsonl"

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


if __name__ == "__main__":
    DATA.mkdir(exist_ok=True)
    CLI_FILE.write_text("".join(cli_line(a, 1) + "\n" for a in CLI_CASES))
    CLASSIFY_FILE.write_text("".join(classify_line(*c, workers=1) + "\n"
                                     for c in CLASSIFY_CASES))
    sys.exit(0)
