import json
import os

import pytest

from mrdcodes import cli


def run(capsys, *argv):
    rc = cli.main(list(argv))
    out = capsys.readouterr().out
    return rc, out


def test_verify_exit_codes_and_catalog(tmp_path, capsys):
    cat = str(tmp_path / "cat.jsonl")
    rc, out = run(capsys, "verify", "--q", "3", "--n", "7", "--T", "0,1,3",
                  "--catalog", cat)
    assert rc == 0
    obj = json.loads(out)
    assert obj["verdict"] == "MRD" and obj["method"] == "trinomial"
    assert obj["tower"]["p"] == 3 and obj["code"]["T"] == [0, 1, 3]

    rc, out = run(capsys, "verify", "--q", "2", "--n", "7", "--T", "0,1,3",
                  "--catalog", cat)
    assert rc == 1 and json.loads(out)["verdict"] == "NOT_MRD"

    rc, out = run(capsys, "verify", "--q", "2", "--n", "6", "--T", "0,3",
                  "--catalog", cat)
    assert rc == 1 and json.loads(out)["method"] == "witness"

    rc, out = run(capsys, "verify", "--q", "2", "--n", "7", "--T", "0,1,2",
                  "--budget", "5", "--catalog", cat)
    assert rc == 2 and json.loads(out)["verdict"] == "UNKNOWN"

    lines = open(cat).read().strip().split("\n")
    assert len(lines) == 4
    assert all(isinstance(json.loads(ln), dict) for ln in lines)
    # append-only: another run only adds
    rc, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--T", "0,1",
                "--catalog", cat)
    assert rc == 0
    assert len(open(cat).read().strip().split("\n")) == 5


def test_verify_deterministic_modulo_timing(tmp_path, capsys):
    cat = str(tmp_path / "cat.jsonl")
    outs = []
    for _ in range(2):
        rc, out = run(capsys, "verify", "--q", "2", "--n", "7",
                      "--T", "0,1,3", "--catalog", cat)
        obj = json.loads(out)
        obj.pop("elapsed_ms")
        outs.append(json.dumps(obj, sort_keys=True))
    assert outs[0] == outs[1]


def test_family_flag(tmp_path, capsys):
    cat = str(tmp_path / "cat.jsonl")
    rc, out = run(capsys, "verify", "--q", "2", "--n", "9", "--family", "Ds",
                  "--s", "4", "--catalog", cat)
    assert rc == 1
    obj = json.loads(out)
    assert obj["code"]["T"] == [0, 4, 7, 8] and obj["method"] == "witness"


def test_classify_cli(tmp_path, capsys):
    cat = str(tmp_path / "cat.jsonl")
    rc, out = run(capsys, "classify", "--q", "2", "--n", "7", "--k", "3",
                  "--catalog", cat)
    assert rc == 0
    cl = json.loads(out)
    survivors = [e for e in cl["entries"]
                 if not e["gabidulin"] and e["removed_by"] is None]
    assert len(survivors) == 1 and survivors[0]["T"] == [0, 1, 3]
    assert survivors[0]["certificate"]["verdict"] == "NOT_MRD"
    assert os.path.exists(cat)


def test_dual_adjoint_idealiser(capsys):
    rc, out = run(capsys, "dual", "--n", "7", "--T", "0,1,3")
    assert rc == 0 and json.loads(out)["T"] == [2, 4, 5, 6]
    rc, out = run(capsys, "adjoint", "--n", "7", "--T", "0,1,3")
    assert rc == 0 and json.loads(out)["T"] == [0, 4, 6]
    rc, out = run(capsys, "idealiser", "--q", "3", "--n", "7",
                  "--T", "0,1,3", "--side", "left")
    rep = json.loads(out)
    assert rep["fq_dimension"] == 7 and rep["is_field"] and rep["is_max"]


@pytest.mark.parametrize("argv", [
    ["dual", "--n", "7", "--T", "0,7"],               # not distinct mod n
    ["dual", "--n", "7", "--T", "0,1,2,3,4,5,6"],     # the dual would be empty
    ["adjoint", "--n", "0", "--T", "1"],              # n must be positive
])
def test_dual_adjoint_reject_invalid_supports(capsys, argv):
    # the same checks as SupportCode, so errors exit 4 as they do for verify
    rc, out = run(capsys, *argv)
    assert rc == 4 and out == ""


def test_moore_det_and_roots(capsys):
    rc, out = run(capsys, "moore-det", "--q", "2", "--n", "3",
                  "--T", "0,1", "--A", "[[0,1,0],[0,0,1]]")
    assert rc == 0
    obj = json.loads(out)
    assert obj["T"] == [0, 1] and len(obj["det"]) == 3
    rc, out = run(capsys, "roots", "--q", "2", "--n", "9", "--poly",
                  '{"terms":[{"i":3,"c":[1,0,0,0,0,0,0,0,0]},'
                  '{"i":0,"c":[1,0,0,0,0,0,0,0,0]}]}')
    assert rc == 0 and json.loads(out)["count"] == 8


def test_curve_count_cli(capsys):
    rc, out = run(capsys, "curve-count", "--q", "2", "--n", "7")
    assert rc == 0
    obj = json.loads(out)
    assert obj["points_at_infinity_V"] == 2 and obj["mrd_consistent"]


def test_env_catalog(tmp_path, capsys, monkeypatch):
    cat = str(tmp_path / "env.jsonl")
    monkeypatch.setenv("MRD_CATALOG", cat)
    rc, _ = run(capsys, "verify", "--q", "2", "--n", "5", "--T", "0,1")
    assert rc == 0 and os.path.exists(cat)


def test_out_file(tmp_path, capsys):
    dest = tmp_path / "out.json"
    cat = str(tmp_path / "cat.jsonl")
    rc, out = run(capsys, "verify", "--q", "2", "--n", "5", "--T", "0,1",
                  "--out", str(dest), "--catalog", cat)
    assert rc == 0
    assert json.loads(dest.read_text()) == json.loads(out)


def test_error_exit_codes(capsys):
    rc, _ = run(capsys, "verify", "--q", "6", "--n", "5", "--T", "0,1")
    assert rc == 4
    rc, _ = run(capsys, "verify", "--q", "4", "--e", "1", "--n", "5",
                "--T", "0,1")
    assert rc == 4   # q = 4 is 2^2, not p^1
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args(["verify", "--q"])
    assert exc.value.code == 3
    rc, _ = run(capsys, "verify", "--q", "2", "--n", "7")
    assert rc == 4   # neither --T nor --family


def test_workers_flag(tmp_path, capsys):
    cat = str(tmp_path / "cat.jsonl")
    rc, out = run(capsys, "verify", "--q", "2", "--n", "6", "--T", "0,1,2",
                  "--workers", "2", "--catalog", cat)
    assert rc == 0 and json.loads(out)["verdict"] == "MRD"
