import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mrdcodes
from mrdcodes import cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


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


# ---- start-up, each in a fresh interpreter -----------------------------------

def fresh(*args, **env):
    """Run the interpreter with args, importing mrdcodes from the checkout's
    src/, with OPENBLAS_NUM_THREADS removed from its environment and env
    added."""
    environ = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [SRC, environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], env={**environ, **env},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="threads are counted in /proc/self/task")
def test_cli_import_starts_one_thread():
    # the engines never call BLAS; numpy's OpenBLAS pool would add a thread
    assert fresh("-c", "import os, mrdcodes.cli; "
                       "print(len(os.listdir('/proc/self/task')))") == "1"


@pytest.mark.parametrize("env, want", [({}, "1"), ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_keeps_a_set_blas_thread_count(env, want):
    assert fresh("-c", "import os, mrdcodes.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])", **env) == want


def test_bare_import_loads_no_numpy():
    assert fresh("-c", "import sys, mrdcodes; print('numpy' in sys.modules)") == "False"


def test_scan_and_curve_engine_load_no_numpy_ma():
    # np.unique imports numpy.ma on its first call, about 14 ms of the sweep
    out = fresh("-c", """if True:
        import sys
        from mrdcodes import SupportCode, curves, make_tower, verify
        t = make_tower(3, 1, 7)
        scan = verify.exhaustive_scan(SupportCode(t, (0, 1, 3), 1))
        curve = curves.mrd_via_curve(t)
        print(scan.verdict, curve.verdict, 'numpy.ma' in sys.modules)""")
    assert out == "MRD MRD False"


def test_lazy_names_resolve():
    out = json.loads(fresh("-c", """if True:
        import json, pkgutil, sys, mrdcodes
        subs = [m.name for m in pkgutil.iter_modules(mrdcodes.__path__)]
        mods = {m: getattr(mrdcodes, m) is sys.modules["mrdcodes." + m] for m in subs}
        names = {n: any(getattr(sys.modules["mrdcodes." + m], n, None)
                        is getattr(mrdcodes, n) for m in subs)
                 for n in mrdcodes.__all__}
        print(json.dumps([subs, mods, names]))"""))
    subs, mods, names = out
    assert {"cli", "codes", "curves", "fields", "verify"} <= set(subs)
    assert all(mods.values()) and all(names.values())
    assert len(names) == 19    # every name the eager imports exported
    with pytest.raises(AttributeError):
        mrdcodes.no_such_name


def test_cli_runs_as_a_process():
    out = fresh("-m", "mrdcodes.cli", "dual", "--n", "7", "--T", "0,1,3")
    assert json.loads(out)["T"] == [2, 4, 5, 6]
