"""One round of one workload, in a fresh process.

    python3 perfbench/workloads.py <workload> --seed N --workers W
        [--setup-only] [--trace] [--inproc]

The process imports mrdcodes from the checkout's src/, builds the towers
and Zech tables the workload uses, prints `ready`, runs the timed section
(a closed loop of operations from this one process), checks every output
with perfbench/checks.py, and prints one JSON line with its figures.
run.py times the span from starting this process to `ready` as set-up.

`--trace` records spans around the calls into each module (perfbench/
spans.py) for the whole process, set-up included; `--inproc` runs the cli
workload's commands through `cli.main` in this process instead of one
interpreter per command, which is how the traced run sees them.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(SRC))

# the first import in this fresh process, so it costs what a user pays
_t0 = time.perf_counter()
import mrdcodes.cli  # noqa: E402
IMPORT_S = time.perf_counter() - _t0

import checks  # noqa: E402
from mrdcodes import cli, curves, verify  # noqa: E402
from mrdcodes.codes import named_family  # noqa: E402
from mrdcodes.fields import make_tower  # noqa: E402

ZECH_DRAWS = 400
CLI_TIMEOUT_S = 120


class Op:
    """One operation of a round: a name, a call, and what it produced."""

    def __init__(self, name, fn):
        self.name, self.fn = name, fn
        self.out = None
        self.certs = []
        self.error = None
        self.latency = 0.0


# ---- scan_mrd -------------------------------------------------------------------

SCAN_TOWERS = [(3, 1, 7)]


def scan_mrd_ops(workers, rng):
    def run():
        cert = verify.exhaustive_scan(named_family("C7", make_tower(3, 1, 7)),
                                      workers=workers).to_json()
        return cert, [cert]
    return [Op("exhaustive_scan C7 q=3 n=7", run)]


def scan_mrd_check(ops):
    cert = ops[0].out
    errors = checks.check_certificate(cert)
    if cert["verdict"] != "MRD":
        errors.append(f"C7 over F_3 is {cert['verdict']}, the paper says MRD")
    tri = verify.trinomial_criterion(make_tower(3, 1, 7)).verdict
    if tri != cert["verdict"]:
        errors.append(f"scan says {cert['verdict']}, trinomial_criterion says {tri}")
    return errors


# ---- classify -------------------------------------------------------------------

def replay_cases(q):
    """The criterion-10 replay at one q: n <= 8 for q=2, n <= 7 for q=3,
    every k <= n/2."""
    return [(n, k) for n in range(2, {2: 8, 3: 7}[q] + 1) for k in range(1, n // 2 + 1)]


CLASSIFY_TOWERS = sorted({(2, 1, 9)} | {(q, 1, n) for q in (2, 3)
                                        for n, _ in replay_cases(q)})


def classify_ops(workers, rng):
    """Two operations: the classification at q=2 n=9 k=4, and the replay
    (a run of classifications, as the acceptance test makes it)."""
    def op(name, cases):
        def run():
            cls = [verify.classify(make_tower(q, 1, n), k, workers=workers).to_json()
                   for q, n, k in cases]
            return cls, [e["certificate"] for cl in cls for e in cl["entries"]
                         if e["certificate"]]
        return Op(name, run)
    replay = [(q, n, k) for q in (2, 3) for n, k in replay_cases(q)]
    return [op("classify q=2 n=9 k=4", [(2, 9, 4)]), op("criterion-10 replay", replay)]


def classify_check(ops):
    return [err for o in ops for cl in o.out
            for err in checks.check_classification(cl, cl["q"])]


# ---- support013 -----------------------------------------------------------------

TRINOMIAL_QN = [(4, 8), (7, 7), (5, 7), (4, 7), (3, 9), (5, 8), (3, 8), (2, 8)]
CURVE_QN = [(3, 7), (4, 7), (3, 8), (2, 8)]


def _pe(q):
    return {2: (2, 1), 3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1)}[q]


SUPPORT013_TOWERS = sorted({(*_pe(q), n) for q, n in TRINOMIAL_QN + CURVE_QN})


def support013_ops(workers, rng):
    """Two operations, one per engine, each deciding {0,1,3} on its towers."""
    def op(name, engine, towers):
        def run():
            certs = [engine(make_tower(*_pe(q), n)).to_json() for q, n in towers]
            return certs, certs
        return Op(name, run)
    # trinomial_criterion accepts `workers` and ignores it; pass it anyway so
    # that a change which honours it shows up here
    return [op("trinomial_criterion", lambda t: verify.trinomial_criterion(t, workers=workers),
               TRINOMIAL_QN),
            op("mrd_via_curve", curves.mrd_via_curve, CURVE_QN)]


def support013_check(ops):
    errors = []
    verdicts = {}
    for cert in (c for o in ops for c in o.out):
        tw = cert["tower"]
        q, n = tw["p"] ** tw["e"], tw["n"]
        verdicts[(cert["method"], q, n)] = cert["verdict"]
        want = checks.support013_expected(q, n)
        if cert["verdict"] != want:
            errors.append(f"{cert['method']} q={q} n={n}: {cert['verdict']}, "
                          f"the paper says {want}")
        errors += checks.check_certificate(cert)
    for q, n in CURVE_QN:
        tri = verdicts.get(("trinomial", q, n))
        if tri is None:
            tri = verify.trinomial_criterion(make_tower(*_pe(q), n)).verdict
        if verdicts[("curve", q, n)] != tri:
            errors.append(f"q={q} n={n}: curve says {verdicts[('curve', q, n)]}, "
                          f"trinomial says {tri}")
    return errors


# ---- cli ------------------------------------------------------------------------

ROOTS_POLY = ('{"terms":[{"i":3,"c":[1,0,0,0,0,0,0,0,0]},'
              '{"i":0,"c":[1,0,0,0,0,0,0,0,0]}]}')

# (name, argv, expected exit code); verify and classify also get --workers
CLI_COMMANDS = [
    ("verify C7 q=2", ["verify", "--q", "2", "--n", "7", "--family", "C7"], 1),
    ("verify C7 q=3", ["verify", "--q", "3", "--n", "7", "--family", "C7"], 0),
    ("verify Ds q=2", ["verify", "--q", "2", "--n", "9", "--family", "Ds", "--s", "4"], 1),
    ("verify 012 q=2", ["verify", "--q", "2", "--n", "7", "--T", "0,1,2"], 0),
    ("verify 013 q=4", ["verify", "--q", "4", "--n", "7", "--T", "0,1,3"], 1),
    ("verify 0124 q=2", ["verify", "--q", "2", "--n", "8", "--T", "0,1,2,4"], 1),
    ("classify q=2 n=8", ["classify", "--q", "2", "--n", "8", "--k", "4"], 0),
    ("classify q=3 n=7", ["classify", "--q", "3", "--n", "7", "--k", "3"], 0),
    ("idealiser left", ["idealiser", "--q", "3", "--n", "7", "--T", "0,1,3",
                        "--side", "left"], 0),
    ("idealiser right", ["idealiser", "--q", "3", "--n", "7", "--T", "0,1,3",
                         "--side", "right"], 0),
    ("curve-count q=2", ["curve-count", "--q", "2", "--n", "7"], 0),
    ("curve-count q=3", ["curve-count", "--q", "3", "--n", "7"], 0),
    ("moore-det", ["moore-det", "--q", "2", "--n", "3", "--T", "0,1",
                   "--A", "[[0,1,0],[0,0,1]]"], 0),
    ("roots", ["roots", "--q", "2", "--n", "9", "--poly", ROOTS_POLY], 0),
    ("dual", ["dual", "--n", "7", "--T", "0,1,3"], 0),
    ("adjoint", ["adjoint", "--n", "7", "--T", "0,1,3"], 0),
]
CLI_TOWERS = [(2, 1, 7), (3, 1, 7), (2, 1, 9), (2, 2, 7), (2, 1, 8), (2, 1, 3)]


def cli_ops(workers, rng, catalog, inproc):
    env = dict(os.environ, PYTHONPATH=str(SRC))

    def op(name, argv, rc):
        argv = argv + ["--catalog", catalog]
        if argv[0] in ("verify", "classify"):
            argv += ["--workers", str(workers)]

        def run():
            if inproc:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf):
                    got = cli.main(argv)
                text = buf.getvalue()
            else:
                proc = subprocess.run([sys.executable, "-m", "mrdcodes.cli", *argv],
                                      env=env, cwd=ROOT, capture_output=True,
                                      text=True, timeout=CLI_TIMEOUT_S)
                got, text = proc.returncode, proc.stdout
            if got != rc:
                raise RuntimeError(f"exit code {got}, expected {rc}")
            out = json.loads(text)
            if argv[0] == "verify":
                return out, [out]
            if argv[0] == "classify":
                return out, [e["certificate"] for e in out["entries"] if e["certificate"]]
            return out, []
        return Op(name, run)
    # one interpreter per command shares no state, so the seed may order them
    ops = [op(*c) for c in CLI_COMMANDS]
    rng.shuffle(ops)
    return ops


def cli_check(ops, catalog):
    errors = []
    by = {o.name: o.out for o in ops}
    for name, argv, _ in CLI_COMMANDS:
        out = by[name]
        if argv[0] == "verify":
            errors += checks.check_certificate(out)
        elif argv[0] == "classify":
            errors += checks.check_classification(out, out["q"])
    for side in ("left", "right"):
        rep = by[f"idealiser {side}"]
        stab = checks.stabilizer((0, 1, 3), 7)
        if (rep["side"], rep["fq_dimension"], rep["is_field"]) != \
                (side, 7 * len(stab), len(stab) == 1):
            errors.append(f"idealiser {side}: {rep}")
    errors += checks.check_curve_report(by["curve-count q=2"])
    errors += checks.check_curve_report(by["curve-count q=3"])
    errors += checks.check_moore_det(by["moore-det"], 2, 1, 3,
                                     checks.lex_smallest_irreducible(2, 3))
    errors += checks.check_roots(by["roots"], 2, 1, 9,
                                 checks.lex_smallest_irreducible(2, 9), 3)
    if by["dual"]["T"] != [2, 4, 5, 6]:
        errors.append(f"dual of {{0,1,3}} at n=7 is {by['dual']['T']}, README says [2,4,5,6]")
    if by["adjoint"]["T"] != [0, 4, 6]:
        errors.append(f"adjoint of {{0,1,3}} at n=7 is {by['adjoint']['T']}, README says [0,4,6]")
    with open(catalog) as fh:
        lines = sum(1 for _ in fh)
    want = sum(len(o.certs) for o in ops)
    if lines != want:
        errors.append(f"catalog holds {lines} lines for {want} certificates")
    return errors


WORKLOADS = {
    "scan_mrd": (SCAN_TOWERS, scan_mrd_ops, scan_mrd_check),
    "classify": (CLASSIFY_TOWERS, classify_ops, classify_check),
    "support013": (SUPPORT013_TOWERS, support013_ops, support013_check),
    "cli": (CLI_TOWERS, cli_ops, cli_check),
}


def _usage():
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workers", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--inproc", action="store_true")
    args = ap.parse_args(argv)

    if Path(mrdcodes.__file__).resolve().parent != (SRC / "mrdcodes").resolve():
        raise SystemExit(f"mrdcodes imported from {mrdcodes.__file__}, not {SRC}")
    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        spans.install(tracer)

    towers, make_ops, check = WORKLOADS[args.workload]
    if args.workload != "cli":
        for ptuple in towers:
            make_tower(*ptuple).tables
    print("ready", flush=True)
    if args.setup_only:
        return 0

    rng = random.Random(args.seed)
    # the catalog stays inside the checkout, the only place the benchmark
    # writes to, and is deleted with its directory when the round ends
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        catalog = os.path.join(tmp, "catalog.jsonl")
        if args.workload == "cli":
            ops = make_ops(args.workers, rng, catalog, args.inproc or args.trace)
        else:
            ops = make_ops(args.workers, rng)
        cpu0 = _usage()
        t0 = time.perf_counter()
        for o in ops:
            start = time.perf_counter()
            try:
                o.out, o.certs = o.fn()
            except Exception as exc:  # an operation that fails is counted, not fatal
                o.error = f"{o.name}: {type(exc).__name__}: {exc}"
            o.latency = time.perf_counter() - start
        wall = time.perf_counter() - t0
        cpu = _usage() - cpu0
        if tracer is not None:
            tracer.uninstall()  # the checks below are not the program's run
        rss_mb = max(resource.getrusage(who).ru_maxrss for who in
                     (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0

        failed = [o.error for o in ops if o.error]
        done = [o for o in ops if not o.error]
        extra = (catalog,) if args.workload == "cli" else ()
        errors = check(done, *extra) if not failed else []
        catalog_bytes = os.path.getsize(catalog) if os.path.exists(catalog) else 0
        for ptuple in towers:
            errors += checks.check_zech(make_tower(*ptuple), rng, ZECH_DRAWS)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    certs = [c for o in done for c in o.certs]
    result = {
        "attempted": len(ops),
        "failed": len(failed),
        "errors": failed + errors,
        "wall_s": wall,
        "cpu_s": cpu,
        "peak_rss_mb": rss_mb,
        "latencies": [o.latency for o in ops],
        "certificates": len(certs),
        "scanned": sum(c["scanned"] for c in certs),
    }
    if tracer is not None:
        layers = spans.layer_metrics(tracer)
        layers["cli.import_s"] = IMPORT_S
        layers["cli.catalog_bytes"] = catalog_bytes
        result["layers"] = layers
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
