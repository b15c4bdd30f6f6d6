"""The mrdcodes benchmark: the time to a checked verdict.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1] [--workers W]

Run from anywhere inside a checkout; the program is imported from the
checkout's src/.  Each round of a workload runs in a fresh process
(perfbench/workloads.py); rounds repeat until --seconds (by default
BENCHMARK.json's run_seconds) have passed, and at least MIN_ROUNDS times.
With --trace 0 the run prints the end-to-end metrics, with --trace 1 the
per-layer metrics of one traced round (workers=1) and its overhead against
one untraced round with the same settings.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["scan_mrd", "classify", "support013", "cli"]
# set-up samples per run, taken as set-up-only processes before each round
# and after the last one, so that they are spread over the run as the rounds
# are and the machine's drift over the run reaches both alike
SETUP_SAMPLES = 15
SETUP_PER_ROUND = 3
# a run makes whole rounds until --seconds have passed, and at least this
# many: the machine's speed drifts over tens of seconds, so short workloads
# repeat to average it; one round of scan_mrd is already the longest, and
# three of cli (9 s each) keep its run near 33 s, about as long as
# support013's, so that a run of any workload stays within 21 to 33 s
MIN_ROUNDS = {"scan_mrd": 1, "classify": 2, "support013": 2, "cli": 3}
ROUND_TIMEOUT_S = 170

def spawn(workload, seed, workers, *flags):
    """Start one fresh worker; return (seconds to `ready`, its result)."""
    cmd = [sys.executable, str(HERE / "workloads.py"), workload,
           "--seed", str(seed), "--workers", str(workers), *flags]
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - t0
        rest, _ = proc.communicate(timeout=ROUND_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"{workload} worker exited with {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def end_to_end(workload, seed, seconds, workers):
    rounds, setups = [], []
    start = time.perf_counter()
    while len(rounds) < MIN_ROUNDS[workload] or time.perf_counter() - start < seconds:
        for _ in range(SETUP_PER_ROUND):
            setups.append(spawn(workload, seed, workers, "--setup-only")[0])
        s, r = spawn(workload, seed, workers)
        setups.append(s)
        rounds.append(r)
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, workers, "--setup-only")[0])
    med = statistics.median
    return rounds, {
        "setup_s": med(setups),
        "wall_s": med(r["wall_s"] for r in rounds),
        "reps_per_s": med(r["scanned"] / r["wall_s"] for r in rounds),
        "verdicts_per_s": med(r["certificates"] / r["wall_s"] for r in rounds),
        "cmd_p50_s": med(x for r in rounds for x in r["latencies"]),
        "cpu_s": med(r["cpu_s"] for r in rounds),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in rounds),
    }


def traced(workload, seed):
    _, t = spawn(workload, seed, 1, "--trace")
    _, u = spawn(workload, seed, 1, "--inproc")
    layers = t["layers"]
    layers["trace.overhead_pct"] = 100.0 * (t["wall_s"] / u["wall_s"] - 1.0)
    return [t, u], layers


def run_one(workload, args, spec):
    """Run one workload; report the metrics BENCHMARK.json declares."""
    if args.trace:
        rounds, values = traced(workload, args.seed)
        declared = spec["per_layer"]
    else:
        rounds, values = end_to_end(workload, args.seed, args.seconds, args.workers)
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    errors = [e for r in rounds for e in r["errors"]]
    for e in errors:
        print(f"{workload}: {e}", file=sys.stderr)
    return {"correct": not errors,
            "attempted": sum(r["attempted"] for r in rounds),
            "failed": sum(r["failed"] for r in rounds),
            "metrics": metrics}, len(rounds)


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workers", type=int, default=len(os.sched_getaffinity(0)),
                    help="engine pool size (default: the cores this process may use)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "mrdcodes" / "__init__.py").is_file():
        print(f"error: no mrdcodes sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    threads = " ".join(f"{v}={os.environ.get(v, 'unset')}" for v in
                       ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    print(f"# seed {args.seed}, workers {args.workers if not args.trace else 1}, "
          f"trace {args.trace}, {threads}")
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        res, n_rounds = run_one(name, args, spec)
        results[name] = res
        kind = "processes (traced, untraced)" if args.trace else "rounds"
        print(f"# {name}: {n_rounds} {kind}, attempted {res['attempted']}, "
              f"failed {res['failed']}, correct {res['correct']}")
        for k, m in res["metrics"].items():
            print(f"#   {k:<32} {m['value']:>14.6g} {m['unit']}")
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {f"{w}.{k}": m for w, r in results.items()
                           for k, m in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
