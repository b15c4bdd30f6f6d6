"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect DIR [--seeds 1-10] [--workload NAME ...]
        runs perfbench/run.py in this checkout once per workload and seed
        and keeps each run's standard output as DIR/<workload>.<seed>.out

    python3 perfbench/compare.py pair BASE_TREE NEW_TREE DIR [--seeds 1-10]
                                 [--workload NAME ...]
        copies this checkout's perfbench/ and BENCHMARK.json into both trees
        (each a copy of one commit's files, say from `git archive`), then for
        each workload and seed runs the benchmark in BASE_TREE and in
        NEW_TREE, one right after the other, alternating which goes first,
        so that the machine's drift reaches both sides of a pair alike; the
        runs go to DIR/base/ and DIR/new/

    python3 perfbench/compare.py SET
        for every workload and end-to-end metric: quartiles, and the
        quartile spread as a share of the median next to the metric's
        bound; exits 1 if any spread is wider than its bound

    python3 perfbench/compare.py BASE NEW
        for every workload and end-to-end metric in BENCHMARK.json: the
        median and quartiles of each set, the share of pairs that NEW wins,
        and one verdict.  Runs are paired by seed (in seed order when the
        two sets used different seeds); pairs made by `pair` ran side by
        side, so their order cancels drift.

        improved      NEW wins at least 9 of 10 pairs (ties count for neither)
                      and the medians differ by more than BASE's quartile
                      spread, in the better direction;
        unresolved    the quartile spread of either set, as a share of its
                      median, is wider than the metric's bound, and not
                      every NEW run reads better than every BASE run;
        worse         NEW's median is worse than BASE's by more than the bound;
        within bound  otherwise.

        It also prints attempted and failed operations side by side, and
        exits 1 if any verdict is worse.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_set(d: Path) -> dict:
    """{workload: {seed: result}} from DIR/<workload>.<seed>.out files."""
    out = {}
    for f in sorted(d.glob("*.out")):
        workload, seed = f.stem.split(".", 1)
        lines = f.read_text().strip().splitlines()
        if lines:
            out.setdefault(workload, {})[seed] = json.loads(lines[-1])
    return out


def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(base, new, better, bound, wins, pairs):
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1 if better == "higher" else -1
    all_better = (min(new) > max(base)) if sign > 0 else (max(new) < min(base))
    spread = max((bq3 - bq1) / abs(bmed), (nq3 - nq1) / abs(nmed))
    if pairs and wins >= 0.9 * pairs and sign * (nmed - bmed) > bq3 - bq1:
        return "improved"
    if spread > bound and not all_better:
        return "unresolved"
    if sign * (nmed - bmed) < -bound * abs(bmed):
        return "worse"
    return "within bound"


def spreads(set_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wide = 0
    for w, runs in sorted(load_set(set_dir).items()):
        print(f"{w}: runs {len(runs)}, attempted {sum(r['attempted'] for r in runs.values())}, "
              f"failed {sum(r['failed'] for r in runs.values())}, "
              f"correct {all(r['correct'] for r in runs.values())}")
        for m in spec["end_to_end"]:
            xs = [r["metrics"][m["name"]]["value"] for r in runs.values()
                  if m["name"] in r["metrics"]]
            if not xs:
                continue
            q1, med, q3 = quartiles(xs)
            share = (q3 - q1) / abs(med)
            wide += share > m["bound"]
            print(f"  {m['name']:<16} {q1:>12.5g} {med:>12.5g} {q3:>12.5g}"
                  f"  spread {share:6.3f}  bound {m['bound']}")
    return 1 if wide else 0


def compare(base_dir: Path, new_dir: Path) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = load_set(base_dir), load_set(new_dir)
    worse = 0
    for w in sorted(set(base) | set(new)):
        b, n = base.get(w, {}), new.get(w, {})
        ba = sum(r["attempted"] for r in b.values())
        bf = sum(r["failed"] for r in b.values())
        na = sum(r["attempted"] for r in n.values())
        nf = sum(r["failed"] for r in n.values())
        print(f"{w}: runs {len(b)} / {len(n)}, attempted {ba} / {na}, failed {bf} / {nf}")
        if not b or not n:
            continue
        print(f"  {'metric':<16} {'base q1 / median / q3':>36} {'new q1 / median / q3':>36}"
              f" {'wins':>7}  verdict")
        for m in spec["end_to_end"]:
            name = m["name"]
            if not all(name in r["metrics"] for r in list(b.values()) + list(n.values())):
                continue
            bv = [r["metrics"][name]["value"] for r in b.values()]
            nv = [r["metrics"][name]["value"] for r in n.values()]
            pairs = ([(k, k) for k in sorted(b, key=int)] if b.keys() == n.keys()
                     else list(zip(sorted(b, key=int), sorted(n, key=int))))
            sign = 1 if m["better"] == "higher" else -1
            wins = sum(1 for sb, sn in pairs
                       if sign * (n[sn]["metrics"][name]["value"]
                                  - b[sb]["metrics"][name]["value"]) > 0)
            v = verdict(bv, nv, m["better"], m["bound"], wins, len(pairs))
            worse += v == "worse"
            fmt = lambda q: " / ".join(f"{x:.4g}" for x in q)  # noqa: E731
            print(f"  {name:<16} {fmt(quartiles(bv)):>36} {fmt(quartiles(nv)):>36}"
                  f" {wins:>3}/{len(pairs):<3}  {v}")
    return 1 if worse else 0


def run_into(tree: Path, out_dir: Path, spec, workload, seed) -> int:
    """One run of the benchmark in `tree`; its output goes to out_dir."""
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"])]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{workload}.{seed}.out").write_text(proc.stdout)
    last = proc.stdout.strip().splitlines()[-1:] or ["(no output)"]
    print(f"{out_dir.name}/{workload} seed {seed}: exit {proc.returncode} {last[0][:150]}",
          flush=True)
    return proc.returncode


def collect(sides: dict, seeds, workloads) -> int:
    """Run every workload once per seed on each side, {out dir: tree}; with
    two sides, each seed's pair runs back to back, in alternating order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = workloads or [w["name"] for w in spec["workloads"]]
    status = 0
    for w in names:
        for i, seed in enumerate(seeds):
            order = list(sides.items())
            if i % 2:
                order.reverse()
            for d, tree in order:
                status |= run_into(tree, d, spec, w, seed)
    return status


def install_bench(tree: Path) -> None:
    """Copy this checkout's benchmark into `tree`, so both sides run the
    same benchmark code."""
    if tree.resolve() == ROOT:
        return
    shutil.copytree(HERE, tree / HERE.name, dirs_exist_ok=True,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] in (["collect"], ["pair"]):
        ap = argparse.ArgumentParser(prog=f"compare.py {argv[0]}")
        if argv[0] == "pair":
            ap.add_argument("base_tree", type=Path)
            ap.add_argument("new_tree", type=Path)
        ap.add_argument("out_dir", type=Path)
        ap.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
        ap.add_argument("--workload", action="append")
        a = ap.parse_args(argv[1:])
        if argv[0] == "collect":
            return collect({a.out_dir: ROOT}, a.seeds, a.workload)
        for tree in (a.base_tree, a.new_tree):
            install_bench(tree)
        return collect({a.out_dir / "base": a.base_tree, a.out_dir / "new": a.new_tree},
                       a.seeds, a.workload)
    ap = argparse.ArgumentParser(prog="compare.py",
                                 description="compare two sets of benchmark runs")
    ap.add_argument("base", type=Path)
    ap.add_argument("new", type=Path, nargs="?")
    a = ap.parse_args(argv)
    return compare(a.base, a.new) if a.new else spreads(a.base)


if __name__ == "__main__":
    sys.exit(main())
