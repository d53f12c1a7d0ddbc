#!/usr/bin/env python3
"""Steadiness check: run each workload repeatedly, each run with its own
seed, and print every end-to-end metric's median and quartile spread
against its bound from BENCHMARK.json, plus the failed share.

    python3 perfbench/steady.py --workload conv --runs 5
    python3 perfbench/steady.py --runs 10 --sets 2     # all workloads

With --sets 2 the runs are repeated as a second set and the second
median's change against the first is printed too.  Exit status 1 when a
spread exceeds its bound, a median moves by more than its bound between
sets, or the failed shares differ.  Seeds count up from 101.
"""

import argparse
import json
import os
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FIRST_SEED = 101


def one_set(spec, workload, seeds):
    rows = []
    for seed in seeds:
        cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                 "--seconds", str(spec["run_seconds"]),
                                 "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        if done.returncode != 0:
            raise SystemExit(f"steady: {workload} seed {seed} exited "
                             f"{done.returncode}")
        rows.append(json.loads(done.stdout.strip().splitlines()[-1]))
        print(f"  seed {seed}: " + ", ".join(
            f"{k}={v['value']:.4g}" for k, v in rows[-1]["metrics"].items()),
            flush=True)
    return rows


def summarize(spec, workload, sets):
    ok = True
    print(f"{workload}:")
    shares = [{r["failed"] / r["attempted"] for r in rows} for rows in sets]
    print(f"  failed shares: {[sorted(s) for s in shares]}")
    if any(len(s) != 1 for s in shares) or len(set.union(*shares)) != 1:
        ok = False
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for i, rows in enumerate(sets):
            values = [r["metrics"][name]["value"] for r in rows]
            spread = benchlib.quartile_spread(values)
            medians.append(benchlib.median(values))
            within = spread <= bound
            ok &= within
            print(f"  {name:16s} set {i + 1}: median {medians[-1]:.4g} "
                  f"spread {spread:.3f} (bound {bound}, a third "
                  f"{bound / 3:.3f}){'' if within else '  OVER'}")
        if len(medians) == 2:
            worse = benchlib.worse_by(medians[0], medians[1],
                                      metric["better"])
            ok &= worse <= bound
            print(f"  {name:16s} second median worse by {worse:+.3f}")
    return ok


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", action="append", choices=names)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    args = ap.parse_args()
    ok = True
    for workload in args.workload or names:
        sets = []
        for s in range(args.sets):
            first = FIRST_SEED + s * args.runs
            sets.append(one_set(spec, workload,
                                range(first, first + args.runs)))
        ok &= summarize(spec, workload, sets)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
