#!/usr/bin/env python3
"""Measure how steady the benchmark's end-to-end metrics are.

Runs the untraced benchmark once per seed and set on each named
workload, the sets interleaved seed by seed (seed 1 of every set, then
seed 2, ...) so that host drift hits every set alike. Prints, per set
and metric, the median of the values and their spread: the distance
between the first and third quartile (statistics.quantiles(values,
n=4)) as a share of the median. Each spread should stay below a third
of the metric's bound in BENCHMARK.json, and each set's median should
be no worse than the first set's by more than the bound. Exits with 1
if either fails, or if a run is incorrect, fails an item, or gives
another exact-counter fingerprint than the same seed did in the first
set. Run from the root of a checkout:

    python3 perfbench/spread.py --seeds 1-10 --sets 2 sim_hashtable check_random
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds_of(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds):
    cmd = ["python3", "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    fp = [l for l in lines if l.startswith("# fingerprint")]
    return json.loads(lines[-1]), fp


def spread(values):
    med = statistics.median(values)
    q = statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3
    return med, (q[2] - q[0]) / med


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser()
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    a = ap.parse_args()
    steady = True
    for w in a.workloads:
        values = [{} for _ in range(a.sets)]
        prints = {}
        for seed in seeds_of(a.seeds):
            for k in range(a.sets):
                res, fp = run(w, seed, a.seconds)
                same = prints.setdefault(seed, fp) == fp
                if not res["correct"] or res["failed"] or not same:
                    steady = False
                print(f"{w} set={k + 1} seed={seed} correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} "
                      f"{' '.join(fp)}{'' if same else ' FINGERPRINT DIFFERS'}",
                      flush=True)
                for name, m in res["metrics"].items():
                    values[k].setdefault(name, []).append(m["value"])
        for name, m in metrics.items():
            base = None
            for k in range(a.sets):
                med, share = spread(values[k][name])
                ok = share < m["bound"] / 3
                line = (f"  set {k + 1} {name:16s} median={med:<12.6g} "
                        f"spread={share:.4f} bound={m['bound']} "
                        f"{'ok' if ok else 'SPREAD ABOVE BOUND/3'}")
                if base is None:
                    base = med
                else:
                    ratio = med / base
                    worse = ratio - 1 if m["better"] == "lower" else 1 / ratio - 1
                    ok = ok and worse <= m["bound"]
                    line += (f" ratio={ratio:.4f} "
                             f"{'ok' if worse <= m['bound'] else 'WORSE THAN BOUND'}")
                steady = steady and ok
                print(line, flush=True)
                print("    " + " ".join(f"{v:.4g}" for v in values[k][name]), flush=True)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
