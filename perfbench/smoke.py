#!/usr/bin/env python3
"""Smoke self-test of the benchmark: a tiny-size run of every workload
of bench.exe, also those BENCHMARK.json does not list.

Checks that
  - every untraced run emits exactly the end-to-end metrics of
    BENCHMARK.json, each with its unit, and reports no failure;
  - every traced run emits exactly the per-layer metrics of
    BENCHMARK.json, each with its unit;
  - every exact counter (the "# exact" line) repeats across two
    back-to-back runs of one seed, and in the traced run.

Run from the root of a checkout (about a minute):

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys

# Workloads bench.exe runs by name that BENCHMARK.json does not list.
UNLISTED = ["sim_hashtable", "check_scaled_delta"]


def run(workload, trace):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True).stdout
    lines = out.strip().splitlines()
    exact = [l for l in lines if l.startswith("# exact ")]
    return json.loads(lines[-1]), exact


def check_metrics(where, got, declared, problems):
    for name, m in got.items():
        if name not in declared:
            problems.append(f"{where}: {name} is not declared in BENCHMARK.json")
        elif m.get("unit") != declared[name]:
            problems.append(f"{where}: {name} has unit {m.get('unit')}, "
                            f"declared {declared[name]}")
        elif not isinstance(m.get("value"), (int, float)):
            problems.append(f"{where}: {name} has no numeric value")


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    problems = []
    for w in [w["name"] for w in bench["workloads"]] + UNLISTED:
        first, exact1 = run(w, 0)
        second, exact2 = run(w, 0)
        traced, exact3 = run(w, 1)
        for label, res in (("untraced", first), ("untraced again", second),
                           ("traced", traced)):
            if not res["correct"] or res["failed"] or res["attempted"] < 1:
                problems.append(f"{w} {label}: correct={res['correct']} "
                                f"failed={res['failed']} attempted={res['attempted']}")
        for label, res in (("untraced", first), ("untraced again", second)):
            check_metrics(f"{w} {label}", res["metrics"], e2e, problems)
            missing = set(e2e) - set(res["metrics"])
            if missing:
                problems.append(f"{w} {label}: missing {sorted(missing)}")
        check_metrics(f"{w} traced", traced["metrics"], layer, problems)
        missing = set(layer) - set(traced["metrics"])
        if missing:
            problems.append(f"{w} traced: missing {sorted(missing)}")
        if not exact1 or exact1 != exact2 or exact1 != exact3:
            problems.append(f"{w}: exact counters differ between runs: "
                            f"{exact1} / {exact2} / {exact3}")
        print(f"{w}: {len(first['metrics'])} end-to-end, "
              f"{len(traced['metrics'])} per-layer metrics; {exact1[0] if exact1 else ''}",
              flush=True)
    for p in problems:
        print("FAIL", p)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
