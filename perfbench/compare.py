#!/usr/bin/env python3
"""Compare saved benchmark runs of two builds, workload by workload.

Save each run's standard output to its own file, then:

    python3 perfbench/compare.py --base base-*.txt --new new-*.txt

For every workload and end-to-end metric it prints the median of each side,
the change and the metric's bound from BENCHMARK.json, and marks a change
worse than the bound. It refuses to compare runs recorded on hosts with a
different CPU count or GOMAXPROCS, and exits 1 if any metric regressed.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    """Return (workload, env, result) from one saved run."""
    with open(path) as f:
        lines = [ln.rstrip("\n") for ln in f if ln.strip()]
    head = lines[0].split()
    if len(head) < 2 or head[0] != "perfbench":
        sys.exit(f"{path}: not a perfbench run")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    if env is None:
        sys.exit(f"{path}: no env line")
    return head[1], env, json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    args = ap.parse_args()
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as f:
        bench = json.load(f)
    defs = {m["name"]: m for m in bench["end_to_end"]}

    runs = {"base": [load(p) for p in args.base], "new": [load(p) for p in args.new]}
    hosts = {(e["nproc"], e["gomaxprocs"]) for side in runs.values() for _, e, _ in side}
    if len(hosts) != 1:
        sys.exit(f"refusing to compare runs from hosts with different CPU counts: {sorted(hosts)}")

    regressed = False
    workloads = sorted({w for side in runs.values() for w, _, _ in side})
    print(f"{'workload':16} {'metric':18} {'base':>12} {'new':>12} {'change':>8} {'bound':>6}")
    for w in workloads:
        for name, d in defs.items():
            med = {}
            for side, rs in runs.items():
                vals = [r["metrics"][name]["value"] for wl, _, r in rs if wl == w and name in r["metrics"]]
                med[side] = statistics.median(vals) if vals else None
            if med["base"] is None or med["new"] is None or med["base"] == 0:
                continue
            change = med["new"] / med["base"] - 1
            worse = change > d["bound"] if d["better"] == "lower" else -change > d["bound"]
            regressed |= worse
            print(f"{w:16} {name:18} {med['base']:12.6g} {med['new']:12.6g} "
                  f"{100 * change:+7.2f}% {d['bound']:6.2f}{'  WORSE' if worse else ''}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
