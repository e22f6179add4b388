#!/usr/bin/env python3
"""Compares two sets of benchmark runs (parent and change).

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each input holds records written by perfbench/run.py (one JSON object per
line, as appended to .bench_build/results.jsonl); untraced runs only are
compared. For every workload and every end-to-end metric in
BENCHMARK.json it prints one row: each side's median and quartiles
(statistics.quantiles(values, n=4)), the change's median relative to the
parent's, and a verdict:

  better      the change wins at least 9 of 10 seed-paired runs and the
              medians differ by more than the parent's quartile spread
  worse       the change's median is worse than the parent's by more
              than the metric's bound
  unresolved  the parent's own spread (quartile distance over median)
              is wider than the bound, unless every change run reads
              better than every parent run
  same        none of the above: within the bound

The exit code is 1 when any row is worse, else 0.
"""

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_runs(lines):
    """{workload: {metric: {seed: value}}} from results-file lines."""
    runs = defaultdict(lambda: defaultdict(dict))
    for line in lines:
        line = line.strip()
        if not line:
            continue
        rec = json.loads(line)
        if rec.get("trace"):
            continue
        for name, m in rec["result"]["metrics"].items():
            runs[rec["workload"]][name][rec["seed"]] = m["value"]
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    """parent/change: {seed: value}; better: "lower" or "higher"."""
    sign = -1.0 if better == "lower" else 1.0
    p = sorted(parent.values())
    c = sorted(change.values())
    p1, pm, p3 = quartiles(p)
    _, cm, _ = quartiles(c)
    gain = sign * (cm - pm)  # > 0: change reads better
    if pm != 0 and -gain > bound * abs(pm):
        return "worse"
    seeds = sorted(set(parent) & set(change))
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    spread = p3 - p1
    if seeds and wins >= 0.9 * len(seeds) and gain > spread:
        return "better"
    all_better = all(sign * (x - y) > 0 for x in c for y in p)
    if pm != 0 and spread / abs(pm) > bound and not all_better:
        return "unresolved"
    return "same"


def compare(parent, change, metrics):
    rows = []
    for workload in sorted(set(parent) | set(change)):
        for m in metrics:
            name = m["name"]
            pv = parent.get(workload, {}).get(name, {})
            cv = change.get(workload, {}).get(name, {})
            if not pv or not cv:
                rows.append((workload, name, None, None, "missing"))
                continue
            v = verdict(pv, cv, m["better"], m["bound"])
            rows.append((workload, name, quartiles(sorted(pv.values())),
                         quartiles(sorted(cv.values())), v))
    return rows


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--bench", default=str(ROOT / "BENCHMARK.json"))
    a = ap.parse_args()
    with open(a.bench) as f:
        metrics = json.load(f)["end_to_end"]
    with open(a.parent) as p, open(a.change) as c:
        rows = compare(load_runs(p), load_runs(c), metrics)
    print(f"{'workload':<12} {'metric':<12} {'parent q1/med/q3':>32} "
          f"{'change q1/med/q3':>32} {'delta':>8}  verdict")
    for workload, name, pq, cq, v in rows:
        if pq is None:
            print(f"{workload:<12} {name:<12} {'-':>32} {'-':>32} {'-':>8}  {v}")
            continue
        delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
        fmt = lambda q: "/".join(f"{x:.4g}" for x in q)
        print(f"{workload:<12} {name:<12} {fmt(pq):>32} {fmt(cq):>32} "
              f"{delta:>+7.1f}%  {v}")
    return 1 if any(r[4] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
