#!/usr/bin/env python3
"""Compare two sets of dgr_bench JSON reports against BENCHMARK.json.

    python3 dgr_bench/compare.py --base A1.json A2.json ... --new B1.json ...

Each report is one `dgr_bench --json` file (run.py leaves one per run in
its build directory as result-<workload>-seed<N>-trace<T>.json). For every
workload x metric the tool prints each set's median and quartiles and a
verdict:

  identical     both sets hold the same values (exact counters over the
                same seeds)
  within bound  the new median is no worse than the base median by more
                than the metric's bound
  regression    the new median is worse by more than the bound
  improved      the new median is better by more than the base set's own
                spread (Q3-Q1) and the new run wins >= 90% of the pairs
                (run i of one set against run i of the other)
  unresolved    a set's spread ((Q3-Q1)/median) exceeds the bound, so the
                comparison cannot be decided — unless every new run reads
                better than every base run, which is reported as improved
  info          a per-layer metric (no bound)

It refuses (exit 2) to compare reports whose `cores`, per-workload
`threads`, `seconds` or traced stamps differ. Exit 1 when any metric
regresses, 0 otherwise. Python 3 standard library only.
"""
import argparse
import json
import os
import statistics
import sys
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths):
    """-> ({(workload, metric): [values]}, {stamp: value}, {metric: unit})"""
    values = defaultdict(list)
    units = {}
    stamps = {}
    for path in paths:
        with open(path) as f:
            report = json.load(f)
        for key in ("cores", "seconds", "traced"):
            stamps.setdefault(key, set()).add(report[key])
        for w in report["workloads"]:
            stamps.setdefault(("threads", w["name"]), set()).add(w["threads"])
            for name, m in w["metrics"].items():
                values[(w["name"], name)].append(m["value"])
                units[name] = m["unit"]
    return values, stamps, units


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q1, med, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def spread(v):
    q1, med, q3 = quartiles(v)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(base, new, bound, lower_is_better):
    if sorted(base) == sorted(new):
        return "identical"
    if bound is None:
        return "info"
    sign = 1 if lower_is_better else -1
    b_med, n_med = statistics.median(base), statistics.median(new)
    if spread(base) > bound or spread(new) > bound:
        if all(sign * (n - b) < 0 for n in new for b in base):
            return "improved"
        return "unresolved"
    worse = sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if worse > bound:
        return "regression"
    q1, _, q3 = quartiles(base)
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if sign * (b_med - n_med) > q3 - q1 and pairs and wins >= 0.9 * len(pairs):
        return "improved"
    return "within bound"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", nargs="+", required=True)
    ap.add_argument("--new", nargs="+", required=True)
    ap.add_argument("--benchmark", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        spec = json.load(f)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    base, base_stamps, units = load(args.base)
    new, new_stamps, new_units = load(args.new)
    units.update(new_units)

    for key in sorted(set(base_stamps) | set(new_stamps), key=str):
        a, b = base_stamps.get(key, set()), new_stamps.get(key, set())
        if a and b and (len(a | b) > 1):
            print(f"compare.py: refusing: stamp {key} differs "
                  f"(base {sorted(a)}, new {sorted(b)})", file=sys.stderr)
            return 2

    regressions = 0
    print(f"{'workload':18s} {'metric':34s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, metric = key
        spec_m = bounds.get(metric)
        v = verdict(base[key], new[key],
                    spec_m["bound"] if spec_m else None,
                    spec_m["better"] == "lower" if spec_m else True)
        regressions += v == "regression"
        cols = []
        for vals in (base[key], new[key]):
            q1, med, q3 = quartiles(vals)
            cols.append(f"{med:.6g} [{q1:.6g}, {q3:.6g}] n={len(vals)}")
        print(f"{workload:18s} {metric:34s} {cols[0]:>36s} {cols[1]:>36s}  "
              f"{v} ({units.get(metric, '')})")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
