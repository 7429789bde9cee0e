#!/usr/bin/env python3
"""Compare two sets of benchmark runs (stdlib only).

    python3 perfbench/compare.py OLD.jsonl NEW.jsonl [--benchmark BENCHMARK.json]

Each file holds the JSON lines `run.py --record` appends. For every workload
and metric present on both sides it prints each side's median and quartiles,
the fraction of pairs the new side wins, and a verdict:

  improved    new wins >= 9/10 of the pairs and the medians differ by more
              than the old side's interquartile range
  regressed   end-to-end metric whose new median is worse than the old one by
              more than the metric's bound in BENCHMARK.json
  unresolved  end-to-end metric whose run-to-run spread on either side is
              wider than its bound, unless every new run beats every old one
  within      none of the above (for end-to-end metrics: within the bound)

Runs pair up by seed when both sides ran the same seeds, else in file order.
Per-layer metrics (traced runs) have no bound, so they are never "regressed"
or "unresolved". The exit code is 1 when any end-to-end pairing regressed.
"""

import argparse
import collections
import json
import os
import statistics
import sys


def load(path):
    """{(workload, traced, metric): {seed: value}} plus units."""
    values = collections.defaultdict(dict)
    units = {}
    with open(path) as f:
        for line in f:
            if not line.strip():
                continue
            run = json.loads(line)
            for name, m in run["result"]["metrics"].items():
                key = (run["workload"], run["trace"], name)
                values[key][run["seed"]] = m["value"]
                units[name] = m["unit"]
    return values, units


def quartiles(v):
    if len(v) == 1:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], q[1], q[2]


def pairs(old, new):
    common = sorted(set(old) & set(new))
    if len(common) >= min(len(old), len(new)) and common:
        return [(old[s], new[s]) for s in common]
    return list(zip(old.values(), new.values()))


def verdict(old, new, higher_better, bound):
    ov, nv = list(old.values()), list(new.values())
    oq1, omed, oq3 = quartiles(ov)
    nq1, nmed, nq3 = quartiles(nv)
    better = (lambda a, b: b > a) if higher_better else (lambda a, b: b < a)
    ps = pairs(old, new)
    wins = sum(1 for o, n in ps if better(o, n))
    win_frac = wins / len(ps) if ps else 0.0
    if win_frac >= 0.9 and abs(nmed - omed) > (oq3 - oq1) and better(omed, nmed):
        return "improved", omed, (oq1, oq3), nmed, (nq1, nq3), win_frac
    if bound is not None and omed != 0:
        worse = (omed - nmed) / abs(omed) if higher_better else (nmed - omed) / abs(omed)
        spread = max((oq3 - oq1) / abs(omed), (nq3 - nq1) / abs(nmed) if nmed else 0.0)
        all_better = all(better(o, n) for o in ov for n in nv)
        if worse > bound:
            return "regressed", omed, (oq1, oq3), nmed, (nq1, nq3), win_frac
        if spread > bound and not all_better:
            return "unresolved", omed, (oq1, oq3), nmed, (nq1, nq3), win_frac
    return "within", omed, (oq1, oq3), nmed, (nq1, nq3), win_frac


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--benchmark", default=os.path.join(os.path.dirname(here), "BENCHMARK.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    old, units = load(args.old)
    new, _ = load(args.new)

    def cell(med, q1, q3):
        return f"{med:.5g} [{q1:.5g}, {q3:.5g}]"

    regressed = 0
    print(f"{'workload':12} {'metric':30} {'unit':8} {'old median [q1, q3]':32} "
          f"{'new median [q1, q3]':32} {'wins':>5}  verdict")
    for key in sorted(set(old) & set(new)):
        workload, _, name = key
        spec = e2e.get(name) or layer.get(name)
        if spec is None:
            continue
        bound = e2e[name]["bound"] if name in e2e else None
        v, om, (oq1, oq3), nm, (nq1, nq3), wf = verdict(
            old[key], new[key], spec["better"] == "higher", bound)
        regressed += v == "regressed"
        print(f"{workload:12} {name:30} {units.get(name, ''):8} {cell(om, oq1, oq3):32} "
              f"{cell(nm, nq1, nq3):32} {wf:5.2f}  {v}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main())
