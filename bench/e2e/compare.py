#!/usr/bin/env python3
"""Compares two sets of benchmark results (see README.md in this directory).

  python3 bench/e2e/compare.py BASE CHANGE
  python3 bench/e2e/compare.py --agree A B

Each set is a directory of results files written by `run.py --seed N`.
Runs are paired in seed order, which is run order when the two sets were
run interleaved.

For every workload x metric it prints both medians and quartiles, the share
of pairs the second set wins, and a verdict:

  improved    the second set wins >= 9/10 of the pairs and the medians
              differ by more than the first set's interquartile range
  regressed   the second median is worse than the first by more than the
              metric's bound, and both spreads are inside the bound or
              every run of the second set is worse than every run of the
              first (for metrics without a bound: it loses >= 9/10 of the
              pairs by more than the first set's interquartile range)
  unresolved  a set's spread (IQR / median) is wider than the bound, and
              not every run of one set beats every run of the other
  unchanged   otherwise

Bounds and better-directions come from BENCHMARK.json. Metrics it does not
list (the workload-specific ones) have no direction: their verdict says
whether the second set reads `lower` or `higher` by the same rule.

--agree checks two sets from the same commit instead: each median within
the bound of the other, and each set's spread inside the bound; it exits
non-zero if any workload x metric with a bound disagrees.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent


def load_set(directory):
    runs = []
    for p in sorted(Path(directory).glob("*.json")):
        doc = json.loads(p.read_text())
        if "workloads" not in doc:
            sys.exit("compare.py: %s is not a run.py results file" % p)
        runs.append(doc)
    if not runs:
        sys.exit("compare.py: no results in %s" % directory)
    runs.sort(key=lambda d: (d.get("seed", 0), d.get("time", 0)))
    return runs


def values(runs, workload, metric):
    out = []
    for r in runs:
        m = r["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None and m.get("value") is not None:
            out.append(float(m["value"]))
    return out


def quartiles(vs):
    if len(vs) < 2:
        return vs[0], vs[0], vs[0]
    q = statistics.quantiles(vs, n=4)
    return q[0], statistics.median(vs), q[2]


def spread(vs):
    q1, med, q3 = quartiles(vs)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(a, b, lower_is_better, bound):
    """Returns (verdict, share of pairs the second set wins)."""
    def better(x, y):  # x better than y
        return x < y if lower_is_better else x > y
    pairs = list(zip(a, b))
    wins = sum(better(y, x) for x, y in pairs)
    losses = sum(better(x, y) for x, y in pairs)
    share = wins / len(pairs) if pairs else 0.0
    q1a, meda, q3a = quartiles(a)
    medb = quartiles(b)[1]
    diff = medb - meda
    separated = abs(diff) > (q3a - q1a)
    all_better = all(better(y, x) for x in a for y in b)
    all_worse = all(better(x, y) for x in a for y in b)
    if share >= 0.9 and separated and better(medb, meda):
        return "improved", share
    if bound is not None:
        worse_by = (diff if lower_is_better else -diff) / abs(meda) if meda else 0.0
        noisy = max(spread(a), spread(b)) > bound
        if worse_by > bound and (all_worse or not noisy):
            return "regressed", share
        if noisy and not (all_better or all_worse):
            return "unresolved", share
    elif pairs and losses / len(pairs) >= 0.9 and separated:
        return "regressed", share
    return "unchanged", share


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("first")
    ap.add_argument("second")
    ap.add_argument("--agree", action="store_true",
                    help="the two sets come from the same commit")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    a, b = load_set(args.first), load_set(args.second)
    listed = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    workloads = [w["name"] for w in spec["workloads"]]

    print("%-16s %-34s %12s %25s %12s %25s %6s  %s" % (
        "workload", "metric", "median A", "quartiles A", "median B",
        "quartiles B", "wins", "verdict"))
    bad = 0
    for w in workloads:
        names = [n for n in a[0]["workloads"].get(w, {}).get("metrics", {})
                 if n in b[0]["workloads"].get(w, {}).get("metrics", {})]
        names.sort(key=lambda n: (n not in listed, n))
        for name in names:
            va, vb = values(a, w, name), values(b, w, name)
            if not va or not vb:
                continue
            m = listed.get(name)
            bound = m.get("bound") if m else None
            lower = m is None or m["better"] == "lower"
            qa, qb = quartiles(va), quartiles(vb)
            if args.agree:
                med_gap = abs(qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
                ok = bound is None or (
                    med_gap <= bound and max(spread(va), spread(vb)) <= bound)
                result = ("agree" if bound is not None else "-") if ok else \
                    "DISAGREE (gap %.3f, spreads %.3f/%.3f)" % (
                        med_gap, spread(va), spread(vb))
                bad += not ok
                share = verdict(va, vb, lower, bound)[1]
            else:
                result, share = verdict(va, vb, lower, bound)
                if m is None:  # no direction: say which way it moved
                    result = {"improved": "lower", "regressed": "higher"}.get(
                        result, result)
                bad += result == "regressed"
            print("%-16s %-34s %12.5g %12.5g-%-12.5g %12.5g %12.5g-%-12.5g %5.0f%%  %s" % (
                w, name, qa[1], qa[0], qa[2], qb[1], qb[0], qb[2],
                100 * share, result))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
