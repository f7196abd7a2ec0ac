#!/usr/bin/env python3
"""Compare two sets of perfbench records, one row per workload x metric.

Usage:

    python3 perfbench/compare.py BASE NEW [--benchmark BENCHMARK.json]
                                          [--per-layer]

BASE and NEW are each a directory of record files (as perfbench/run.py
writes them) or a single record file. Untraced records (trace 0) are
compared on every end-to-end metric of BENCHMARK.json; with --per-layer
the medians of the traced records' per-layer metrics are listed too,
without a verdict (per-layer metrics have no bound).

For each row the script prints both sides' median and quartiles, the
change of the median, the seed-paired wins, and a verdict:

  better      NEW wins at least 9 of every 10 seed pairs (ties count for
              neither side), at least 10 pairs were run, and the medians
              differ by more than BASE's own quartile distance;
  worse       NEW's median is worse than BASE's by more than the bound;
  unresolved  either side's quartile distance exceeds the bound (as a
              share of its median), unless every NEW run reads better
              than every BASE run;
  unchanged   otherwise.

Records must come from one host and one BNN ISA (the CPU model, machine
and CPU count, and tensor::bnnActiveIsa, pinned in every record), and
each workload must have run with the same parameters on both sides;
otherwise the script refuses to compare and exits 2. It exits 1 when any
row is "worse" and 0 otherwise. Standard library only.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load(path):
    files = (sorted(glob.glob(os.path.join(path, "*.json")))
             if os.path.isdir(path) else [path])
    records = []
    for name in files:
        with open(name, encoding="utf-8") as f:
            record = json.load(f)
        record["_file"] = name
        records.append(record)
    if not records:
        sys.exit(f"compare.py: no records in {path}")
    return records


def host_key(record):
    host = record.get("run", {}).get("host", {})
    return (host.get("cpu"), host.get("machine"), host.get("nproc"),
            record["env"]["bnn_isa"])


def refuse(message):
    print(f"compare.py: refusing to compare: {message}", file=sys.stderr)
    sys.exit(2)


def check_comparable(base, new):
    keys = {host_key(r) for r in base + new}
    if len(keys) > 1:
        lines = "\n  ".join(f"cpu={k[0]!r} machine={k[1]} nproc={k[2]} "
                            f"bnn_isa={k[3]}" for k in sorted(keys, key=str))
        refuse(f"records come from different hosts or ISAs:\n  {lines}")
    for workload in {r["workload"] for r in base + new}:
        params = {json.dumps(r["params"], sort_keys=True)
                  for r in base + new
                  if r["workload"] == workload and r["trace"] == 0}
        if len(params) > 1:
            refuse(f"{workload} ran with different parameters on the two "
                   f"sides: {sorted(params)}")


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def by_seed(records, workload, metric):
    out = {}
    for r in sorted(records, key=lambda r: r.get("run", {})
                    .get("started_unix", 0)):
        if r["workload"] == workload and r["trace"] == 0:
            out.setdefault(r["seed"], []).append(
                r["metrics"][metric]["value"])
    return out


def verdict(a, b, pairs, better, bound):
    """Return (verdict, wins, pair count) for value lists a (BASE), b."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, ma, q3a = quartiles(a)
    q1b, mb, q3b = quartiles(b)
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    gain = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
            and sign * (mb - ma) > (q3a - q1a))
    if gain:
        return "better", wins
    spread_a = (q3a - q1a) / abs(ma) if ma else float("inf")
    spread_b = (q3b - q1b) / abs(mb) if mb else float("inf")
    all_better = (min(b) > max(a)) if sign > 0 else (max(b) < min(a))
    if spread_a > bound or spread_b > bound:
        return ("unchanged" if all_better else "unresolved"), wins
    if ma and sign * (mb - ma) / abs(ma) < -bound:
        return "worse", wins
    return "unchanged", wins


def main():
    parser = argparse.ArgumentParser(
        description="Compare two sets of perfbench records.")
    parser.add_argument("base")
    parser.add_argument("new")
    parser.add_argument("--benchmark",
                        default=os.path.join(os.path.dirname(HERE),
                                             "BENCHMARK.json"))
    parser.add_argument("--per-layer", action="store_true")
    args = parser.parse_args()

    with open(args.benchmark, encoding="utf-8") as f:
        bench = json.load(f)
    base, new = load(args.base), load(args.new)
    check_comparable(base, new)

    fmt = "{:<11} {:<17} {:>5}  {:>27}  {:>27}  {:>8}  {:>6}  {}"
    print(fmt.format("workload", "metric", "unit", "base med [q1, q3]",
                     "new med [q1, q3]", "change", "wins", "verdict"))
    any_worse = False
    for workload in [w["name"] for w in bench["workloads"]]:
        for m in bench["end_to_end"]:
            a_seed = by_seed(base, workload, m["name"])
            b_seed = by_seed(new, workload, m["name"])
            a = [v for vs in a_seed.values() for v in vs]
            b = [v for vs in b_seed.values() for v in vs]
            if not a or not b:
                continue
            pairs = [(x, y) for seed in sorted(set(a_seed) & set(b_seed))
                     for x, y in zip(a_seed[seed], b_seed[seed])]
            result, wins = verdict(a, b, pairs, m["better"], m["bound"])
            any_worse |= result == "worse"
            q1a, ma, q3a = quartiles(a)
            q1b, mb, q3b = quartiles(b)
            change = f"{100.0 * (mb - ma) / ma:+.1f}%" if ma else "n/a"
            print(fmt.format(
                workload, m["name"], m["unit"],
                f"{ma:.4g} [{q1a:.4g}, {q3a:.4g}] n={len(a)}",
                f"{mb:.4g} [{q1b:.4g}, {q3b:.4g}] n={len(b)}",
                change, f"{wins}/{len(pairs)}", result))

    if args.per_layer:
        print()
        for workload in [w["name"] for w in bench["workloads"]]:
            for m in bench["per_layer"]:
                sides = []
                for records in (base, new):
                    values = [r["metrics"][m["name"]]["value"]
                              for r in records
                              if r["workload"] == workload
                              and r["trace"] == 1
                              and m["name"] in r["metrics"]]
                    sides.append(f"{statistics.median(values):.4g} "
                                 f"n={len(values)}" if values else "-")
                print(f"{workload:<11} {m['name']:<32} {m['unit']:>7}  "
                      f"base {sides[0]:>16}  new {sides[1]:>16}")
    return 1 if any_worse else 0


if __name__ == "__main__":
    sys.exit(main())
