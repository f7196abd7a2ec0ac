#!/usr/bin/env python3
"""Smoke self-test of the benchmark: schema, metric names, compare.py.

Usage (from the repository root):

    python3 perfbench/selftest.py           # everything, a few minutes
    python3 perfbench/selftest.py --static  # no benchmark runs

Checks that BENCHMARK.json keeps the benchmark contract (keys, name and
unit rules, bounds, setup_s); runs every workload for one second
untraced and traced through run.py and checks the result line and the
written record (keys, types, and that the metric names and units are
exactly BENCHMARK.json's end-to-end / per-layer lists); and checks
compare.py's verdicts and its refusal of records from another ISA on
synthetic records. Scratch files go to .bench_build/perfbench/selftest.
Exits 0 when every check passes, 1 otherwise.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".bench_build", "perfbench", "selftest")
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

failures = []


def check(condition, message):
    if not condition:
        failures.append(message)
        print(f"FAIL: {message}")
    return condition


def check_benchmark(bench, raw_size):
    check(raw_size <= 64 * 1024, "BENCHMARK.json larger than 64 KiB")
    check(set(bench) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"},
          f"BENCHMARK.json keys: {sorted(bench)}")
    command, paths = bench.get("command", []), bench.get("paths", [])
    check(1 <= len(paths) <= 16, "paths: 1 to 16 entries")
    for path in paths:
        check(PATH.match(path) and not path.startswith("/")
              and ".." not in path.split("/")
              and os.path.isdir(os.path.join(ROOT, path)),
              f"path {path!r}")
    check(1 <= len(command) <= 32, "command: 1 to 32 strings")
    for arg in command:
        check(isinstance(arg, str) and len(arg) <= 200, f"command {arg!r}")
        check(not arg.startswith("/") and ".." not in arg.split("/"),
              f"command {arg!r} leaves the checkout")
        if os.path.exists(os.path.join(ROOT, arg)):
            check(any(arg == p or arg.startswith(p.rstrip("/") + "/")
                      for p in paths), f"command names {arg!r} outside paths")
    check(isinstance(bench.get("run_seconds"), int)
          and 1 <= bench["run_seconds"] <= 60, "run_seconds: 1 to 60")
    workloads = bench.get("workloads", [])
    check(2 <= len(workloads) <= 8, "workloads: 2 to 8")
    for w in workloads:
        check(set(w) == {"name", "why"}, f"workload keys {sorted(w)}")
        check(NAME.match(w.get("name", "")), f"workload name {w.get('name')}")
        why = w.get("why", "")
        check(0 < len(why) <= 200 and "\n" not in why,
              f"workload {w.get('name')}: why must be one line <= 200")
    e2e, layer = bench.get("end_to_end", []), bench.get("per_layer", [])
    check(1 <= len(e2e) <= 16, "end_to_end: 1 to 16 metrics")
    check(1 <= len(layer) <= 128, "per_layer: 1 to 128 metrics")
    for m in e2e:
        check(set(m) == {"name", "unit", "better", "bound"},
              f"end_to_end keys {sorted(m)}")
        check(isinstance(m.get("bound"), (int, float))
              and 0 < m["bound"] <= 0.25, f"{m.get('name')}: bound")
    for m in layer:
        check(set(m) == {"name", "unit", "better"},
              f"per_layer keys {sorted(m)}")
    for m in e2e + layer:
        check(NAME.match(m.get("name", "")), f"metric name {m.get('name')}")
        check(UNIT.match(m.get("unit", "")), f"{m.get('name')}: unit")
        check(m.get("better") in ("higher", "lower"),
              f"{m.get('name')}: better")
    names = [m.get("name") for m in e2e + layer]
    check(len(names) == len(set(names)), "metric names used twice")
    check(len({w.get("name") for w in workloads}) == len(workloads),
          "workload names used twice")
    setup = [m for m in e2e if m.get("name") == "setup_s"]
    check(len(setup) == 1 and setup[0]["unit"] == "s"
          and setup[0]["better"] == "lower"
          and setup[0]["bound"] == max(m["bound"] for m in e2e),
          "setup_s: unit s, lower, the largest bound")


def check_result(line, expected, label):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return check(False, f"{label}: last line is not JSON")
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{label}: result keys {sorted(result)}")
    check(result.get("correct") is True, f"{label}: correct is not true")
    for key in ("attempted", "failed"):
        check(isinstance(result.get(key), int)
              and not isinstance(result.get(key), bool),
              f"{label}: {key} is not a whole number")
    check(result.get("attempted", 0) >= 1, f"{label}: attempted < 1")
    metrics = result.get("metrics", {})
    check(set(metrics) == set(expected),
          f"{label}: metric names differ from BENCHMARK.json: "
          f"missing {sorted(set(expected) - set(metrics))}, "
          f"extra {sorted(set(metrics) - set(expected))}")
    for name, metric in metrics.items():
        check(set(metric) == {"value", "unit"}
              and isinstance(metric["value"], (int, float))
              and metric["unit"] == expected.get(name),
              f"{label}: metric {name} {metric}")
    return True


def check_record(path, label):
    with open(path, encoding="utf-8") as f:
        record = json.load(f)
    for key in ("workload", "seed", "seconds", "trace", "correct",
                "attempted", "failed", "mismatches", "env", "params",
                "counts", "metrics", "unbounded_metrics", "run"):
        check(key in record, f"{label}: record lacks {key}")
    for key in ("compiler", "march", "build_type", "bnn_isa",
                "bnn_best_isa", "nproc", "threads"):
        check(key in record.get("env", {}), f"{label}: env lacks {key}")
    run = record.get("run", {})
    for key in ("git_sha", "source_digest", "host", "started_unix"):
        check(key in run, f"{label}: run lacks {key}")
    for key in ("cpu", "machine", "nproc"):
        check(key in run.get("host", {}), f"{label}: host lacks {key}")
    check(all(isinstance(v, str) for v in record.get("params", {}).values()),
          f"{label}: params must be strings")


def run_workloads(bench):
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    records = os.path.join(SCRATCH, "records")
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, expected in ((0, e2e), (1, layer)):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                bench["command"] + ["--workload", workload, "--seed", "7",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--record-dir", records],
                cwd=ROOT, capture_output=True, text=True, check=False,
                timeout=600)
            lines = proc.stdout.strip().splitlines()
            if not check(proc.returncode == 0 and lines,
                         f"{label}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}"):
                continue
            check_result(lines[-1], expected, label)
            record = [l for l in lines if l.startswith("record: ")]
            if check(len(record) == 1, f"{label}: no record line"):
                check_record(record[0][len("record: "):], label)
            print(f"ok: {label}")
    return records


def record(workload, seed, value, isa="avx2"):
    return {"workload": workload, "seed": seed, "trace": 0,
            "params": {"p": "1"}, "env": {"bnn_isa": isa},
            "run": {"host": {"cpu": "cpu", "machine": "x86_64", "nproc": 4},
                    "started_unix": seed},
            "metrics": {"seq_per_s": {"value": value, "unit": "1/s"}}}


def write_set(directory, records):
    shutil.rmtree(directory, ignore_errors=True)
    os.makedirs(directory)
    for i, r in enumerate(records):
        with open(os.path.join(directory, f"{i}.json"), "w",
                  encoding="utf-8") as f:
            json.dump(r, f)


def compare(base, new, bench_path):
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "compare.py"), base, new,
         "--benchmark", bench_path],
        capture_output=True, text=True, check=False, timeout=60)


def check_compare(real_records):
    bench_path = os.path.join(SCRATCH, "bench.json")
    with open(bench_path, "w", encoding="utf-8") as f:
        json.dump({"workloads": [{"name": "w", "why": "x"}],
                   "end_to_end": [{"name": "seq_per_s", "unit": "1/s",
                                   "better": "higher", "bound": 0.1}],
                   "per_layer": []}, f)
    base, new = os.path.join(SCRATCH, "base"), os.path.join(SCRATCH, "new")
    base_values = [100 + (i % 3) for i in range(10)]
    cases = [
        ("better", [v * 1.3 for v in base_values], 0),
        ("worse", [v * 0.7 for v in base_values], 1),
        ("unchanged", [v + 0.5 for v in base_values], 0),
        ("unresolved", [50 + 100 * (i % 2) for i in range(10)], 0),
    ]
    write_set(base, [record("w", s, v) for s, v in enumerate(base_values)])
    for verdict, values, code in cases:
        write_set(new, [record("w", s, v) for s, v in enumerate(values)])
        proc = compare(base, new, bench_path)
        check(proc.returncode == code and verdict in proc.stdout,
              f"compare.py: expected {verdict!r} (exit {code}), got exit "
              f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    write_set(new, [record("w", s, v, isa="avx512")
                    for s, v in enumerate(base_values)])
    proc = compare(base, new, bench_path)
    check(proc.returncode == 2 and "refusing" in proc.stderr,
          "compare.py: must refuse records from another ISA")
    if real_records:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "compare.py"), real_records,
             real_records, "--per-layer"],
            capture_output=True, text=True, check=False, timeout=60)
        check(proc.returncode == 0 and "worse" not in proc.stdout,
              f"compare.py on the smoke records:\n{proc.stdout}"
              f"{proc.stderr}")
    print("ok: compare.py")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--static", action="store_true",
                        help="check BENCHMARK.json and compare.py only")
    args = parser.parse_args()

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    bench_path = os.path.join(ROOT, "BENCHMARK.json")
    with open(bench_path, "rb") as f:
        raw = f.read()
    bench = json.loads(raw)
    check_benchmark(bench, len(raw))
    print("ok: BENCHMARK.json" if not failures else "BENCHMARK.json failed")
    real_records = None if args.static else run_workloads(bench)
    check_compare(real_records)
    print(f"selftest: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
