#!/usr/bin/env python3
"""Build and run one perfbench workload; print its metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload ds2-batch|imdb-batch|fleet-open \
        --seed N --seconds S --trace 0|1 [--record-dir DIR]

Builds the libraries and the perfbench binary from source with CMake
(into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), runs
the workload, writes the full record (pinned environment, parameters,
metrics) as one JSON file under the record directory, prints each metric
on its own line, and prints as the last line one JSON object with the
keys correct, attempted, failed and metrics.

Exit status: 0 on success, 1 when the build fails, the run fails or any
output check mismatched (the result line is still printed for a
mismatch), 2 on bad arguments. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ds2-batch", "imdb-batch", "fleet-open")
# A run must end within 180 s; the build before the first run has its
# own, longer allowance.
RUN_TIMEOUT_S = 170


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(directory, env):
    """Configure (once) and build the perfbench binary; return its path."""
    cache = os.path.join(directory, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache, encoding="utf-8", errors="replace") as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(directory)  # configured for another tree
    steps = []
    if not os.path.exists(cache):
        steps.append(["cmake", "-S", HERE, "-B", directory,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", directory, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    for step in steps:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          env=env, check=False).returncode != 0:
            return None
    binary = os.path.join(directory, "perfbench")
    return binary if os.path.exists(binary) else None


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def source_digest():
    """sha256 over the library and benchmark sources (path + content)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE]
    files = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in roots:
        for dirpath, dirnames, filenames in os.walk(top):
            dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
            files += [os.path.join(dirpath, n) for n in filenames
                      if not n.endswith(".pyc")]
    for path in sorted(files):
        if os.path.isfile(path):
            digest.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()[:16]


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--record-dir", default=None,
                        help="where to write the run record "
                             "(default: <build dir>/records)")
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60 or args.seed < 0:
        parser.error("--seconds must be 1..60 and --seed >= 0")

    directory = build_dir()
    # Keep the compiler's and the run's temporary files in the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(directory, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    binary = build(directory, env)
    if binary is None:
        log("build failed")
        return 1

    model_dir = os.path.join(directory, f"models-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--model-dir", model_dir]
    started = time.time()
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, env=env,
                              check=False, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s")
        return 1
    finally:
        shutil.rmtree(model_dir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log(f"perfbench exited with {proc.returncode}")
        return 1
    record = json.loads(lines[-1])

    record["run"] = {
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "host": {"cpu": cpu_model(), "machine": platform.machine(),
                 "nproc": os.cpu_count(), "hostname": platform.node()},
        "python": platform.python_version(),
        "started_unix": started,
        "wall_s": time.time() - started,
        "command": " ".join(["python3", "perfbench/run.py"] + sys.argv[1:]),
    }
    record_dir = args.record_dir or os.path.join(directory, "records")
    os.makedirs(record_dir, exist_ok=True)
    name = (f"{args.workload}-seed{args.seed}-trace{args.trace}-"
            f"{int(started * 1000)}.json")
    with open(os.path.join(record_dir, name), "w", encoding="utf-8") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    metrics = record["metrics"]
    for key, metric in metrics.items():
        print(f"{args.workload} {key} = {metric['value']:.6g} "
              f"{metric['unit']}")
    for key, metric in record["unbounded_metrics"].items():
        print(f"{args.workload} {key} = {metric['value']:.6g} "
              f"{metric['unit']} (reported, not bounded)")
    attempted = record["attempted"]
    print(f"{args.workload} fail_pct = "
          f"{100.0 * record['failed'] / max(1, attempted):.6g} % "
          f"({record['failed']} of {attempted}; "
          f"{record['mismatches']} output mismatches)")
    print(f"record: {os.path.join(record_dir, name)}")
    print(json.dumps({"correct": record["correct"], "attempted": attempted,
                      "failed": record["failed"], "metrics": metrics}))
    sys.stdout.flush()
    return 0 if record["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
