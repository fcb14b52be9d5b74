#!/usr/bin/env python3
"""End-to-end benchmark entry point.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (the benchmark program
plus the tabrep libraries from src/) into .bench_build/ when needed,
runs workload W with a pinned environment, and prints the program's
result as the last line of stdout:

    {"correct": ..., "attempted": N, "failed": M, "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, --trace 1
the per-layer metrics of the traced run. Per-run reports and spans go
to .bench_out/<workload>-seed<N>-trace<T>/. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve_cold", "serve_hot", "pretrain", "search")
# Every tabrep environment variable is dropped and these are set, so a
# run never depends on the caller's shell.
PINNED_ENV = {
    "TABREP_NUM_THREADS": "4",
    "TABREP_SIMD": "auto",
    "TABREP_TENSOR_POOL": "1",
    "TABREP_LOG_LEVEL": "warning",
}
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build(build_dir):
    """Configures (once) and builds the program; returns its path."""
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return None
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = [cmake, "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("configure failed")
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    cmd = [cmake, "--build", build_dir, "--target", "perfbench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        log("build failed")
        return None
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    binary = build(os.path.abspath(os.path.join(".bench_build", "perfbench")))
    if binary is None:
        return 1

    env = {k: v for k, v in os.environ.items() if not k.startswith("TABREP_")}
    env.update(PINNED_ENV)
    env["TABREP_TRACE"] = str(args.trace)
    out_dir = os.path.join(".bench_out", f"{args.workload}-seed{args.seed}"
                           f"-trace{args.trace}")
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--out", out_dir]
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S}s")
        return 1
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"benchmark program exited with {proc.returncode}")
        return 1
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    result = json.loads(lines[-1])
    want = expected_metrics(args.trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != want:
        log("result does not match BENCHMARK.json: "
            f"missing {sorted(set(want) - set(got))}, "
            f"extra {sorted(set(got) - set(want))}")
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
