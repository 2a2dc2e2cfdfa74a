#!/usr/bin/env python3
"""Builds and runs the layered FHE benchmark for one workload.

Usage (from the root of a checkout):
    python3 perfbench/run.py --workload matvec --seed 1 --seconds 15 --trace 0

Builds perfbench/ (and the library from src/) with CMake into the
directory named by CARGO_TARGET_DIR, default .bench_build, runs the
benchmark binary, and prints its result as the last line of stdout:
one JSON object with the keys correct, attempted, failed and metrics.
Build output and the human-readable table go to stderr. Exits nonzero,
without a result line, if the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("serve-mnist", "ckks-bootstrap", "matvec")
RUN_TIMEOUT_S = 170


def build(build_dir):
    # The compiler's temporary files stay inside the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, env=env, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   stdout=sys.stderr, env=env, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--quick", action="store_true",
                    help="one set-up and a small client pool (self-test)")
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(os.path.join(build_dir, "perfbench"))

    spans_out = os.path.join(build_dir, "spans_%s.json" % args.workload)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--spans-out", spans_out] + (["--quick"] if args.quick else [])
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        sys.exit("perfbench: no result (exit %d)" % proc.returncode)
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        sys.exit("perfbench: malformed result line")
    print(json.dumps(result))
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
