#!/usr/bin/env python3
"""Build the svmbench program from this checkout's sources and run one workload.

    python3 perfbench/run.py --workload paper-small --seed 1 --seconds 20 --trace 0

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build), relative to the root unless absolute. svmbench's stdout is
passed through, so its last line is the JSON result; its stderr (build output
and the simulator's deadlock dumps) goes to logs/ under the build directory.
Exits nonzero, printing no result, when the build or the run fails.
"""
import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-small", "regular-large", "cluster-256")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; leave room for the build check and exit.
RUN_TIMEOUT_S = 170


def fail(msg, log=None):
    print(f"run.py: {msg}", file=sys.stderr)
    if log and os.path.exists(log):
        with open(log, errors="replace") as f:
            tail = f.readlines()[-30:]
        sys.stderr.writelines(tail)
    sys.exit(1)


def build(build_dir, log_path):
    jobs = str(min(4, os.cpu_count() or 1))
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    with open(log_path, "w") as log:
        rc = subprocess.run(
            ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=log, stderr=subprocess.STDOUT, env=env).returncode
        if rc != 0:
            fail("cmake configure failed", log_path)
        rc = subprocess.run(
            ["cmake", "--build", build_dir, "--target", "svmbench", "-j", jobs],
            stdout=log, stderr=subprocess.STDOUT, env=env).returncode
        if rc != 0:
            fail("build failed", log_path)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    log_dir = os.path.join(build_dir, "logs")
    os.makedirs(log_dir, exist_ok=True)
    build(build_dir, os.path.join(log_dir, "build.log"))

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    log_path = os.path.join(log_dir, tag + ".stderr")
    cmd = [os.path.join(build_dir, "svmbench"), f"--workload={args.workload}",
           f"--seed={args.seed}", f"--seconds={args.seconds}",
           f"--trace={args.trace}"]
    if args.trace:
        spans_dir = os.path.join(build_dir, "spans")
        os.makedirs(spans_dir, exist_ok=True)
        cmd.append(f"--spans={os.path.join(spans_dir, tag + '.json')}")
    with open(log_path, "w") as err:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err,
                                  text=True, timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            fail(f"svmbench did not finish within {RUN_TIMEOUT_S} s", log_path)
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        fail(f"svmbench exited with {proc.returncode}", log_path)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("svmbench printed no JSON result", log_path)
    if set(result) != RESULT_KEYS:
        fail(f"unexpected result keys {sorted(result)}", log_path)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
