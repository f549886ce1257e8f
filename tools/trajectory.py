#!/usr/bin/env python3
"""Append one row of benchmark results to bench/trajectory.jsonl.

    python3 tools/trajectory.py --label "access hit path" [--repo DIR]

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds 20 --trace 0`
in the checkout DIR (default: this one) for each benchmark workload and
appends one JSON object per invocation: the label, `git describe` of DIR,
the host fingerprint (nproc, CPU model), the command, and per workload
wall_s, sim_eps, peak_rss_mb, setup_s, completed_frac and sim_digest
(the earliest rows carry no peak_rss_mb or setup_s). Seed and duration are
fixed so that every row is measured the same way.

The file is append-only: rows from different checkouts are comparable only
when their host fingerprints match, so measure a before/after pair back to
back on one host. A row measured on an uncommitted tree gets a describe of
the form `<parent>-dirty`, which names only the commit it sits on; such a
row is traced by its label (name the change) and by the commit that adds
the row, which is the commit it measured.
"""
import argparse
import datetime
import json
import os
import platform
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper-small", "regular-large", "cluster-256")


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_describe(repo):
    r = subprocess.run(["git", "describe", "--always", "--dirty", "--tags"],
                       cwd=repo, capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def bench_command(workload):
    return ["python3", "perfbench/run.py", "--workload", workload,
            "--seed", "1", "--seconds", "20", "--trace", "0"]


def run_workload(repo, workload):
    cmd = bench_command(workload)
    r = subprocess.run(cmd, cwd=repo, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        sys.exit(f"trajectory.py: {' '.join(cmd)} failed in {repo}:\n"
                 f"{r.stderr}")
    result = json.loads(lines[-1])
    digest = re.search(r"sim_digest=([0-9a-f]+)", r.stdout)
    metrics = result["metrics"]
    return {
        "wall_s": metrics["wall_s"]["value"],
        "sim_eps": metrics["sim_eps"]["value"],
        "peak_rss_mb": metrics["peak_rss_mb"]["value"],
        "setup_s": metrics["setup_s"]["value"],
        "completed_frac": metrics["completed_frac"]["value"],
        "sim_digest": digest.group(1) if digest else None,
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--repo", default=ROOT)
    args = ap.parse_args()

    repo = os.path.abspath(args.repo)
    row = {
        "label": args.label,
        "git_describe": git_describe(repo),
        "date": datetime.datetime.now(datetime.timezone.utc)
                .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "command": " ".join(bench_command("<workload>")),
        "workloads": {w: run_workload(repo, w) for w in WORKLOADS},
    }
    line = json.dumps(row, sort_keys=True)
    out = os.path.join(ROOT, "bench", "trajectory.jsonl")
    with open(out, "a") as f:
        f.write(line + "\n")
    print(f"trajectory.py: appended to {out}: {line}")


if __name__ == "__main__":
    main()
