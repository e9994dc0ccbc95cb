#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload read_f32_closed --seed 1 \
        --seconds 10 --trace 0

Builds ../src and the perfbench driver into .bench_build/perfbench
(Release), then runs the driver with every parameter of the workload taken
from perfbench/workloads.json. Scratch files (flat vector files, WALs, trace
JSON) go to .bench_work/. The driver's standard output is passed through;
its last line is the JSON result. Build output goes to standard error.
Exits non-zero, without a result, when the build or the run fails.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORK_DIR = os.path.join(ROOT, ".bench_work")


def build():
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD_DIR,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", BUILD_DIR, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        check=True, stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "perfbench")


def source_digest():
    """SHA-1 over the library sources, so a result names the code it ran."""
    digest = hashlib.sha1()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=True)
        return out.stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    with open(os.path.join(HERE, "workloads.json")) as f:
        config = json.load(f)
    if args.workload not in config["workloads"]:
        sys.exit("unknown workload %r; choose from %s" %
                 (args.workload, ", ".join(sorted(config["workloads"]))))
    params = dict(config["common"])
    params.update(config["workloads"][args.workload])

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("perfbench build failed: %s" % e)
    os.makedirs(WORK_DIR, exist_ok=True)
    # A run that was killed leaves its flat file and WAL directories behind.
    for name in os.listdir(WORK_DIR):
        if name.startswith(("base-", "wal-", "replay-")):
            path = os.path.join(WORK_DIR, name)
            if os.path.isdir(path):
                shutil.rmtree(path)
            else:
                os.remove(path)

    cmd = [binary,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", repr(args.seconds),
           "--trace", str(args.trace),
           "--work-dir", WORK_DIR,
           "--commit", commit(),
           "--source-digest", source_digest()]
    for key, value in params.items():
        cmd += ["--" + key, str(value)]
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
