#!/usr/bin/env python3
"""Build and run one workload of the sign-off benchmark.

    python3 perfbench/run.py --workload sim-d4 --seed 1 --seconds 50 --trace 0

Run from the root of a checkout of the repository. The benchmark crate in
this directory is built in release mode against the repository's crates
(into $CARGO_TARGET_DIR, default .bench_build), then one workload runs in
its own process with PDN_THREADS pinned to the number of usable CPUs. The
last line of standard output is the benchmark's JSON result; the exit
status is non-zero when a check fails or the benchmark cannot be built.
Traced runs (--trace 1) write their spans under the target directory.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sim-d4", "predict-d4")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    for needed in ("Cargo.toml", os.path.join("crates", "sim", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a full checkout",
                  file=sys.stderr)
            return 2

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env["PDN_THREADS"] = str(nproc)
    print(f"runner: nproc={nproc} PDN_THREADS={nproc}", flush=True)
    cmd = [os.path.join(target, "release", "pdn-perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(target, f"perfbench-trace-{args.workload}-{args.seed}.jsonl")]
    return subprocess.run(cmd, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
