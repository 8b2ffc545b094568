#!/usr/bin/env python3
"""Build the program from source and run one benchmark workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 10 --trace 0

Workloads: analyze-cold, profile-table1, edit-replay, serve-open.
--trace 1 runs the traced per-layer variant instead of the end-to-end one.
--tiny shrinks every input so that a run takes seconds (smoke test).

Builds with dune into $CARGO_TARGET_DIR (default .bench_build) with the
shared dune cache off, so everything stays inside the checkout. The last
line of standard output is the JSON result of perfbench.exe.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("analyze-cold", "profile-table1", "edit-replay", "serve-open")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--serve-rate", type=float, default=10.0,
                    help="offered jobs per second for serve-open")
    args = ap.parse_args()

    for needed in ("dune-project", "lib", "bin", "perfbench/dune"):
        if not os.path.exists(needed):
            fail("run from the root of a full checkout (missing %s)" % needed)

    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    targets = ["./perfbench/perfbench.exe", "./bin/ptranc.exe"]
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", build_dir,
         "--profile", "release", "--cache", "disabled", "--display", "quiet"] + targets,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if build.returncode != 0:
        sys.stderr.write(build.stdout)
        fail("build failed")

    def exe(target):
        return os.path.join(build_dir, "default", target[2:])

    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    cmd = [exe(targets[0]),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--nproc", str(nproc), "--ptranc", exe(targets[1]),
           "--serve-rate", repr(args.serve_rate)]
    if args.tiny:
        cmd.append("--tiny")
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd).returncode)


if __name__ == "__main__":
    main()
