#!/usr/bin/env python3
"""Build and run the end-to-end benchmark (README.md in this directory).

Run from the repository root:

  python3 e2ebench/run.py --workload dense-sweep --seed 1 --seconds 10 --trace 0
  python3 e2ebench/run.py --report            # every workload, every metric

The benchmark is built from source with CMake into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench); build output
goes to stderr so the last stdout line stays the benchmark's JSON result.
The exit code is the benchmark's: 0 iff every checked answer was right.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["dense-sweep", "sparse-basis", "service-mix", "observed"]


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "e2ebench")


def build():
    out = build_dir()
    steps = []
    if not os.path.exists(os.path.join(out, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            sys.exit("e2ebench: build failed: " + " ".join(cmd))
    return os.path.join(out, "e2ebench")


def bench_args(args, workload):
    cmd = ["--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.false_family:
        cmd.append("--false-family")
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir(), "spans-%s-%d.json" % (workload, args.seed))]
    return cmd


def report(binary, args):
    """Run every workload untraced and print its end-to-end metrics."""
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run([binary] + bench_args(args, workload),
                              stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        start = next((i for i, l in enumerate(lines)
                      if l.startswith("end-to-end:")), len(lines))
        print("== %s (exit %d)" % (workload, proc.returncode))
        for line in lines[start + 1:-1]:
            print(line)
        status = status or proc.returncode
    return status


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small sizes (the benchmark's own tests)")
    p.add_argument("--false-family", action="store_true",
                   help="service-mix: add the false-family warm-basis "
                        "requests the default mix leaves out")
    p.add_argument("--report", action="store_true",
                   help="run every workload and print all metrics")
    args = p.parse_args()
    if not args.report and not args.workload:
        p.error("--workload or --report is required")

    binary = build()
    if args.report:
        args.trace = 0
        return report(binary, args)
    sys.stdout.flush()
    return subprocess.run([binary] + bench_args(args, args.workload)).returncode


if __name__ == "__main__":
    sys.exit(main())
