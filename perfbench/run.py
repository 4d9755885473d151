#!/usr/bin/env python3
"""Build fixq and the benchmark from source, then run one benchmark run.

Run from the root of a fixq checkout:

    python3 perfbench/run.py --workload edit-mix --seed 1 --seconds 10 --trace 0

Workloads: table2-recompute, param-sweep, edit-mix (see perfbench/README.md);
--workload all runs the three in turn. The last line of a workload's
standard output is its JSON result; build output goes to standard error.
Exits non-zero without a result when the directory is not a fixq checkout
or the build fails.
"""

import os
import subprocess
import sys

WORKLOADS = ["table2-recompute", "param-sweep", "edit-mix"]

# What the build needs besides perfbench/ itself.
REQUIRED = ["dune-project", "bin/dune", "bin/fixq_cli.ml", "lib/service/server.ml"]

BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")
FIXQ_EXE = os.path.join("_build", "default", "bin", "fixq_cli.exe")


def main():
    missing = [p for p in REQUIRED if not os.path.exists(p)]
    if missing:
        print("perfbench: not the root of a fixq checkout (missing %s)"
              % ", ".join(missing), file=sys.stderr)
        return 2
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--display", "quiet",
         "bin/fixq_cli.exe", "perfbench/bench.exe"],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    args = sys.argv[1:]
    runs = [args]
    if "--workload" in args:
        at = args.index("--workload") + 1
        if args[at:at + 1] == ["all"]:
            runs = [args[:at] + [w] + args[at + 1:] for w in WORKLOADS]
    status = 0
    for run in runs:
        sys.stdout.flush()
        code = subprocess.run([BENCH_EXE] + run + ["--fixq", FIXQ_EXE]).returncode
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main())
