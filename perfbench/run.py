#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --quick
    python3 perfbench/run.py --sweep <n> --out <dir> [--trace <0|1>] [--workload <name>]

Run from the root of a source tree. The benchmark binary is built from
source (Release) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that is unset; the first run builds, later runs only check that the
build is current. Build output goes to standard error, so the last line of
standard output is the benchmark's JSON result.

--quick runs every workload briefly with its output checks on, then once
per check with that check's expectation perturbed, and fails unless every
plain run passes and every perturbed run fails.

--sweep runs each workload (or the one named) with seeds 1..n and writes
each run's standard output to <dir>/<workload>.t<trace>.s<seed>.out, the
layout compare.py reads.
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["sb_point", "sb_fanout", "tpcc_local", "sb_durable"]


def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "client", "database.h")):
        sys.exit("perfbench: no reactdb source tree next to %s" % HERE)
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target", "perfbench"],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def run(binary, argv):
    """Runs the binary; returns (exit code, standard output)."""
    os.makedirs(build_dir(), exist_ok=True)
    proc = subprocess.run([binary, "--data-root", build_dir()] + argv,
                          stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def quick(binary):
    ok = True
    for w in WORKLOADS:
        base = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "1"]
        code, out = run(binary, base)
        passed = code == 0 and '"correct": true' in out.splitlines()[-1]
        print("%-11s %-12s %s" % (w, "(none)", "pass" if passed else "FAIL: checks failed"))
        ok &= passed
        code, out = run(binary, ["--workload", w, "--list-checks"])
        for check in out.split():
            code, _ = run(binary, base + ["--perturb", check])
            fired = code != 0
            print("%-11s %-12s %s" % (w, check, "fired" if fired else "FAIL: did not fire"))
            ok &= fired
    return 0 if ok else 1


def sweep(binary, args):
    os.makedirs(args.out, exist_ok=True)
    ok = True
    for w in [args.workload] if args.workload else WORKLOADS:
        for seed in range(1, args.sweep + 1):
            code, out = run(binary, ["--workload", w, "--seed", str(seed),
                                     "--seconds", str(args.seconds), "--trace", args.trace])
            path = os.path.join(args.out, "%s.t%s.s%d.out" % (w, args.trace, seed))
            with open(path, "w") as f:
                f.write(out)
            print("%s exit %d" % (path, code), flush=True)
            ok &= code == 0
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--perturb", help="shift one check's expectation (the run must fail)")
    parser.add_argument("--quick", action="store_true", help="check-firing smoke over all workloads")
    parser.add_argument("--sweep", type=int, help="run seeds 1..N, writing results to --out")
    parser.add_argument("--out", default="perfbench-results")
    args = parser.parse_args()
    if not args.quick and not args.sweep and args.workload is None:
        parser.error("--workload is required")

    binary = build()
    if args.quick:
        return quick(binary)
    if args.sweep:
        return sweep(binary, args)
    argv = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", args.trace]
    if args.perturb:
        argv += ["--perturb", args.perturb]
    code, out = run(binary, argv)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
