#!/usr/bin/env python3
"""Build and run the end-to-end train -> cleanse benchmark (see README.md).

From the repository root:

    python3 e2ebench/run.py --workload mnist_cleanse --seed 42 --seconds 40 --trace 0
    python3 e2ebench/run.py --selftest

Each call configures and builds the library and the benchmark into
.bench_build/e2ebench; only the first one compiles everything. The benchmark's own
stdout is passed through; its last line is the JSON result. Exits non-zero,
without a result, when the build or the run fails.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "e2ebench")
WORKLOADS = ("mnist_cleanse", "dba_vgg_4t", "fleet_1m_int8")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
SELFTEST_TIMEOUT_S = 600
BUILD_JOBS = "4"


def run(cmd, timeout, **kwargs):
    """Run `cmd` to completion; on a timeout or a terminating signal, kill it
    and wait for it before leaving."""
    proc = subprocess.Popen(cmd, **kwargs)

    def stop(signum, _frame):
        proc.kill()
        proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise


def build(target):
    """Configure and build `target` (both incremental); output goes to stderr."""
    cmd = ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        cmd += ["-G", "Ninja"]
    for step in (cmd, ["cmake", "--build", BUILD_DIR, "--target", target, "-j", BUILD_JOBS]):
        if run(step, BUILD_TIMEOUT_S, stdout=sys.stderr) != 0:
            raise RuntimeError("build failed: " + " ".join(step))
    return os.path.join(BUILD_DIR, target)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true",
                        help="build and run the benchmark's own tests instead")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    try:
        if args.selftest:
            tests = build("e2ebench_tests")
            return run([tests], SELFTEST_TIMEOUT_S)
        binary = build("e2ebench")
        return run([binary, "--workload", args.workload, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)],
                   RUN_TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as err:
        print(f"e2ebench: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
