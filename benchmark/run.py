#!/usr/bin/env python3
"""Builds unicc_bench from this source tree and runs one workload.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
the benchmark (Release) into .bench_build/; later calls rebuild only what
changed. With --trace 0 the last line of the output is a JSON object with
the end-to-end metrics, with --trace 1 one with the per-layer metrics (the
Chrome trace goes to .bench_build/trace-NAME.json). The exit code is the
benchmark's own: 0 only when every self-check passed.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "unicc_bench")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def run(cmd, timeout, quiet=False):
    """Runs cmd in a process group of its own and returns its exit code.

    On timeout, SIGTERM or SIGINT the whole group is killed, so no compiler
    or forked repeat outlives this script; after a timeout the result is
    None. A quiet command's output goes to stderr, keeping stdout for the
    benchmark's result.
    """
    proc = subprocess.Popen(cmd, stdout=sys.stderr if quiet else None,
                            start_new_session=True)

    def kill_group():
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass  # the group has already exited
        proc.wait()

    def on_signal(signum, _frame):
        kill_group()
        sys.exit(128 + signum)

    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, on_signal)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        kill_group()
        print("run.py: timed out: " + " ".join(cmd), file=sys.stderr)
        return None
    finally:
        for sig in (signal.SIGTERM, signal.SIGINT):
            signal.signal(sig, signal.SIG_DFL)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        print("run.py: no unicc source tree at " + ROOT, file=sys.stderr)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        if run(["cmake", "-S", os.path.join(ROOT, "benchmark"), "-B", BUILD,
                "-DCMAKE_BUILD_TYPE=Release"] + generator,
               BUILD_TIMEOUT_S, quiet=True) != 0:
            return False
    return run(["cmake", "--build", BUILD, "--target", "unicc_bench",
                "-j", "4"], BUILD_TIMEOUT_S, quiet=True) == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 2
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds]
    if args.trace:
        cmd.append("--trace=" + os.path.join(
            BUILD, "trace-%s.json" % args.workload))
    rc = run(cmd, RUN_TIMEOUT_S)
    return 3 if rc is None or rc < 0 else rc  # < 0: killed by a signal


if __name__ == "__main__":
    sys.exit(main())
