#!/usr/bin/env python3
"""Build and run the Stabilizer end-to-end benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload geo_sim|tcp_bulk \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library from src/ together with the harness into $CARGO_TARGET_DIR
(default .bench_build); later calls rebuild incrementally. Build output
goes to stderr; the harness binary's stdout is passed through, so the last
line of stdout is the JSON result. --trace 1 also writes the traced pass's
spans to .bench_out/. --selftest builds and runs the benchmark's own tests.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("geo_sim", "tcp_bulk")


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, base, "perfbench")


def configured_for_this_tree(bdir):
    cache = os.path.join(bdir, "CMakeCache.txt")
    if not os.path.isfile(cache):
        return False
    with open(cache, encoding="utf-8", errors="replace") as f:
        for line in f:
            if line.startswith("CMAKE_HOME_DIRECTORY:INTERNAL="):
                home = line.split("=", 1)[1].strip()
                return os.path.realpath(home) == os.path.realpath(HERE)
    return False


def build(target):
    """Configures (once) and builds `target`; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        print("run.py: no library sources at %s/src; run from a full "
              "checkout of the repository" % ROOT, file=sys.stderr)
        return None
    bdir = build_dir()
    if not configured_for_this_tree(bdir):
        shutil.rmtree(bdir, ignore_errors=True)
        cmd = ["cmake", "-S", HERE, "-B", bdir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    cmd = ["cmake", "--build", bdir, "--target", target, "-j4"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(bdir, target)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--selftest", action="store_true")
    args = p.parse_args()

    if args.selftest:
        exe = build("perfbench_test")
        return 1 if exe is None else subprocess.run([exe]).returncode
    if None in (args.workload, args.seed, args.seconds, args.trace):
        p.error("--workload, --seed, --seconds and --trace are required")

    exe = build("perfbench_e2e")
    if exe is None:
        return 1
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = os.path.join(ROOT, ".bench_out")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans-dir", spans]
    sys.stdout.flush()
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
