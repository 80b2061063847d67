#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ingest_leader --seed 0 --seconds 10 --trace 0

Builds perfbench/ (which compiles the program's own src/) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when that variable is
unset, then runs the perfbench binary. Its standard output is passed through
unchanged: the last line is the JSON result. Build output goes to standard
error. Data directories and traces are written under the build directory,
and the temporary ones are removed before this script exits.

Exit code: the binary's (0 correct, 1 a correctness check failed, 2 a usage
or set-up error), or 2 when the program's sources are missing, the build
fails, or the run exceeds its time limit.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("ingest_leader", "ingest_quorum", "launch_reads", "diagnose_offline")
RUN_LIMIT_S = 170  # The binary must finish within this; it is killed otherwise.


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def source_sha256(root):
    """Content fingerprint of the program and benchmark sources."""
    digest = hashlib.sha256()
    for top in ("src", os.path.join("perfbench", "src"), os.path.join("perfbench", "CMakeLists.txt")):
        path = os.path.join(root, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, names in os.walk(path) for f in names)
        for name in sorted(files):
            digest.update(os.path.relpath(name, root).encode())
            with open(name, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
        return out.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def build(root, build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        if subprocess.run(configure, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            shutil.rmtree(build_dir, ignore_errors=True)
            fail("cmake configure failed")
    if subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    binary = os.path.join(build_dir, "perfbench")
    if not os.path.isfile(binary):
        fail("build produced no perfbench binary")
    return binary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "CMakeLists.txt")):
        fail("run from the root of a checkout (perfbench/CMakeLists.txt not found)")
    if not os.path.isdir(os.path.join(root, "src")):
        fail("the program's sources (src/) are not in this directory")

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(os.path.abspath(os.path.join(root, target)), "perfbench")
    binary = build(root, build_dir)

    scratch = os.path.join(build_dir, "tmp")
    shutil.rmtree(scratch, ignore_errors=True)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", args.trace,
               "--scratch", scratch, "--trace-dir", os.path.join(build_dir, "traces"),
               "--commit", git_commit(root), "--source-sha256", source_sha256(root)]
    try:
        result = subprocess.run(command, cwd=root, timeout=RUN_LIMIT_S)
        code = result.returncode
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s and was stopped" % RUN_LIMIT_S, file=sys.stderr)
        code = 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code if code >= 0 else 2)


if __name__ == "__main__":
    main()
