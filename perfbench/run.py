#!/usr/bin/env python3
"""Build the memnet benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload fig14-sweep --seed 1 --seconds 30 --trace 0

Every argument is passed to the perfbench binary (see perfbench/README.md).
Everything the build and the run write stays under .bench_build/ in the
repository root: the Go build and module caches, the binary, temporary
files (including memnetd's cache directory) and traced runs' span files.
The script exits with the binary's exit code, or non-zero without printing
a result if the build fails or the run overstays its time limit.
"""

import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench", "perfbench")

BUILD_TIMEOUT_S = 700  # a cold build compiles the standard library too
RUN_TIMEOUT_S = 170  # the run's only wall-clock limit: fail, never hang


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=mod",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for d in ("gocache", "gopath", "tmp", "perfbench"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    try:
        build = subprocess.run(
            ["go", "build", "-o", BINARY, "."],
            cwd=HERE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    tmp = tempfile.mkdtemp(prefix="run-", dir=os.path.join(BUILD, "tmp"))
    env["TMPDIR"] = tmp
    try:
        proc = subprocess.Popen([BINARY] + sys.argv[1:], cwd=ROOT, env=env)
        try:
            return proc.wait(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s; killed", file=sys.stderr)
            return 124
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
