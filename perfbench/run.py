#!/usr/bin/env python3
"""Build the perfbench command from this checkout and run it.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload loops|serve|churn --seed N \
        --seconds S --trace 0|1

The Go build cache, module cache and binary live under .bench_build/ at
the repository root, so a run reads and writes nothing outside the
checkout. The first run builds the standard library into that cache and
takes a minute or two; later runs reuse it. Build output goes to standard
error; standard output is the benchmark's own, ending with its one-line
JSON result. A failed build exits with status 2 and prints no result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
# The benchmark bounds itself to --seconds plus set-up; this is a backstop
# for a hung run.
RUN_TIMEOUT_S = 170


def go_env():
    env = dict(os.environ)
    for name in ("GOFLAGS", "GOWORK", "GOROOT_FINAL"):
        env.pop(name, None)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        GOTMPDIR=os.path.join(BUILD, "tmp"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOWORK="off",
        CGO_ENABLED="0",
    )
    return env


def main():
    env = go_env()
    for d in (env["GOCACHE"], env["GOMODCACHE"], env["GOTMPDIR"], env["XDG_CONFIG_HOME"]):
        os.makedirs(d, exist_ok=True)
    binary = os.path.join(BUILD, "perfbench")
    try:
        build = subprocess.run(["go", "build", "-o", binary, "."],
                               cwd=HERE, env=env, stdout=sys.stderr)
    except OSError as e:
        print(f"perfbench: cannot run go: {e}", file=sys.stderr)
        return 2
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    try:
        return subprocess.run([binary] + sys.argv[1:], cwd=ROOT,
                              timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S}s and was killed", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
