#!/usr/bin/env python3
"""Entry point of the benchmark: builds the harness from source, then runs
one workload and passes its output through (a JSON result line last).

    python3 perfbench/run.py --workload build|remap|serve --seed N --seconds N --trace 0|1

Run it from the repository root. The harness is built with cargo into
$CARGO_TARGET_DIR (default: .bench_build at the repository root) and keeps
its scratch files under .perfbench_work, which it removes before exiting.
The exit code is the harness's: 0 only when every check passed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target, CARGO_NET_OFFLINE="true")
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: building the harness failed", file=sys.stderr)
        return 1
    binary = os.path.abspath(os.path.join(target, "release", "borges-perfbench"))
    return subprocess.run([binary, *sys.argv[1:]], env=env, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
