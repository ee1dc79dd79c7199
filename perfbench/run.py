#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload <table2-cold|hierarchy-cold|serve-mixed> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) with
path dependencies on the repository's crates. It is built in release
mode into $CARGO_TARGET_DIR (default: .bench_build at the repository
root), then run from the repository root; its scratch journals and span
file go to .perfbench/. The last line of standard output is the JSON
result. Build output goes to standard error.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        print("perfbench: the repository's crates are missing next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 1
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        stdout=sys.stderr, env=env, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, check=False,
                          preexec_fn=pin_if_serving(sys.argv[1:])).returncode


def pin_if_serving(args):
    """serve-mixed runs on one CPU: its client and server threads hand
    every request back and forth, and on a shared virtual machine a
    hand-off to another CPU waits for the host to wake it, which made
    latencies drift with the host's load rather than with the program."""
    if "serve-mixed" not in args:
        return None
    cpu = min(os.sched_getaffinity(0))
    return lambda: os.sched_setaffinity(0, {cpu})


if __name__ == "__main__":
    sys.exit(main())
