#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds `perfbench` (release,
offline, against the vendored crates) into `$CARGO_TARGET_DIR`, or
`.bench_build` when that is unset, then runs the binary with the same
arguments. Build output goes to stderr, so the last line of stdout is the
binary's JSON result. Traced runs write their span dump under
`perfbench/out/`. Exits non-zero, printing no result, if the build fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    run = subprocess.run([binary, *sys.argv[1:], "--out", os.path.join(HERE, "out")])
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
