#!/usr/bin/env python3
"""Builds the DeTA round benchmark and runs one workload.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the repository root. It builds the `perfbench` package
(release, offline) into `$CARGO_TARGET_DIR`, or `.bench_build` when that
is unset, then runs the benchmark binary with the same arguments. The
binary's last line of standard output is the result; build output goes
to standard error. A failed build exits non-zero and prints no result.
"""

import os
import subprocess
import sys
from pathlib import Path


def main() -> int:
    manifest = Path(__file__).resolve().parent / "Cargo.toml"
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve()
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(manifest)],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    exe = target / "release" / "deta-perfbench"
    return subprocess.run([str(exe), *sys.argv[1:]], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
