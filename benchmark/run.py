#!/usr/bin/env python3
"""Build and run the repository's benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Builds the `snb` binary (the remote
workloads spawn `snb serve` children) and the benchmark package, both in
release mode under $CARGO_TARGET_DIR (default `.bench_build`), then runs
the benchmark. Its last line of output is the result as one JSON object;
the exit code is non-zero if the build fails, the run fails, or the
output check rejects the SUT's answers.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
MANIFEST = os.path.join("benchmark", "Cargo.toml")


def main():
    if not (os.path.isfile("Cargo.toml") and os.path.isfile(MANIFEST)):
        sys.exit("run.py: run from the repository root (Cargo.toml and %s not found)" % MANIFEST)
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for build in (
        ["cargo", "build", "--release", "--offline", "--bin", "snb"],
        ["cargo", "build", "--release", "--offline", "--manifest-path", MANIFEST],
    ):
        # Build chatter goes to stderr so stdout stays the benchmark's own.
        done = subprocess.run(build, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("run.py: build failed: %s" % " ".join(build))
    release = os.path.join(target, "release")
    bench = os.path.join(release, "snb-benchmark")
    snb = os.path.join(release, "snb")
    done = subprocess.run([bench] + sys.argv[1:] + ["--snb", snb], env=env)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
