#!/usr/bin/env python3
"""Build bench_e2e from this checkout's sources, then run one workload.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); scratch files and traces go under it too. Build output goes
to stderr, so the last line of stdout is bench_e2e's JSON result.
"""
import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def run_quietly(cmd, env):
    done = subprocess.run(cmd, stdout=sys.stderr, env=env)
    if done.returncode != 0:
        sys.exit(done.returncode or 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    # Relative, so doocd's Unix socket paths stay short.
    build = os.path.relpath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    tmp = os.path.join(build, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=os.path.abspath(tmp))

    if not os.path.exists(os.path.join(build, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_quietly(["cmake", "-S", HERE, "-B", build, *generator], env)
    run_quietly(["cmake", "--build", build, "--target", "bench_e2e",
                 "-j", str(os.cpu_count() or 1)], env)

    binary = os.path.join(build, "bench_e2e")
    os.execve(binary, [binary,
                       f"--workload={args.workload}",
                       f"--seed={args.seed}",
                       f"--seconds={args.seconds}",
                       f"--trace={args.trace}",
                       f"--out={os.path.join(build, 'e2e_out')}",
                       f"--scratch={os.path.join(build, 'e2e_scratch')}"], env)


if __name__ == "__main__":
    main()
